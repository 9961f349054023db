"""Divergence-controlled recursive query refinement.

The loop retrieves with the current query, compares the top-k exposure
distribution against the fairness target with KL divergence, picks the most
underrepresented subgroup, asks a refiner for a new query, and accepts the
refinement only if divergence strictly decreases. It stops on no-decrease,
on hitting the iteration cap, when the target is met, or on a failure.

Two refiners ship: a deterministic lexicon refiner that appends subgroup
keywords, and an LLM refiner that prompts a chat model and extracts the
query after a `REFINED_QUERY:` marker.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .corpus import CorpusStore, is_string_lists, tokenize
from .errors import (
    DegenerateExposureError,
    EmptyQueryError,
    LexiconError,
    ParseError,
    RefinerError,
    TemplateError,
    UsageError,
)
from .fairness import ExposureDistribution, ExposureMeter, FairnessTarget
from .index import (
    InvertedIndex,
    RankedList,
    make_ranked_list,
    query_terms,
    retrieve_terms,
)
from .llm import ChatCompletionClient

TARGET_MET_TOLERANCE = 1e-9

REFINED_QUERY_MARKER = "REFINED_QUERY:"

PLACEHOLDERS = (
    "{Query}",
    "{Target Exposure Distribution}",
    "{Current Exposure Distribution}",
    "{Top_K}",
    "{subgroup}",
)

MARKER_INSTRUCTION = (
    "End your reply with a single line of the form "
    "`REFINED_QUERY: <the full refined query>`."
)

DEFAULT_PROMPT_TEMPLATE = """\
You are a user who cares about the fairness of a search engine where searched documents are retrieved from different subgroups.
You want to make sure the retrieved documents of query: {Query} are from diverse fairness groups quantified by a target distribution: {Target Exposure Distribution}, which shows the desired percentage of retrieved documents from each subgroup. The keys in the target distribution are the unique subgroups. The 'Unknown' subgroup means group information is missing or not applicable.
Now, using the BM25 method, you got results of the first {Top_K} documents with a fairness group distribution of: {Current Exposure Distribution}. You want to achieve the target by adding keywords or phrase at the end of the original query with less jeopardize relevance. Therefore, you must add less keywords as possible to make the current results more align with our fairness target distribution and remain relevant.
Let's try to focus on the subgroup that is most under-represented. In this case, it's the subgroup: {subgroup}. Show me your refined keywords that can help retrieve a composition of documents from different subgroups closer to the target distribution. That is, knowing the retrieved documents have fewer than desired documents from group {subgroup}, you might want to include keywords about {subgroup}.
""" + MARKER_INSTRUCTION + "\n"


@dataclass(frozen=True)
class RefinerConfig:
    category: str
    max_iterations: int = 5
    pool_size: int = 100
    k: int = 20

    def __post_init__(self):
        if self.max_iterations < 1:
            raise UsageError("max_iterations must be >= 1")
        if self.k > self.pool_size:
            raise UsageError("k must not exceed pool_size")


@dataclass(frozen=True)
class Refinement:
    """What one refiner call produced: the query and the raw model reply."""

    query: str
    raw_response: str = ""


@dataclass(frozen=True, slots=True)
class IterationRecord:
    iteration: int           # 0 = original query
    query: str
    exposure: tuple[float, ...]
    divergence: float
    subgroup: str | None     # None at iteration 0
    accepted: bool
    raw_response: str = ""


@dataclass(slots=True)
class RefinementTrace:
    query_id: str
    category: str
    records: list[IterationRecord] = field(default_factory=list)
    # no-decrease | max-iterations | target-met | error |
    # no-target (never refined)
    terminal_reason: str = ""
    error: str = ""  # the failure that ended the loop, if one did

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "category": self.category,
            "terminal_reason": self.terminal_reason,
            "error": self.error,
            "iterations": [
                {"iteration": r.iteration, "query": r.query,
                 "exposure": list(r.exposure), "divergence": r.divergence,
                 "subgroup": r.subgroup, "accepted": r.accepted,
                 "raw_response": r.raw_response}
                for r in self.records
            ],
        }


class Refiner(Protocol):
    def refine(
        self,
        query: str,
        target: FairnessTarget,
        current: np.ndarray,  # exposure at top_k, in schema order
        top_k: int,
        subgroup: str,
    ) -> Refinement: ...


def _render_distribution(subgroups, probabilities) -> str:
    pairs = ", ".join(
        f"{label}: {p:.4f}" for label, p in zip(subgroups, probabilities)
    )
    return "{" + pairs + "}"


def _check_template(template: str) -> None:
    """TemplateError unless the template holds every placeholder."""
    for placeholder in PLACEHOLDERS:
        if placeholder not in template:
            raise TemplateError(f"template missing placeholder {placeholder}")


def render_prompt(
    template: str,
    query: str,
    target: FairnessTarget,
    current: ExposureDistribution,
    top_k: int,
    subgroup: str,
    subgroups,
) -> str:
    """Substitute all placeholders; distributions render to 4 decimals."""
    _check_template(template)
    return (
        template.replace("{Query}", query)
        .replace(
            "{Target Exposure Distribution}",
            _render_distribution(subgroups, target.target.probabilities),
        )
        .replace(
            "{Current Exposure Distribution}",
            _render_distribution(subgroups, current.probabilities),
        )
        .replace("{Top_K}", str(top_k))
        .replace("{subgroup}", subgroup)
    )


def parse_refinement(response: str, fallback_query: str) -> str:
    """Text after the last REFINED_QUERY: marker, trimmed; ParseError when
    there is no marker or nothing follows it. `fallback_query` is not read."""
    pos = response.rfind(REFINED_QUERY_MARKER)
    if pos < 0:
        raise ParseError(f"no {REFINED_QUERY_MARKER!r} marker in response")
    refined = response[pos + len(REFINED_QUERY_MARKER):].strip()
    if not refined:
        raise ParseError("empty refined query")
    return refined


class LexiconRefiner:
    """Deterministic refiner: append the subgroup's first unused keyword."""

    def __init__(self, lexicon: dict[str, list[str]]):
        if not is_string_lists(lexicon):
            raise LexiconError("lexicon must map subgroups to lists of "
                               "keywords")
        self.lexicon = lexicon

    def refine(self, query, target, current, top_k, subgroup) -> Refinement:
        keywords = self.lexicon.get(subgroup)
        if not keywords:
            raise LexiconError(f"no lexicon keywords for subgroup {subgroup!r}")
        present = set(tokenize(query))
        for keyword in keywords:
            if set(tokenize(keyword)) - present:
                return Refinement(f"{query} {keyword}")
        return Refinement(query)


class LLMRefiner:
    """Refiner backed by a chat-completion endpoint.

    Nondeterministic for temperature > 0. Holds only configuration, so one
    instance can serve concurrent loops. A template missing a placeholder
    raises TemplateError here, before any query reaches a prompt.
    """

    def __init__(
        self,
        client: ChatCompletionClient,
        subgroups,
        temperature: float = 0.3,
        template: str = DEFAULT_PROMPT_TEMPLATE,
    ):
        if not (0.0 <= temperature <= 2.0):
            raise UsageError("temperature must be in [0, 2]")
        _check_template(template)
        self.client = client
        self.subgroups = tuple(subgroups)
        self.temperature = temperature
        self.template = template

    def refine(self, query, target, current, top_k, subgroup) -> Refinement:
        prompt = render_prompt(
            self.template,
            query,
            target,
            ExposureDistribution(target.category, current),
            top_k,
            subgroup,
            self.subgroups,
        )
        response = self.client.complete(prompt, self.temperature)
        return Refinement(parse_refinement(response, fallback_query=query),
                          response)


def fair_qr(
    index: InvertedIndex,
    store: CorpusStore,
    query: str,
    target: FairnessTarget,
    config: RefinerConfig,
    refiner: Refiner,
    query_id: str = "",
) -> tuple[RankedList, RefinementTrace]:
    """Run the full refinement loop for one query.

    Iteration 0 measures the original query; each later iteration asks the
    refiner for a new query and measures it. A query whose distinct terms,
    in first-occurrence order (`query_terms`), match a query this call
    already measured is recorded with that measurement, not retrieved again.
    The reuse is exact: `retrieve_terms` reads only those terms and sums
    their scores in that order, so it would return the same list. Each
    measurement is an `ExposureMeter`'s, equal to `exposure` and
    `kl_divergence` of the list. Returns the pool_size-deep retrieval of the
    best accepted query and the per-iteration trace. A refiner or retrieval
    failure ends the loop with the best set so far (an empty list when
    iteration 0 fails) and is named in `trace.error`. A config of another
    category than the target's raises UsageError.
    """
    if config.category != target.category:
        raise UsageError(f"config category {config.category!r} is not the "
                         f"target's, {target.category!r}")
    meter = ExposureMeter(store, index, target, config.k)
    trace = RefinementTrace(query_id=query_id, category=target.category,
                            terminal_reason="max-iterations")
    # query_terms -> (ranked, eps, shares, delta)
    measured = {}
    for iteration in range(config.max_iterations + 1):
        subgroup, step = None, Refinement(query)
        try:
            if iteration:
                subgroup = meter.most_underrepresented(best_eps)
                step = refiner.refine(query, target, best_eps, config.k,
                                      subgroup)
            terms = query_terms(step.query)
            if terms not in measured:
                ranked = retrieve_terms(index, terms, config.pool_size,
                                        query_id)
                eps, delta = meter.measure(ranked)
                measured[terms] = (ranked, eps, tuple(eps.tolist()), delta)
            ranked, eps, shares, delta = measured[terms]
        except (RefinerError, EmptyQueryError, DegenerateExposureError) as exc:
            trace.error = f"{type(exc).__name__}: {exc}"
            trace.terminal_reason = "error"
            if not iteration:  # nothing measured
                best_ranked = make_ranked_list(query_id, [])
            break
        accepted = iteration == 0 or delta < best_delta
        trace.records.append(IterationRecord(
            iteration=iteration,
            query=step.query,
            exposure=shares,
            divergence=delta,
            subgroup=subgroup,
            accepted=accepted,
            raw_response=step.raw_response,
        ))
        if not accepted:
            trace.terminal_reason = "no-decrease"
            break
        # the accepted query is the one the next iteration refines
        query, best_ranked, best_eps, best_delta = (step.query, ranked, eps,
                                                     delta)
        if best_delta <= TARGET_MET_TOLERANCE:
            trace.terminal_reason = "target-met"
            break
    return best_ranked, trace
