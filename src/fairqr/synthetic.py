"""Deterministic synthetic corpora with controlled group skew.

Each topic gets a dedicated topic term; a document's text mixes that term,
its subgroup's marker term (`marker<subgroup>`), and filler. Majority-
subgroup documents and half of each minority subgroup's (the strong ones)
hold the topic term three times; majority documents also hold two other
topics' terms, so off-topic documents match a topic query weakly. The other
minority documents (the weak ones) mention the topic once among more
filler. Appending a subgroup's marker (what the lexicon refiner does) pulls
that subgroup's documents, weak ones included, into the top ranks.

Strong minority documents, not majority ones, lead baseline retrieval:
they have 9 tokens and majority documents 11, so BM25's length norm ranks
every strong minority document first. On `fairqr gen --docs 2000 --topics
20 --skew 0.6 --seed 7`, all 400 top-20 slots of `fairqr run bm25
--pool-size 20` are female. ROADMAP item 1 is to make the generator produce
under-exposed minorities.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .corpus import UNKNOWN
from .errors import UsageError

FILLER_VOCAB = [
    "report", "study", "history", "overview", "record", "notes", "profile",
    "archive", "summary", "article", "review", "account", "survey", "digest",
    "journal", "chapter", "essay", "memoir", "feature", "bulletin",
]


@dataclass(frozen=True)
class SkewSpec:
    """Parameters of one synthetic collection; seed fixes all randomness."""

    seed: int
    doc_count: int
    topic_count: int
    skew: float
    category: str = "gender"
    proportions: dict[str, float] = field(
        default_factory=lambda: {"male": 0.8, "female": 0.2}
    )

    def __post_init__(self):
        if not (1 <= self.topic_count <= self.doc_count):
            raise UsageError("topic_count must be in [1, doc_count]")
        if not (0.0 < self.skew < 1.0):
            raise UsageError("skew must be in (0, 1)")
        if any(p < 0 for p in self.proportions.values()):
            raise UsageError("proportions must be nonnegative")
        if abs(sum(self.proportions.values()) - 1.0) > 1e-9:
            raise UsageError("proportions must sum to 1")

    @property
    def subgroups(self) -> tuple[str, ...]:
        """Schema order: declared subgroups then the reserved Unknown."""
        return tuple(self.proportions) + (UNKNOWN,)


def _topic_term(topic: int) -> str:
    return f"topic{topic:02d}"


def _marker(subgroup: str) -> str:
    return f"marker{subgroup}"


def generate(spec: SkewSpec):
    """Produce (corpus records, queries, qrels rows, lexicon).

    queries: list of (query_id, text). qrels rows: (query_id, doc_id, grade),
    every on-topic document relevant at grade 1. Deterministic given seed.
    """
    rng = random.Random(spec.seed)
    docs_per_topic = spec.doc_count // spec.topic_count
    majority = max(spec.proportions, key=lambda s: spec.proportions[s])
    minorities = [s for s in spec.proportions if s != majority]

    records: list[dict] = []
    queries: list[tuple[str, str]] = []
    qrels_rows: list[tuple[str, str, int]] = []

    for topic in range(spec.topic_count):
        term = _topic_term(topic)
        query_id = f"q{topic:02d}"
        queries.append((query_id, term))

        # integer allocation: majority gets round(skew * n), the rest split
        # across minorities proportionally with at least one doc each
        n_major = round(spec.skew * docs_per_topic)
        n_minor_total = docs_per_topic - n_major
        if minorities and n_minor_total < len(minorities):
            raise UsageError(
                "skew leaves fewer documents than minority subgroups"
            )
        assignment = [majority] * n_major
        if minorities:
            minor_weights = [spec.proportions[s] for s in minorities]
            total_w = sum(minor_weights)
            counts = [
                max(1, round(n_minor_total * w / total_w))
                for w in minor_weights
            ]
            while sum(counts) > n_minor_total:
                counts[counts.index(max(counts))] -= 1
            while sum(counts) < n_minor_total:
                counts[counts.index(min(counts))] += 1
            for sub, cnt in zip(minorities, counts):
                assignment += [sub] * cnt

        for j, subgroup in enumerate(assignment):
            doc_id = f"d{topic:02d}-{j:03d}"
            marker = _marker(subgroup)
            # minority docs alternate strong/weak; odd ones score poorly on
            # the bare topic query but carry extra marker weight
            minority = subgroup != majority
            weak = minority and j % 2 == 1
            # minority docs carry no cross-topic filler, so a marker-refined
            # query promotes the topic's own minority docs, not strangers
            if weak:
                tokens = [term] + [marker] * 2 + _filler(
                    rng, 15, topic, spec, cross_topic=False
                )
            else:
                tokens = [term] * 3 + [marker] + _filler(
                    rng, 5, topic, spec, cross_topic=not minority
                )
            rng.shuffle(tokens)
            records.append(
                {
                    "id": doc_id,
                    "text": " ".join(tokens),
                    "groups": {spec.category: [subgroup]},
                }
            )
            qrels_rows.append((query_id, doc_id, 1))

    lexicon = {sub: [_marker(sub)] for sub in spec.proportions}
    lexicon.setdefault(UNKNOWN, ["unlabeled"])
    return records, queries, qrels_rows, lexicon


def _filler(
    rng: random.Random, n: int, topic: int, spec: SkewSpec, cross_topic: bool
) -> list[str]:
    """Filler words, optionally plus two cross-topic terms so off-topic
    documents can match a topic query weakly."""
    words = [rng.choice(FILLER_VOCAB) for _ in range(n)]
    if cross_topic and spec.topic_count > 1:
        for _ in range(2):
            # the o-th topic other than this one; same draw as rng.choice
            o = rng.randrange(spec.topic_count - 1)
            words.append(_topic_term(o + (o >= topic)))
    return words
