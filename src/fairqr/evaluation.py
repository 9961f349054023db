"""Relevance/fairness evaluation: nDCG@k, AWRF@k, products, and a paired
sign-flip randomization test between two runs.

nDCG uses linear gain (grade / log2(rank + 1)) with the ideal ordering taken
over all judged relevant documents, truncated at k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusStore
from .errors import UsageError
from .fairness import FairnessTarget, awrf
from .index import RankedList
from .trec import Qrels


def ndcg_at_k(ranked: RankedList, qrels: Qrels, query_id: str, k: int) -> float:
    if k < 1:
        raise UsageError("k must be >= 1")
    judged = qrels.get(query_id, {})
    ideal = sorted((g for g in judged.values() if g > 0), reverse=True)
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal[:k], start=1))
    if idcg == 0.0:
        return 0.0
    dcg = sum(
        judged.get(doc_id, 0) / math.log2(rank + 1)
        for rank, doc_id in enumerate(ranked.top_ids(k), start=1)
    )
    return dcg / idcg


def composite(ndcg: float, awrf_value: float) -> float:
    """Product of nDCG and AWRF, the balance metric."""
    return ndcg * awrf_value


SIGN_FLIPS = 16_384  # sign vectors: all 2**n up to this many, else drawn


def _sign_flip_test(a, b) -> tuple[float, float]:
    """Paired two-sided sign-flip randomization test: (mean of d = a - b, p).

    p is the share of sign vectors s with |sum(s * d)| >= |sum(d)| less
    1e-9 * sum(|d|), so that rounding drops no tie. All 2**n vectors are
    tried while 2**n <= SIGN_FLIPS; above that SIGN_FLIPS are drawn from a
    fixed seed and p = (1 + hits) / (1 + SIGN_FLIPS): never 0, and the same
    on every run.
    """
    if len(a) != len(b) or len(a) < 2:
        raise UsageError("need at least 2 paired observations, got "
                         f"{len(a)} and {len(b)}")
    d = np.subtract(a, b, dtype=float)
    n, total = d.size, d.sum()
    bound = abs(total) - 1e-9 * np.abs(d).sum()
    exact = 2 ** n <= SIGN_FLIPS
    draws = 2 ** n if exact else SIGN_FLIPS
    rows = max(1, (1 << 20) // (8 * n))  # about 1 MB of signs a block
    rng, hits = np.random.default_rng(0), 0
    for start in range(0, draws, rows):
        size = min(rows, draws - start)
        if exact:  # row r's bits are the binary digits of r
            bits = (np.arange(start, start + size)[:, None] >> np.arange(n)) & 1
        else:
            bits = rng.integers(0, 2, (size, n), dtype=np.uint8)
        # sum(s * d) is sum(d) less twice the sum of the flipped (bit 1) d
        hits += int(np.count_nonzero(np.abs(total - 2 * (bits @ d)) >= bound))
    return float(d.mean()), (hits / draws if exact
                             else (1 + hits) / (1 + SIGN_FLIPS))


@dataclass(frozen=True)
class QueryRow:
    query_id: str
    ndcg: float
    awrf: float     # AWRF@k in the report's category
    product: float  # nDCG * AWRF


@dataclass
class RunReport:
    k: int
    category: str = ""  # every target's; "" when there are none
    rows: list[QueryRow] = field(default_factory=list)
    excluded: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # judged, not in the run
    # {"comparison_run": path, "metrics": {metric: {"mean_diff", "p"}}}
    significance: dict | None = None

    @property
    def aggregates(self) -> dict[str, float]:
        if not self.rows:
            return {}
        cat = self.category
        return {
            "ndcg": float(np.mean([r.ndcg for r in self.rows])),
            f"awrf.{cat}": float(np.mean([r.awrf for r in self.rows])),
            f"product.{cat}": float(np.mean([r.product for r in self.rows])),
        }


def evaluate_run(
    run: dict[str, RankedList],
    qrels: Qrels,
    targets: dict[str, FairnessTarget],
    store: CorpusStore,
    k: int,
) -> RunReport:
    """Per-query nDCG@k and AWRF@k in the target's category, aggregated by
    mean.

    Queries lacking a target are excluded from aggregates and listed in the
    report, and so are the judged queries the run lacks. Every target must
    be of one category, which the report's columns and means are of.
    """
    categories = sorted({t.category for t in targets.values()})
    if len(categories) > 1:
        raise UsageError("targets of more than one category: "
                         + ", ".join(categories))
    report = RunReport(k=k, category="".join(categories),
                       missing=sorted(set(qrels) - set(run)))
    for query_id in sorted(run):
        ranked = run[query_id]
        target = targets.get(query_id)
        if target is None:
            report.excluded.append(query_id)
            continue
        fairness = awrf(ranked, target, store, k)
        ndcg = ndcg_at_k(ranked, qrels, query_id, k)
        report.rows.append(QueryRow(query_id, ndcg, fairness,
                                    composite(ndcg, fairness)))
    return report


def compare_runs(report: RunReport, other: RunReport,
                 name: str) -> dict | None:
    """Paired sign-flip randomization tests of nDCG@k and AWRF@k between two
    reports of one experiment, over the queries both scored, as
    `RunReport.significance` against the run called `name`; None below 2
    shared queries."""
    theirs = {r.query_id: r for r in other.rows}
    pairs = [(r, theirs[r.query_id]) for r in report.rows
             if r.query_id in theirs]
    if len(pairs) < 2:
        return None
    metrics = {}
    for metric, attr in ((f"ndcg@{report.k}", "ndcg"),
                         (f"awrf@{report.k}.{report.category}", "awrf")):
        mean_diff, p = _sign_flip_test([getattr(a, attr) for a, _ in pairs],
                                       [getattr(b, attr) for _, b in pairs])
        metrics[metric] = {"mean_diff": mean_diff, "p": p}
    return {"comparison_run": name, "metrics": metrics}


def report_to_dict(report: RunReport) -> dict:
    cat = report.category
    out = {
        "k": report.k,
        "rows": [{"query_id": r.query_id, "ndcg": r.ndcg,
                  "awrf": {cat: r.awrf}, "product": {cat: r.product}}
                 for r in report.rows],
        "aggregates": report.aggregates,
        "excluded": report.excluded,
    }
    if report.missing:
        out["missing"] = report.missing
    if report.significance is not None:
        out["significance"] = report.significance
    return out


def report_to_text(report: RunReport) -> str:
    """Aligned plain-text table of per-query rows plus aggregates."""
    k, cat = report.k, report.category
    lines = [["query", f"nDCG@{k}"]]
    if report.rows:
        lines[0] += [f"AWRF@{k}[{cat}]", f"nDCG*AWRF[{cat}]"]
        agg = report.aggregates
        table = [(r.query_id, r.ndcg, r.awrf, r.product) for r in report.rows]
        table.append(("MEAN", agg["ndcg"], agg[f"awrf.{cat}"],
                      agg[f"product.{cat}"]))
        lines += [[name] + [f"{v:.4f}" for v in values]
                  for name, *values in table]
    widths = [max(len(row[i]) for row in lines) for i in range(len(lines[0]))]
    rendered = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in lines
    ]
    if report.excluded:
        rendered.append(f"excluded ({len(report.excluded)}): "
                        + ", ".join(report.excluded))
    if report.missing:
        rendered.append(f"missing ({len(report.missing)}): "
                        + ", ".join(report.missing))
    if report.significance is not None:
        rendered.append("paired randomization test vs "
                        f"{report.significance['comparison_run']}:")
        for name, test in report.significance["metrics"].items():
            rendered.append(f"  {name}: mean diff={test['mean_diff']:+.4f} "
                            f"p={test['p']:.3g}")
    return "\n".join(rendered) + "\n"
