"""Relevance/fairness evaluation: nDCG@k, AWRF@k, products, paired t-test.

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
    judged = qrels.judgments(query_id)
    ideal = sorted((g for g in judged.values() if g > 0), reverse=True)
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal[:k], start=1))
    if idcg == 0.0:
        return 0.0
    dcg = sum(
        judged.get(doc_id, 0) / math.log2(rank + 1)
        for rank, doc_id in enumerate(ranked.ids[:k], start=1)
    )
    return dcg / idcg


def composite(ndcg: float, awrf_value: float) -> float:
    """Product of nDCG and AWRF, the balance metric."""
    return ndcg * awrf_value


def paired_t_test(a, b) -> tuple[float, float]:
    """Paired two-tailed t-test; returns (t, p).

    t = mean(d) / (sd(d) / sqrt(n)) with sample sd; p from the Student-t
    distribution with n-1 degrees of freedom via the regularized incomplete
    beta function. Equal differences (or a spread too small for its square
    to be a float) degenerate to (0, 1) when the mean is zero, else
    (signed inf, 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise UsageError(f"length mismatch: {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise UsageError("need at least 2 paired observations")
    d = a - b
    mean = d.mean()
    sd = d.std(ddof=1)
    if np.ptp(d) == 0.0 or sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = float(mean / (sd / math.sqrt(n)))
    df = n - 1
    return t, _betainc(df / 2.0, 0.5, df / (df + t * t))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by its continued fraction
    (Numerical Recipes, 3rd ed., 6.4), taken on the side where it converges
    fast. Relative error about 1e-12, growing with a: 5e-10 at a = 5e5."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return _beta_fraction(a, b, x)
    return 1.0 - _beta_fraction(b, a, 1.0 - x)


def _beta_fraction(a: float, b: float, x: float) -> float:
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300  # keeps the modified Lentz recurrences off zero
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):  # converges in O(sqrt(max(a, b))) steps
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return front * h


@dataclass(frozen=True)
class QueryRow:
    query_id: str
    ndcg: float
    awrf: dict[str, float]       # category -> AWRF@k
    product: dict[str, float]    # category -> nDCG * AWRF


@dataclass
class Significance:
    comparison_run: str
    metrics: dict[str, tuple[float, float]]  # metric name -> (t, p)


@dataclass
class RunReport:
    k: int
    rows: list[QueryRow] = field(default_factory=list)
    excluded: list[str] = field(default_factory=list)
    significance: Significance | None = None

    @property
    def aggregates(self) -> dict[str, float]:
        out: dict[str, float] = {}
        if not self.rows:
            return out
        out["ndcg"] = float(np.mean([r.ndcg for r in self.rows]))
        for cat in self.rows[0].awrf:
            out[f"awrf.{cat}"] = float(np.mean([r.awrf[cat] for r in self.rows]))
            out[f"product.{cat}"] = float(
                np.mean([r.product[cat] for r in self.rows])
            )
        return out


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
    report. Every target must be of one category, which the report's columns
    and means are of.
    """
    categories = sorted({t.category for t in targets.values()})
    if len(categories) > 1:
        raise UsageError("targets of more than one category: "
                         + ", ".join(categories))
    report = RunReport(k=k)
    for query_id in sorted(run):
        ranked = run[query_id]
        target = targets.get(query_id)
        if target is None:
            report.excluded.append(query_id)
            continue
        fairness = awrf(ranked, target, store, k, missing_doc="unknown")
        ndcg = ndcg_at_k(ranked, qrels, query_id, k)
        row = QueryRow(
            query_id=query_id,
            ndcg=ndcg,
            awrf={target.category: fairness},
            product={target.category: composite(ndcg, fairness)},
        )
        report.rows.append(row)
    return report


def report_to_dict(report: RunReport) -> dict:
    out = {
        "k": report.k,
        "rows": [
            {
                "query_id": r.query_id,
                "ndcg": r.ndcg,
                "awrf": r.awrf,
                "product": r.product,
            }
            for r in report.rows
        ],
        "aggregates": report.aggregates,
        "excluded": report.excluded,
    }
    if report.significance is not None:
        out["significance"] = {
            "comparison_run": report.significance.comparison_run,
            "metrics": {
                name: {"t": t, "p": p}
                for name, (t, p) in report.significance.metrics.items()
            },
        }
    return out


def report_to_text(report: RunReport) -> str:
    """Aligned plain-text table of per-query rows plus aggregates."""
    cats = sorted(report.rows[0].awrf) if report.rows else []
    header = ["query", f"nDCG@{report.k}"]
    for cat in cats:
        header += [f"AWRF@{report.k}[{cat}]", f"nDCG*AWRF[{cat}]"]
    lines = [header]
    for row in report.rows:
        cells = [row.query_id, f"{row.ndcg:.4f}"]
        for cat in cats:
            cells += [f"{row.awrf[cat]:.4f}", f"{row.product[cat]:.4f}"]
        lines.append(cells)
    agg = report.aggregates
    if agg:
        cells = ["MEAN", f"{agg['ndcg']:.4f}"]
        for cat in cats:
            cells += [f"{agg[f'awrf.{cat}']:.4f}", f"{agg[f'product.{cat}']:.4f}"]
        lines.append(cells)
    widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
    rendered = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in lines
    ]
    if report.excluded:
        rendered.append(f"excluded ({len(report.excluded)}): "
                        + ", ".join(report.excluded))
    if report.significance is not None:
        rendered.append(f"paired t-test vs {report.significance.comparison_run}:")
        for name, (t, p) in report.significance.metrics.items():
            rendered.append(f"  {name}: t={t:.4f} p={p:.4f}")
    return "\n".join(rendered) + "\n"
