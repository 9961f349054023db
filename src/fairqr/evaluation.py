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
    awrf: float     # AWRF@k in the report's category
    product: float  # nDCG * AWRF


@dataclass
class RunReport:
    k: int
    category: str = ""  # every target's; "" when there are none
    rows: list[QueryRow] = field(default_factory=list)
    excluded: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # judged, not in the run
    # {"comparison_run": path, "metrics": {metric: {"t": t, "p": p}}}
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
        fairness = awrf(ranked, target, store, k, missing_doc="unknown")
        ndcg = ndcg_at_k(ranked, qrels, query_id, k)
        report.rows.append(QueryRow(query_id, ndcg, fairness,
                                    composite(ndcg, fairness)))
    return report


def compare_runs(report: RunReport, other: RunReport,
                 name: str) -> dict | None:
    """Paired t-tests of nDCG@k and AWRF@k between two reports of one
    experiment, over the queries both scored, as `RunReport.significance`
    against the run called `name`; None below 2 shared queries."""
    theirs = {r.query_id: r for r in other.rows}
    pairs = [(r, theirs[r.query_id]) for r in report.rows
             if r.query_id in theirs]
    if len(pairs) < 2:
        return None
    metrics = {}
    for metric, attr in ((f"ndcg@{report.k}", "ndcg"),
                         (f"awrf@{report.k}.{report.category}", "awrf")):
        t, p = paired_t_test([getattr(a, attr) for a, _ in pairs],
                             [getattr(b, attr) for _, b in pairs])
        metrics[metric] = {"t": t, "p": p}
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
        rendered.append("paired t-test vs "
                        f"{report.significance['comparison_run']}:")
        for name, test in report.significance["metrics"].items():
            rendered.append(f"  {name}: t={test['t']:.4f} p={test['p']:.4f}")
    return "\n".join(rendered) + "\n"
