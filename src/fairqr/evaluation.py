"""Relevance/fairness evaluation: nDCG@k, AWRF@k, products, paired t-test.

nDCG uses linear gain (grade / log2(rank + 1)) with the ideal ordering taken
over all judged relevant documents, truncated at k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusStore
from .errors import InputError, NoTargetError
from .fairness import FairnessTarget, awrf
from .index import RankedList
from .trec import Qrels


def ndcg_at_k(ranked: RankedList, qrels: Qrels, query_id: str, k: int) -> float:
    if k < 1:
        raise InputError("k must be >= 1")
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
    beta function. Zero-variance differences degenerate to (0, 1) when the
    mean is also zero, else (signed inf, 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InputError(f"length mismatch: {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise InputError("need at least 2 paired observations")
    d = a - b
    mean = d.mean()
    sd = d.std(ddof=1)
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    from scipy.special import betainc  # scipy is loaded only for this test

    t = mean / (sd / math.sqrt(n))
    df = n - 1
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return float(t), p


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
    targets: dict[str, dict[str, FairnessTarget]],
    store: CorpusStore,
    k: int,
) -> RunReport:
    """Per-query nDCG@k and AWRF@k per category, aggregated by mean.

    Queries lacking a target for any evaluated category are excluded from
    aggregates and listed in the report.
    """
    report = RunReport(k=k)
    for query_id in sorted(run):
        ranked = run[query_id]
        query_targets = targets.get(query_id, {})
        try:
            awrf_by_cat = {
                cat: awrf(ranked, tgt, store, k, missing_doc="unknown")
                for cat, tgt in sorted(query_targets.items())
            }
            if not awrf_by_cat:
                raise NoTargetError(f"no targets for query {query_id!r}")
        except NoTargetError:
            report.excluded.append(query_id)
            continue
        ndcg = ndcg_at_k(ranked, qrels, query_id, k)
        row = QueryRow(
            query_id=query_id,
            ndcg=ndcg,
            awrf=awrf_by_cat,
            product={c: composite(ndcg, a) for c, a in awrf_by_cat.items()},
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
