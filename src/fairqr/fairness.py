"""Exposure distributions, divergences, AWRF, and target construction.

Two divergences coexist by design: the refinement loop is controlled by KL
divergence (nats, additive smoothing since exposure vectors contain zeros),
while AWRF = 1 - JS divergence (base 2, bounded in [0, 1], no smoothing).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CorpusStore
from .errors import (
    DegenerateExposureError,
    NoTargetError,
    UsageError,
)
from .index import RankedList

KL_SMOOTHING = 1e-6


@dataclass(frozen=True)
class ExposureDistribution:
    """Probability vector over one category's subgroups, in schema order."""

    category: str
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"not a probability vector: {p}")


@dataclass(frozen=True)
class FairnessTarget:
    query_id: str
    category: str
    target: ExposureDistribution
    provenance: str  # qrels-empirical | explicit


def exposure(
    ranked: RankedList,
    store: CorpusStore,
    category: str,
    k: int,
    missing_doc: str = "error",
) -> ExposureDistribution:
    """Exposure of the top-min(k, len) documents of a ranked list.

    Each of the n documents weighs 1/n: the mean of their group vectors.
    missing_doc="unknown" counts an id outside the corpus as unlabeled
    instead of raising, for evaluating externally produced runs.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    top = ranked.ids[:k]
    if not top:
        raise DegenerateExposureError(
            f"empty ranked list for query {ranked.query_id!r}"
        )
    rows = store.group_rows(category, top, missing_doc)
    weights = np.full(len(top), 1.0 / len(top))
    return ExposureDistribution(category, weights @ rows)


def target_from_qrels(
    qrels, store: CorpusStore, query_id: str, category: str
) -> FairnessTarget:
    """Empirical group distribution over the query's relevant documents."""
    judged = qrels.judgments(query_id).items()
    relevant = [d for d, grade in judged if grade > 0 and d in store.documents]
    if not relevant:
        raise NoTargetError(f"no relevant documents for query {query_id!r}")
    rows = store.group_rows(category, relevant)
    dist = ExposureDistribution(category, rows.mean(axis=0))
    return FairnessTarget(query_id, category, dist, provenance="qrels-empirical")


def _as_vector(dist) -> np.ndarray:
    if isinstance(dist, ExposureDistribution):
        return dist.probabilities
    return np.asarray(dist, dtype=float)


def _check_lengths(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape != q.shape:
        raise UsageError(f"length mismatch: {p.shape} vs {q.shape}")


def kl_divergence(p, q, smoothing: float = KL_SMOOTHING) -> float:
    """KL(p || q) in nats after additive smoothing and renormalization."""
    p, q = _as_vector(p), _as_vector(q)
    _check_lengths(p, q)
    ps = (p + smoothing) / (p + smoothing).sum()
    qs = (q + smoothing) / (q + smoothing).sum()
    return float(np.sum(ps * np.log(ps / qs)))


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence, base 2, in [0, 1]; 0 log 0 taken as 0."""
    p, q = _as_vector(p), _as_vector(q)
    _check_lengths(p, q)
    m = 0.5 * (p + q)

    def _kl2(a: np.ndarray, b: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    return 0.5 * _kl2(p, m) + 0.5 * _kl2(q, m)


def awrf(
    ranked: RankedList,
    target: FairnessTarget,
    store: CorpusStore,
    k: int,
    missing_doc: str = "error",
) -> float:
    """1 - JS(system exposure, target exposure); 1 is perfectly fair."""
    current = exposure(ranked, store, target.category, k, missing_doc)
    return 1.0 - js_divergence(current, target.target)


def most_underrepresented(current, target, subgroups) -> str:
    """Subgroup with the largest exposure deficit (target - current).

    Ties break by schema order.
    """
    cur, tgt = _as_vector(current), _as_vector(target)
    _check_lengths(cur, tgt)
    if len(subgroups) != len(cur):
        raise UsageError("subgroup labels do not match distribution length")
    deficits = tgt - cur
    return subgroups[int(np.argmax(deficits))]
