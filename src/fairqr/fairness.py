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
    IndexBuildError,
    NoTargetError,
    UsageError,
)
from .index import InvertedIndex, RankedList

KL_SMOOTHING = 1e-6


@dataclass(frozen=True)
class ExposureDistribution:
    """Probability vector over one category's subgroups, in schema order."""

    category: str
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if not ((p >= 0).all() and abs(p.sum() - 1.0) <= 1e-9):  # NaN fails
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
) -> np.ndarray:
    """Exposure of the top-min(k, len) documents of a ranked list: a
    probability vector in the category's schema order.

    Each of the n documents weighs 1/n: the mean of their group vectors.
    missing_doc="unknown" counts an id outside the corpus as unlabeled
    instead of raising, for evaluating externally produced runs.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    top = ranked.top_ids(k)
    if not top:
        raise DegenerateExposureError(
            f"empty ranked list for query {ranked.query_id!r}"
        )
    return _mean(store.group_rows(category, top, missing_doc))


def _mean(rows: np.ndarray) -> np.ndarray:
    """Exposure of the documents of these membership rows: each of the n
    weighs 1/n."""
    return np.full(len(rows), 1.0 / len(rows)) @ rows


class ExposureMeter:
    """The refinement loop's measurement: the top-k exposure of one index's
    ranked lists and its KL divergence from one target, equal to
    `exposure` and `kl_divergence` of the same list, float for float.

    What every measurement shares is derived once: the checks of k and of
    the target's length, and the smoothed target. The index must be built
    from the store (equal digests, so equal sorted ids): an index position
    is then a store row, and a measurement looks up no id. An index of
    another corpus raises IndexBuildError, as `fairqr run` does.
    """

    def __init__(self, store: CorpusStore, index: InvertedIndex,
                 target: FairnessTarget, k: int):
        if k < 1:
            raise UsageError("k must be >= 1")
        if index.digest != store.digest:
            raise IndexBuildError("the index was not built from this corpus; "
                                  "rerun `fairqr index`")
        self.subgroups = store.schema(target.category).subgroups
        self.goal = target.target.probabilities
        if self.goal.shape != (len(self.subgroups),):
            raise UsageError(f"length mismatch: {(len(self.subgroups),)} vs "
                             f"{self.goal.shape}")
        self.smoothed_goal = _smoothed(self.goal, KL_SMOOTHING)
        self.matrix = store.groups[target.category]
        self.index, self.k = index, k

    def measure(self, ranked: RankedList) -> tuple[np.ndarray, float]:
        """(exposure at k, KL divergence from the target) of a ranked
        list; DegenerateExposureError when it is empty."""
        if not len(ranked):
            raise DegenerateExposureError(
                f"empty ranked list for query {ranked.query_id!r}")
        eps = _mean(self.matrix.take(
            self.index.positions_of(ranked)[:self.k], axis=0))
        return eps, _kl(_smoothed(eps, KL_SMOOTHING), self.smoothed_goal)

    def most_underrepresented(self, current: np.ndarray) -> str:
        """`most_underrepresented` of the exposure and the target."""
        return _neediest(current, self.goal, self.subgroups)


def target_from_qrels(
    qrels, store: CorpusStore, query_id: str, category: str
) -> FairnessTarget:
    """Empirical group distribution over the query's relevant documents."""
    judged = qrels.get(query_id, {}).items()
    relevant = [d for d, grade in judged if grade > 0 and d in store.rows]
    if not relevant:
        raise NoTargetError(f"no relevant documents for query {query_id!r}")
    rows = store.group_rows(category, relevant)
    dist = ExposureDistribution(category, rows.mean(axis=0))
    return FairnessTarget(query_id, category, dist, provenance="qrels-empirical")


def _vectors(p, q) -> tuple[np.ndarray, np.ndarray]:
    """p and q as float arrays of one shape."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise UsageError(f"length mismatch: {p.shape} vs {q.shape}")
    return p, q


def kl_divergence(p, q, smoothing: float = KL_SMOOTHING) -> float:
    """KL(p || q) in nats after additive smoothing and renormalization."""
    p, q = _vectors(p, q)
    return _kl(_smoothed(p, smoothing), _smoothed(q, smoothing))


def _smoothed(p: np.ndarray, smoothing: float) -> np.ndarray:
    """p plus smoothing, renormalised: a new array, as p may be the
    caller's."""
    ps = p + smoothing
    ps /= ps.sum()
    return ps


def _kl(ps: np.ndarray, qs: np.ndarray) -> float:
    """KL(ps || qs) in nats of smoothed vectors."""
    terms = np.log(ps / qs)
    terms *= ps
    return float(terms.sum())


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence, base 2, in [0, 1]; 0 log 0 taken as 0."""
    p, q = _vectors(p, q)
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
    return 1.0 - js_divergence(current, target.target.probabilities)


def most_underrepresented(current, target, subgroups) -> str:
    """Subgroup with the largest exposure deficit (target - current).

    Ties break by schema order.
    """
    cur, tgt = _vectors(current, target)
    if len(subgroups) != len(cur):
        raise UsageError("subgroup labels do not match distribution length")
    return _neediest(cur, tgt, subgroups)


def _neediest(cur: np.ndarray, tgt: np.ndarray, subgroups) -> str:
    """The subgroup of the largest deficit tgt - cur; the first on a tie."""
    return subgroups[int(np.argmax(tgt - cur))]
