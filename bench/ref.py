"""The benchmark's own reference computations, written apart from fairqr.

BM25 with Lucene idf, top-k exposure, KL and JS divergence, AWRF, nDCG and
the greedy MMR order, plus the tie-tolerant comparisons the workloads use to
check the program's outputs. `selftest.py` checks these on hand-worked values.
"""
from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

K1, B = 1.2, 0.75
KL_SMOOTHING = 1e-6
SCORE_TOL = 1e-9   # relative, for BM25 scores
DIV_TOL = 1e-9     # absolute, for probabilities and divergences

_TOKEN = re.compile(r"[a-z0-9]+")


def tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


class RefIndex:
    """BM25 over a list of (doc_id, text); doc ids are kept in sorted order."""

    def __init__(self, docs: list[tuple[str, str]]):
        docs = sorted(docs)
        self.doc_ids = [d for d, _ in docs]
        self.position = {d: i for i, d in enumerate(self.doc_ids)}
        self.texts = [t for _, t in docs]
        postings: dict[str, list[tuple[int, int]]] = {}
        lengths = np.empty(len(docs))
        for i, (_, text) in enumerate(docs):
            toks = tokens(text)
            lengths[i] = len(toks)
            for term, tf in Counter(toks).items():
                postings.setdefault(term, []).append((i, tf))
        self.postings = {
            t: (np.array([i for i, _ in p]), np.array([f for _, f in p], float))
            for t, p in postings.items()
        }
        self.n = len(docs)
        self.norm = K1 * (1.0 - B + B * lengths / lengths.mean())
        self._token_sets: dict[int, frozenset] = {}

    def idf(self, term: str) -> float:
        df = len(self.postings[term][0]) if term in self.postings else 0
        if df == 0:
            return 0.0
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def scores(self, query: str) -> np.ndarray:
        """Dense BM25 score vector of the query over all documents."""
        out = np.zeros(self.n)
        for term in dict.fromkeys(tokens(query)):
            if term not in self.postings:
                continue
            idx, tf = self.postings[term]
            out[idx] += self.idf(term) * tf * (K1 + 1.0) / (tf + self.norm[idx])
        return out

    def top(self, query: str, depth: int) -> list[str]:
        """Top `depth` positive-score documents; ties by ascending doc id."""
        s = self.scores(query)
        pos = np.flatnonzero(s > 0)
        order = pos[np.lexsort((pos, -s[pos]))][:depth]
        return [self.doc_ids[i] for i in order]

    def score_of(self, scores: np.ndarray, doc_id: str) -> float:
        return float(scores[self.position[doc_id]])

    def token_set(self, doc_id: str) -> frozenset:
        i = self.position[doc_id]
        if i not in self._token_sets:
            self._token_sets[i] = frozenset(tokens(self.texts[i]))
        return self._token_sets[i]


def group_vector(labels, subgroups) -> np.ndarray:
    vec = np.zeros(len(subgroups))
    labels = labels or ["Unknown"]
    for label in labels:
        vec[subgroups.index(label)] = 1.0 / len(labels)
    return vec


def exposure(doc_ids, labels: dict, subgroups, k: int) -> np.ndarray:
    """Uniform-weight mean group vector of the top k (unknown ids -> Unknown)."""
    top = list(doc_ids)[:k]
    return np.mean([group_vector(labels.get(d, ["Unknown"]), subgroups)
                    for d in top], axis=0)


def target(relevant, labels: dict, subgroups) -> np.ndarray:
    return np.mean([group_vector(labels[d], subgroups) for d in relevant
                    if d in labels], axis=0)


def kl(p, q, smoothing: float = KL_SMOOTHING) -> float:
    ps = (np.asarray(p) + smoothing) / (np.asarray(p) + smoothing).sum()
    qs = (np.asarray(q) + smoothing) / (np.asarray(q) + smoothing).sum()
    return float(np.sum(ps * np.log(ps / qs)))


def js(p, q) -> float:
    p, q = np.asarray(p, float), np.asarray(q, float)
    m = (p + q) / 2.0
    total = 0.0
    for a in (p, q):
        nz = a > 0
        total += 0.5 * float(np.sum(a[nz] * np.log2(a[nz] / m[nz])))
    return total


def awrf(doc_ids, labels, subgroups, tgt, k: int) -> float:
    return 1.0 - js(exposure(doc_ids, labels, subgroups, k), tgt)


def ndcg(doc_ids, judged: dict[str, int], k: int) -> float:
    ideal = sorted((g for g in judged.values() if g > 0), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    if idcg == 0:
        return 0.0
    dcg = sum(judged.get(d, 0) / math.log2(i + 2)
              for i, d in enumerate(list(doc_ids)[:k]))
    return dcg / idcg


def most_underrepresented(current, tgt, subgroups) -> str:
    return subgroups[int(np.argmax(np.asarray(tgt) - np.asarray(current)))]


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def close(a: float, b: float, tol: float = SCORE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_top(got: list[tuple[str, float]], ref: RefIndex, scores: np.ndarray,
              depth: int, what: str) -> str | None:
    """A BM25 top list against reference scores, allowing reordered ties.

    Returns an error message, or None when the list is the reference top
    `depth` up to documents whose scores tie within SCORE_TOL.
    """
    n_pos = int((scores > 0).sum())
    if len(got) != min(depth, n_pos):
        return f"{what}: {len(got)} documents, expected {min(depth, n_pos)}"
    ids = [d for d, _ in got]
    if len(set(ids)) != len(ids):
        return f"{what}: repeated documents"
    ref_scores = []
    for doc_id, score in got:
        if doc_id not in ref.position:
            return f"{what}: unknown document {doc_id}"
        r = ref.score_of(scores, doc_id)
        if not close(score, r):
            return f"{what}: {doc_id} scored {score!r}, reference {r!r}"
        ref_scores.append(r)
    for a, b in zip(ref_scores, ref_scores[1:]):
        if b > a and not close(a, b):
            return f"{what}: not ordered by score"
    if len(got) < n_pos:
        outside = scores.copy()
        outside[[ref.position[d] for d in ids]] = 0.0
        best_out = float(outside.max())
        if best_out > ref_scores[-1] and not close(best_out, ref_scores[-1]):
            return f"{what}: a document scoring {best_out!r} was left out"
    return None


def check_order(got_ids: list[str], ref: RefIndex, scores: np.ndarray,
                what: str) -> str | None:
    """The ids are ordered by non-increasing reference score, up to ties."""
    values = [ref.score_of(scores, d) for d in got_ids]
    for a, b in zip(values, values[1:]):
        if b > a and not close(a, b):
            return f"{what}: not ordered by the original query's BM25"
    return None


def mmr_check(got: list[tuple[str, float]], pool: list[str], ref: RefIndex,
              scores: np.ndarray, lam: float, k: int) -> str | None:
    """Follow the greedy MMR order; the program's pick at each step must be
    the reference best, or tie with it within SCORE_TOL."""
    raw = {d: ref.score_of(scores, d) for d in pool}
    lo, hi = min(raw.values()), max(raw.values())
    rel = {d: (s - lo) / (hi - lo) if hi > lo else 1.0 for d, s in raw.items()}
    if len(got) != min(k, len(pool)):
        return f"mmr: {len(got)} documents, expected {min(k, len(pool))}"
    remaining = set(pool)
    max_sim = {d: 0.0 for d in pool}
    for step, (doc_id, score) in enumerate(got):
        if doc_id not in remaining:
            return f"mmr: step {step} picked {doc_id}, not a remaining pool document"
        if step == 0:
            marginal = rel
        else:
            marginal = {d: lam * rel[d] - (1.0 - lam) * max_sim[d]
                        for d in remaining}
        best = max(marginal[d] for d in remaining)
        if not close(marginal[doc_id], best):
            return f"mmr: step {step} picked {doc_id} at {marginal[doc_id]!r}, best {best!r}"
        if not close(score, marginal[doc_id]):
            return f"mmr: step {step} score {score!r}, reference {marginal[doc_id]!r}"
        remaining.discard(doc_id)
        picked = ref.token_set(doc_id)
        for d in remaining:
            max_sim[d] = max(max_sim[d], jaccard(ref.token_set(d), picked))
    return None
