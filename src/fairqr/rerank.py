"""Relevance-preserving re-ranking and the MMR diversification baseline.

Both re-rankers work on the index positions of a list's documents
(`InvertedIndex.positions_of`): the positions ascend with the doc ids, so a
tie broken by position is broken by doc id. They score and list those
documents through the index (`InvertedIndex.scores` and `ranked`), so BM25
stays in `fairqr.index`.
"""
from __future__ import annotations

import numpy as np

from .corpus import CorpusStore, tokenize
from .errors import UsageError
from .index import InvertedIndex, RankedList, make_ranked_list


def semantic_rerank(
    candidates: RankedList, original_query: str, index: InvertedIndex,
    query_id: str = "",
) -> RankedList:
    """Reorder a retrieved set by BM25 against the original query.

    Output is a permutation of the input set, ordered by descending score
    with ties broken by doc_id, as one lexsort of the scores and positions.
    An empty set yields an empty list.
    """
    at = index.positions_of(candidates)
    scores = index.scores(tokenize(original_query), at)
    order = np.lexsort((at, -scores))
    return index.ranked(query_id, at[order], scores[order])


def _penalties(index: InvertedIndex, at: np.ndarray, rel: np.ndarray,
               lam: float) -> np.ndarray:
    """lam * rel[j] - (1 - lam) * sim(i, j) for every pair of the documents
    at index positions `at`, where sim is term-set Jaccard, 1.0 for two
    empty documents.

    The term sets are slices of the index's document-major view, so each
    set size is its slice's length. Only a term that two or more of the
    documents hold can be in an intersection, so those shared terms alone
    are the columns of a 0/1 matrix B, and B @ B.T gives the intersections
    off the diagonal; the diagonal is set to the sizes. The counts are exact
    in float64, so quotients round as int / int. The union, quotient and
    both scalings are made in the intersection buffer, each operation with
    the operands and order of the pairwise formula.
    """
    indptr, terms = index.doc_terms
    starts = indptr[at]
    counts = indptr[at + 1] - starts
    ends = np.cumsum(counts)  # each document's slice, laid end to end
    slots = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
    pool_terms = terms[slots]
    held = np.bincount(pool_terms)  # how many of the documents hold each
    shared = np.flatnonzero(held > 1)
    rows = np.repeat(np.arange(len(at)), counts)
    kept = held[pool_terms] > 1
    matrix = np.zeros((len(at), len(shared)))
    matrix[rows[kept], np.searchsorted(shared, pool_terms[kept])] = 1.0
    size = counts.astype(float)
    inter = matrix @ matrix.T
    np.fill_diagonal(inter, size)
    union = np.add.outer(size, size)
    union -= inter
    if not size.all():  # two empty documents: 1.0, as 1 / 1
        empty = np.ix_(size == 0, size == 0)
        inter[empty] = union[empty] = 1.0
    inter /= union
    inter *= 1.0 - lam
    return np.subtract(lam * rel, inter, out=inter)


def mmr_rerank(
    candidates: RankedList,
    original_query: str,
    store: CorpusStore,
    index: InvertedIndex,
    lam: float,
    k: int,
) -> RankedList:
    """Greedy maximal-marginal-relevance selection of k documents.

    Marginal score is lam * rel(d) - (1 - lam) * max term-set Jaccard
    similarity to the already-selected set, where rel is the candidate's BM25
    score against the original query, min-max normalized over the pool. Ties
    break by doc_id; the first pick is the most relevant document. The term
    sets are the index's (`InvertedIndex.doc_terms`), the same as tokenising
    the texts; `store` is not read.

    The penalty lam * rel(d) - (1 - lam) * sim(s, d) of every pair is made
    once, by `_penalties`, from the terms two or more pool documents share.
    It falls as sim rises, rounding included, so a candidate's marginal
    score is the minimum of its penalties from the selected documents, and
    each pick lowers the scores to the pick's row.
    """
    if not (0.0 <= lam <= 1.0):
        raise UsageError("lambda must be in [0, 1]")
    if k < 1:
        raise UsageError("k must be >= 1")
    at = np.sort(index.positions_of(candidates))  # doc_id order
    if not len(at):
        return make_ranked_list(candidates.query_id, [])
    raw = index.scores(tokenize(original_query), at)
    lo, hi = raw.min(), raw.max()
    rel = (raw - lo) / (hi - lo) if hi > lo else np.ones(len(at))
    penalty = _penalties(index, at, rel, lam)
    n = min(k, len(at))
    picks, picked = np.empty(n, np.intp), np.empty(n)
    score = rel.copy()  # the first pick's
    for step in range(n):
        # argmax takes the first maximum: the pool is in doc_id order
        best = int(score.argmax())
        picks[step], picked[step] = best, score[best]
        np.minimum(score, penalty[best], out=score)
        score[best] = -np.inf
    return index.ranked(candidates.query_id, at[picks], picked)
