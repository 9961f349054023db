"""Relevance-preserving re-ranking and the MMR diversification baseline."""
from __future__ import annotations

import numpy as np

from .corpus import CorpusStore, tokenize
from .errors import UsageError
from .index import (
    InvertedIndex,
    RankedList,
    _scores,
    bm25_scores,
    make_ranked_list,
)


def semantic_rerank(
    candidates: RankedList, original_query: str, index: InvertedIndex,
    query_id: str = "",
) -> RankedList:
    """Reorder a retrieved set by BM25 against the original query.

    Output is a permutation of the input set; ties break by doc_id. An empty
    set yields an empty list.
    """
    scores = bm25_scores(index, tokenize(original_query), candidates.ids)
    scored = sorted(zip(candidates.ids, scores), key=lambda kv: (-kv[1], kv[0]))
    return make_ranked_list(query_id, scored)


def _jaccard_matrix(index: InvertedIndex, at: np.ndarray) -> np.ndarray:
    """Term-set Jaccard of every pair of the documents at index positions
    `at`; 1.0 for two empty documents.

    The term sets are slices of the index's document-major view. The 0/1
    term counts are exact in float64, so quotients round as int / int.
    """
    indptr, terms = index.doc_terms
    starts = indptr[at]
    counts = indptr[at + 1] - starts
    ends = np.cumsum(counts)  # each document's slice, laid end to end
    slots =np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
    vocab, cols = np.unique(terms[slots], return_inverse=True)
    matrix = np.zeros((len(at), len(vocab)))
    matrix[np.repeat(np.arange(len(at)), counts), cols] = 1.0
    inter = matrix @ matrix.T
    size = inter.diagonal()
    union = size[:, None] + size[None, :] - inter
    return np.divide(inter, union, out=np.ones_like(inter), where=union > 0)


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
    """
    if not (0.0 <= lam <= 1.0):
        raise UsageError("lambda must be in [0, 1]")
    if k < 1:
        raise UsageError("k must be >= 1")
    pool = sorted(candidates.ids)
    if not pool:
        return make_ranked_list(candidates.query_id, [])
    at = index.doc_positions(pool)
    raw = _scores(index._query_terms(tokenize(original_query)), at)
    lo, hi = raw.min(), raw.max()
    rel = (raw - lo) / (hi - lo) if hi > lo else np.ones(len(pool))
    sim = _jaccard_matrix(index, at)

    selected: list[tuple[str, float]] = []
    lam_rel = lam * rel
    taken = np.zeros(len(pool), dtype=bool)
    max_sim = np.zeros(len(pool))
    score = rel.copy()  # the first pick's
    for _ in range(min(k, len(pool))):
        # argmax takes the first maximum: pool is in doc_id order
        best = int(np.argmax(score))
        selected.append((pool[best], float(score[best])))
        taken[best] = True
        np.maximum(max_sim, sim[best], out=max_sim)
        np.multiply(1.0 - lam, max_sim, out=score)
        np.subtract(lam_rel, score, out=score)
        score[taken] = -np.inf
    return make_ranked_list(candidates.query_id, selected)
