"""Relevance-preserving re-ranking and the MMR diversification baseline."""
from __future__ import annotations

import numpy as np

from .corpus import CorpusStore, tokenize
from .errors import UsageError
from .index import InvertedIndex, RankedList, bm25_scores, make_ranked_list


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


def _jaccard_matrix(store: CorpusStore, pool: list[str]) -> np.ndarray:
    """Token-set Jaccard of every pool pair; 1.0 for two empty documents.

    The 0/1 term counts are exact in float64, so quotients round as int / int.
    """
    vocab: dict[str, int] = {}
    rows, cols = [], []
    for row, doc_id in enumerate(pool):
        for term in tokenize(store.document(doc_id).text):
            rows.append(row)
            cols.append(vocab.setdefault(term, len(vocab)))
    terms = np.zeros((len(pool), len(vocab)))
    terms[rows, cols] = 1.0
    inter = terms @ terms.T
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

    Marginal score is lam * rel(d) - (1 - lam) * max token-set Jaccard
    similarity to the already-selected set, where rel is the candidate's BM25
    score against the original query, min-max normalized over the pool. Ties
    break by doc_id; the first pick is the most relevant document.
    """
    if not (0.0 <= lam <= 1.0):
        raise UsageError("lambda must be in [0, 1]")
    if k < 1:
        raise UsageError("k must be >= 1")
    pool = sorted(candidates.ids)
    if not pool:
        return make_ranked_list(candidates.query_id, [])
    raw = np.array(bm25_scores(index, tokenize(original_query), pool))
    lo, hi = raw.min(), raw.max()
    rel = (raw - lo) / (hi - lo) if hi > lo else np.ones(len(pool))
    sim = _jaccard_matrix(store, pool)

    selected: list[tuple[str, float]] = []
    taken = np.zeros(len(pool), dtype=bool)
    max_sim = np.zeros(len(pool))
    while len(selected) < min(k, len(pool)):
        score = lam * rel - (1.0 - lam) * max_sim if selected else rel
        # argmax takes the first maximum: pool is in doc_id order
        best = int(np.argmax(np.where(taken, -np.inf, score)))
        selected.append((pool[best], score[best]))
        taken[best] = True
        max_sim = np.maximum(max_sim, sim[best])
    return make_ranked_list(candidates.query_id, selected)
