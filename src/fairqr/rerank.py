"""Relevance-preserving re-ranking and the MMR diversification baseline."""
from __future__ import annotations

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
    doc_ids = candidates.doc_ids()
    scores = bm25_scores(index, tokenize(original_query), doc_ids)
    scored = sorted(zip(doc_ids, scores), key=lambda kv: (-kv[1], kv[0]))
    return make_ranked_list(query_id, scored)


def doc_similarity(store: CorpusStore, d1: str, d2: str) -> float:
    """Jaccard similarity of the two documents' token sets."""
    t1 = set(tokenize(store.document(d1).text))
    t2 = set(tokenize(store.document(d2).text))
    if not t1 and not t2:
        return 1.0
    union = len(t1 | t2)
    return len(t1 & t2) / union if union else 0.0


def mmr_rerank(
    candidates: RankedList,
    original_query: str,
    store: CorpusStore,
    index: InvertedIndex,
    lam: float,
    k: int,
) -> RankedList:
    """Greedy maximal-marginal-relevance selection of k documents.

    Marginal score is lam * rel(d) - (1 - lam) * max similarity to the
    already-selected set, where rel is the candidate's BM25 score against
    the original query, min-max normalized over the pool. Ties break by
    doc_id; the first pick is the most relevant document.
    """
    if not (0.0 <= lam <= 1.0):
        raise UsageError("lambda must be in [0, 1]")
    if k < 1:
        raise UsageError("k must be >= 1")
    pool = candidates.doc_ids()
    if not pool:
        return make_ranked_list(candidates.query_id, [])
    raw = dict(zip(pool, bm25_scores(index, tokenize(original_query), pool)))
    lo, hi = min(raw.values()), max(raw.values())
    if hi > lo:
        rel = {d: (s - lo) / (hi - lo) for d, s in raw.items()}
    else:
        rel = {d: 1.0 for d in raw}

    selected: list[tuple[str, float]] = []
    remaining = sorted(pool)
    max_sim = {d: 0.0 for d in pool}
    while remaining and len(selected) < k:
        best_doc, best_score = None, None
        for d in remaining:
            if not selected:
                # first pick is the most relevant document regardless of lam
                score = rel[d]
            else:
                score = lam * rel[d] - (1.0 - lam) * max_sim[d]
            if best_score is None or score > best_score:
                best_doc, best_score = d, score
        selected.append((best_doc, best_score))
        remaining.remove(best_doc)
        for d in remaining:
            sim = doc_similarity(store, d, best_doc)
            if sim > max_sim[d]:
                max_sim[d] = sim
    return make_ranked_list(candidates.query_id, selected)
