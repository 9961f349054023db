"""Per-document Lucene BM25, written apart from `fairqr.index`'s scoring core.

Tests compare `retrieve`, `bm25_scores` and the re-rankers against these
functions. They read only the index's postings and document statistics.
"""
from math import log


def reference_score(index, query_tokens: list[str], doc_id: str) -> float:
    """Sum of per-term BM25 contributions over distinct query terms."""
    dl = index.doc_lengths[doc_id]
    score = 0.0
    for term in dict.fromkeys(query_tokens):
        tf = index.postings.get(term, {}).get(doc_id, 0)
        if tf == 0:
            continue
        norm = index.k1 * (1.0 - index.b + index.b * dl / index.avgdl)
        df = len(index.postings[term])
        idf = log(1.0 + (index.n_documents - df + 0.5) / (df + 0.5))
        score += idf * tf * (index.k1 + 1.0) / (tf + norm)
    return score


def reference_ranking(index, query_tokens: list[str], depth: int):
    """Top `depth` (doc_id, score) pairs with positive score; ties by doc id."""
    scored = [(d, reference_score(index, query_tokens, d))
              for d in sorted(index.doc_lengths)]
    scored = [(d, s) for d, s in scored if s > 0.0]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:depth]
