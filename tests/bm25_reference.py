"""Per-document Lucene BM25, written apart from `fairqr.index`.

Tests compare `retrieve`, `InvertedIndex.scores` and the re-rankers against
these functions. They count terms from the corpus texts themselves, so they
share nothing with the index but `tokenize`.
"""
from collections import Counter
from math import log

from fairqr.corpus import tokenize


def reference_score(store, query_tokens: list[str], doc_id: str,
                    k1: float = 1.2, b: float = 0.75) -> float:
    """Sum of per-term BM25 contributions over distinct query terms."""
    counts = {d: Counter(tokenize(store.texts[row]))
              for d, row in store.rows.items()}
    avgdl = sum(sum(c.values()) for c in counts.values()) / len(counts)
    dl = sum(counts[doc_id].values())
    score = 0.0
    for term in dict.fromkeys(query_tokens):
        tf = counts[doc_id][term]
        if tf == 0:
            continue
        norm = k1 * (1.0 - b + b * dl / avgdl)
        df = sum(1 for c in counts.values() if c[term])
        idf = log(1.0 + (len(counts) - df + 0.5) / (df + 0.5))
        score += idf * tf * (k1 + 1.0) / (tf + norm)
    return score


def reference_ranking(store, query_tokens: list[str], depth: int):
    """Top `depth` (doc_id, score) pairs with positive score; ties by doc id."""
    scored = [(d, reference_score(store, query_tokens, d))
              for d in sorted(store.rows)]
    scored = [(d, s) for d, s in scored if s > 0.0]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:depth]


def reference_postings(store):
    """(vocabulary, indptr, positions, tf) of `build_index`, built one
    document at a time: terms numbered by first use in doc id order, each
    term's postings in that order."""
    vocabulary, postings = {}, []
    for position, doc_id in enumerate(sorted(store.rows)):
        counts = Counter(tokenize(store.texts[store.rows[doc_id]]))
        for term, tf in counts.items():
            if term not in vocabulary:
                vocabulary[term] = len(vocabulary)
                postings.append([])
            postings[vocabulary[term]].append((position, tf))
    indptr = [0]
    for term_postings in postings:
        indptr.append(indptr[-1] + len(term_postings))
    return (vocabulary, indptr,
            [position for p in postings for position, _ in p],
            [tf for p in postings for _, tf in p])
