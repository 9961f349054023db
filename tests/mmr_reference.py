"""Pairwise MMR, written apart from `fairqr.rerank`'s similarity matrix.

Tests compare `mmr_rerank` against `exhaustive_mmr`, which recomputes every
similarity from two token sets at every step and the relevance from the
per-document BM25 of `bm25_reference`.
"""
from bm25_reference import reference_score
from fairqr.corpus import tokenize


def jaccard(store, d1: str, d2: str) -> float:
    """Jaccard similarity of the two documents' token sets; 1.0 if both empty."""
    t1 = set(tokenize(store.texts[store.rows[d1]]))
    t2 = set(tokenize(store.texts[store.rows[d2]]))
    if not t1 and not t2:
        return 1.0
    return len(t1 & t2) / len(t1 | t2)


def exhaustive_mmr(pool: list[str], query: str, store, lam: float, k: int) -> list[tuple[str, float]]:
    """Greedy MMR picks as (doc_id, marginal score); ties break by doc_id."""
    tokens = tokenize(query)
    raw = {d: reference_score(store, tokens, d) for d in pool}
    lo, hi = min(raw.values()), max(raw.values())
    rel = {d: (s - lo) / (hi - lo) if hi > lo else 1.0 for d, s in raw.items()}
    chosen: list[tuple[str, float]] = []
    while len(chosen) < min(k, len(pool)):
        picked = [d for d, _ in chosen]
        options = []
        for d in sorted(pool):
            if d in picked:
                continue
            if not picked:
                score = rel[d]
            else:
                score = lam * rel[d] - (1.0 - lam) * max(
                    jaccard(store, d, s) for s in picked)
            options.append((-score, d))
        options.sort()
        chosen.append((options[0][1], -options[0][0]))
    return chosen
