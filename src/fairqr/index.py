"""Inverted index and BM25 retrieval.

Lucene-style idf: ln(1 + (N - df + 0.5) / (df + 0.5)). Always positive, so
any document containing at least one query term scores strictly above zero
and zero-score exclusion is unambiguous.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import log

from .corpus import CorpusStore, tokenize
from .errors import (
    CorpusLookupError,
    EmptyQueryError,
    IndexBuildError,
    UsageError,
)

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

INDEX_FORMAT = "fairqr-index"
INDEX_VERSION = 1


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedList:
    """Ordered retrieval result for one query; ranks contiguous from 1."""

    query_id: str
    entries: tuple[ScoredDoc, ...]

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def make_ranked_list(query_id: str, scored: list[tuple[str, float]]) -> RankedList:
    """Build a RankedList from (doc_id, score) pairs already in rank order."""
    entries = tuple(
        ScoredDoc(doc_id, score, rank)
        for rank, (doc_id, score) in enumerate(scored, start=1)
    )
    return RankedList(query_id=query_id, entries=entries)


@dataclass
class InvertedIndex:
    """Term postings plus the document statistics BM25 needs.

    Immutable after build; concurrent retrieval is safe.
    """

    k1: float
    b: float
    postings: dict[str, dict[str, int]] = field(default_factory=dict)
    doc_lengths: dict[str, int] = field(default_factory=dict)
    avgdl: float = 0.0

    @property
    def n_documents(self) -> int:
        return len(self.doc_lengths)


def build_index(
    store: CorpusStore, k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> InvertedIndex:
    if store.n_documents == 0:
        raise IndexBuildError("cannot index an empty corpus")
    if k1 <= 0 or not (0.0 <= b <= 1.0):
        raise IndexBuildError(f"invalid BM25 parameters k1={k1}, b={b}")
    index = InvertedIndex(k1=k1, b=b)
    for doc_id in sorted(store.documents):
        tokens = tokenize(store.documents[doc_id].text)
        index.doc_lengths[doc_id] = len(tokens)
        for term in tokens:
            bucket = index.postings.setdefault(term, {})
            bucket[doc_id] = bucket.get(doc_id, 0) + 1
    index.avgdl = sum(index.doc_lengths.values()) / len(index.doc_lengths)
    return index


def _idf(index: InvertedIndex, term: str) -> float:
    df = len(index.postings.get(term, {}))
    if df == 0:
        return 0.0
    n = index.n_documents
    return log(1.0 + (n - df + 0.5) / (df + 0.5))


def _bm25(index: InvertedIndex, query_tokens: list[str]) -> dict[str, float]:
    """BM25 score of every document that contains a query term.

    The only BM25 code: distinct query terms are summed in query order.
    """
    k1, b, avgdl = index.k1, index.b, index.avgdl
    scores: dict[str, float] = {}
    for term in dict.fromkeys(query_tokens):
        idf = _idf(index, term)
        for doc_id, tf in index.postings.get(term, {}).items():
            norm = k1 * (1.0 - b + b * index.doc_lengths[doc_id] / avgdl)
            gain = idf * tf * (k1 + 1.0) / (tf + norm)
            scores[doc_id] = scores.get(doc_id, 0.0) + gain
    return scores


def bm25_scores(
    index: InvertedIndex, query_tokens: list[str], doc_ids: list[str]
) -> list[float]:
    """BM25 score of each of doc_ids, in order; 0.0 when no term occurs."""
    for doc_id in doc_ids:
        if doc_id not in index.doc_lengths:
            raise CorpusLookupError(f"document {doc_id!r} not in index")
    scores = _bm25(index, query_tokens)
    return [scores.get(doc_id, 0.0) for doc_id in doc_ids]


def bm25_score(index: InvertedIndex, query_tokens: list[str], doc_id: str) -> float:
    """Sum of per-term BM25 contributions over distinct query terms."""
    return bm25_scores(index, query_tokens, [doc_id])[0]


def retrieve(
    index: InvertedIndex, query: str, pool_size: int, query_id: str = ""
) -> RankedList:
    """Top pool_size documents by BM25 score.

    Ties break by ascending doc_id; zero-score documents are excluded.
    """
    if pool_size < 1:
        raise UsageError("pool_size must be >= 1")
    tokens = tokenize(query)
    if not tokens:
        raise EmptyQueryError(f"query {query!r} tokenized to nothing")
    ordered = sorted(_bm25(index, tokens).items(), key=lambda kv: (-kv[1], kv[0]))
    return make_ranked_list(query_id, ordered[:pool_size])


def save_index(index: InvertedIndex, path) -> None:
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "k1": index.k1,
        "b": index.b,
        "avgdl": index.avgdl,
        "doc_lengths": index.doc_lengths,
        "postings": index.postings,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_index(path) -> InvertedIndex:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != INDEX_FORMAT:
        raise IndexBuildError(f"not an index file: {path}")
    if payload.get("version") != INDEX_VERSION:
        raise IndexBuildError(
            f"unsupported index version {payload.get('version')!r}"
        )
    return InvertedIndex(
        k1=payload["k1"],
        b=payload["b"],
        postings=payload["postings"],
        doc_lengths=payload["doc_lengths"],
        avgdl=payload["avgdl"],
    )
