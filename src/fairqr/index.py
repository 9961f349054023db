"""Inverted index and BM25 retrieval.

Lucene-style idf: ln(1 + (N - df + 0.5) / (df + 0.5)). Always positive, so
any document containing at least one query term scores strictly above zero
and zero-score exclusion is unambiguous.

The postings dicts are the persisted form. From them the index derives, per
term, an array of document positions (documents in doc_id order) and an
array of that term's BM25 gains, so a query's scores are sums of gains.
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from math import log

import numpy as np

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


@dataclass(frozen=True, slots=True)
class ScoredDoc:
    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True, slots=True)
class RankedList:
    """Ordered retrieval result for one query; ranks contiguous from 1.

    Held as the doc ids and a parallel array of their scores rather than one
    object per entry: a run keeps every query's lists, and a ScoredDoc with
    its boxed score costs several times the id reference and the double.
    """

    query_id: str
    ids: tuple[str, ...]
    scores: array  # of doubles

    @property
    def entries(self) -> tuple[ScoredDoc, ...]:
        return tuple(
            ScoredDoc(doc_id, score, rank)
            for rank, (doc_id, score) in enumerate(zip(self.ids, self.scores),
                                                   start=1)
        )

    def doc_ids(self) -> list[str]:
        return list(self.ids)

    def top(self, k: int) -> RankedList:
        """The first k entries, as a list of their own."""
        return RankedList(self.query_id, self.ids[:k], self.scores[:k])

    def __len__(self) -> int:
        return len(self.ids)


def make_ranked_list(query_id: str, scored: list[tuple[str, float]]) -> RankedList:
    """Build a RankedList from (doc_id, score) pairs already in rank order."""
    return RankedList(query_id, tuple(doc_id for doc_id, _ in scored),
                      array("d", [score for _, score in scored]))


@dataclass
class InvertedIndex:
    """Term postings plus the document statistics BM25 needs.

    Immutable after construction; concurrent retrieval is safe. The sorted
    doc ids, their positions and the per-term gain arrays are derived from
    the other fields.
    """

    k1: float
    b: float
    postings: dict[str, dict[str, int]] = field(default_factory=dict)
    doc_lengths: dict[str, int] = field(default_factory=dict)
    avgdl: float = 0.0
    _doc_ids: list[str] = field(init=False, compare=False, repr=False)
    _position: dict[str, int] = field(init=False, compare=False, repr=False)
    _gains: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        self._doc_ids = sorted(self.doc_lengths)
        self._position = dict(zip(self._doc_ids, range(len(self._doc_ids))))
        self._gains = {}

    @property
    def n_documents(self) -> int:
        return len(self.doc_lengths)

    def _term_gains(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Ascending positions of a term's documents and their BM25 gains.

        Computed on a term's first use and kept, not at build: reading every
        posting costs about as much as building the index. Threads that race
        on a first use compute equal arrays and keep one. The operand order is
        the per-document formula's, so the gains are bit-identical to it.
        A posting's document has dl >= 1, so avgdl > 0 here.
        """
        cached = self._gains.get(term)
        docs = self.postings.get(term)
        if cached is not None or docs is None:
            return cached
        df = len(docs)
        pos = np.fromiter(map(self._position.__getitem__, docs), np.int32, df)
        tf = np.fromiter(docs.values(), np.float64, df)
        dl = np.fromiter(map(self.doc_lengths.__getitem__, docs), np.float64, df)
        if (pos[1:] < pos[:-1]).any():
            order = np.argsort(pos)
            pos, tf, dl = pos[order], tf[order], dl[order]
        k1, b, n = self.k1, self.b, self.n_documents
        idf = log(1.0 + (n - df + 0.5) / (df + 0.5))
        norm = k1 * (1.0 - b + b * dl / self.avgdl)
        gains = idf * tf * (k1 + 1.0) / (tf + norm)
        pos.flags.writeable = gains.flags.writeable = False  # shared cache
        return self._gains.setdefault(term, (pos, gains))


def build_index(
    store: CorpusStore, k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> InvertedIndex:
    if store.n_documents == 0:
        raise IndexBuildError("cannot index an empty corpus")
    if k1 <= 0 or not (0.0 <= b <= 1.0):
        raise IndexBuildError(f"invalid BM25 parameters k1={k1}, b={b}")
    postings: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    for doc_id in sorted(store.documents):
        tokens = tokenize(store.documents[doc_id].text)
        doc_lengths[doc_id] = len(tokens)
        for term in tokens:
            bucket = postings.setdefault(term, {})
            bucket[doc_id] = bucket.get(doc_id, 0) + 1
    avgdl = sum(doc_lengths.values()) / len(doc_lengths)
    return InvertedIndex(k1, b, postings, doc_lengths, avgdl)


def _bm25(
    index: InvertedIndex, query_tokens: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending positions and BM25 scores of the documents matching a query.

    The only BM25 scoring: each document's gains from the distinct query
    terms are summed in query order, starting from 0.0.
    """
    hits = [h for h in map(index._term_gains, dict.fromkeys(query_tokens))
            if h is not None]
    if not hits:
        return np.empty(0, np.int32), np.empty(0)
    if len(hits) == 1:
        return hits[0]
    # Each term's positions ascend, so a stable sort merges the runs and
    # keeps a document's gains in term order; bincount adds them in order.
    pos = np.concatenate([p for p, _ in hits])
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    first = np.concatenate(([True], pos[1:] != pos[:-1]))
    gains = np.concatenate([g for _, g in hits])[order]
    return pos[first], np.bincount(np.cumsum(first) - 1, gains)


def bm25_scores(
    index: InvertedIndex, query_tokens: list[str], doc_ids: list[str]
) -> list[float]:
    """BM25 score of each of doc_ids, in order; 0.0 when no term occurs."""
    try:
        wanted = np.array([index._position[d] for d in doc_ids], np.int64)
    except KeyError as exc:
        raise CorpusLookupError(f"document {exc.args[0]!r} not in index") from None
    pos, scores = _bm25(index, query_tokens)
    at = np.searchsorted(pos, wanted)
    pos, scores = np.append(pos, -1), np.append(scores, 0.0)  # a miss lands here
    return np.where(pos[at] == wanted, scores[at], 0.0).tolist()


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
    pos, scores = _bm25(index, tokens)
    if len(scores) > pool_size:  # keep every document tied at the cut
        cut = len(scores) - pool_size
        keep = scores >= np.partition(scores, cut)[cut]
        pos, scores = pos[keep], scores[keep]
    order = np.lexsort((pos, -scores))[:pool_size]
    doc_ids = tuple(index._doc_ids[i] for i in pos[order].tolist())
    return RankedList(query_id, doc_ids, array("d", scores[order].tobytes()))


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
