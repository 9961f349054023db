"""Inverted index and BM25 retrieval.

Lucene-style idf: ln(1 + (N - df + 0.5) / (df + 0.5)). Always positive, so
any document containing at least one query term scores strictly above zero
and zero-score exclusion is unambiguous.

The index is columnar (CSR): term t's postings are rows indptr[t] to
indptr[t + 1] of `positions` (documents, as positions in the sorted doc
ids, ascending), `tf` and `gains` (each posting's BM25 gain), so a query's
scores are sums of gain slices. The counts are the persisted form; the gains
are made from them in one vectorised pass, on build and on load alike.

`retrieve` is MaxScore top-k evaluation (Turtle & Flood, 1995): it scores
only the postings of the query terms with the largest gains, adding the
next term's until no document outside them can reach the pool, so a common
term's postings are looked up, not all read.
"""
from __future__ import annotations

import json
import zipfile
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from math import log

import numpy as np

from .corpus import CorpusStore, corpus_digest, tokenize
from .errors import (
    CorpusLookupError,
    EmptyQueryError,
    IndexBuildError,
    UsageError,
)

K1 = 1.2  # BM25 parameters, the same for every index
B = 0.75

INDEX_FORMAT = "fairqr-index"
INDEX_VERSION = 2
_ARRAYS = ("indptr", "positions", "tf", "lengths")


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


@dataclass(eq=False)
class InvertedIndex:
    """CSR postings plus the document statistics BM25 needs.

    `doc_ids` are sorted; a posting's position indexes them and `lengths`.
    `digest` is `corpus_digest` of the corpus the index was built from.
    `avgdl`, `gains` and `max_gains` (each term's largest gain, 0.0 for a
    term without postings) are derived from the other fields, and
    `doc_terms` from the postings on first use. Every array is read-only, so
    concurrent retrieval is safe; `==` compares the persisted fields.
    """

    doc_ids: tuple[str, ...]
    vocabulary: dict[str, int]
    indptr: np.ndarray
    positions: np.ndarray
    tf: np.ndarray
    lengths: np.ndarray
    digest: str
    avgdl: float = field(init=False)
    gains: np.ndarray = field(init=False, repr=False)
    max_gains: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        """Every posting's gain, in the per-document formula's operand order
        (`idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / avgdl))`),
        so each is bit-identical to it. A posting's document has dl >= 1, so
        avgdl > 0 wherever it is read."""
        n = self.n_documents
        self.avgdl = int(self.lengths.sum()) / n
        df = np.diff(self.indptr)
        idf = {d: log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in set(df.tolist())}
        norm = self.lengths[self.positions] * B
        norm /= self.avgdl
        norm += 1.0 - B
        norm *= K1
        norm += self.tf
        gains = np.repeat(np.array([idf[d] for d in df.tolist()]), df)
        gains *= self.tf
        gains *= K1 + 1.0
        gains /= norm
        self.gains = gains
        self.max_gains = np.zeros(len(df))
        nonempty = df > 0  # reduceat needs strictly rising starts
        self.max_gains[nonempty] = np.maximum.reduceat(
            gains, self.indptr[:-1][nonempty])
        for name in _ARRAYS + ("gains", "max_gains"):
            getattr(self, name).flags.writeable = False  # shared by threads

    def __eq__(self, other):
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        return ((self.doc_ids, self.vocabulary, self.digest)
                == (other.doc_ids, other.vocabulary, other.digest)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in _ARRAYS))

    @property
    def n_documents(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def doc_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, terms): the postings transposed, document by document.

        Document d's distinct term ids, ascending, are
        terms[indptr[d]:indptr[d + 1]]. Derived on first use with one stable
        argsort of `positions` (each term's postings are in document order,
        so each document's terms come out in term order), in the smallest
        dtypes that fit: at most 2 bytes per posting below 65,536 terms, and
        4 per document. Only MMR reads it; it is not saved, and threads that
        race to derive it make equal views.
        """
        df = np.diff(self.indptr)
        term_ids = np.arange(len(df),
                             dtype=np.min_scalar_type(max(len(df) - 1, 0)))
        terms = np.repeat(term_ids, df)[np.argsort(self.positions,
                                                   kind="stable")]
        indptr = np.zeros(self.n_documents + 1,
                          np.int32 if len(terms) < 2**31 else np.int64)
        np.cumsum(np.bincount(self.positions, minlength=self.n_documents),
                  out=indptr[1:])
        indptr.flags.writeable = terms.flags.writeable = False
        return indptr, terms

    def doc_positions(self, doc_ids) -> np.ndarray:
        """Positions of doc_ids in `doc_ids`; CorpusLookupError for an id
        outside the index."""
        ids = self.doc_ids
        at = [bisect_left(ids, d) for d in doc_ids]
        for doc_id, i in zip(doc_ids, at):
            if i == len(ids) or ids[i] != doc_id:
                raise CorpusLookupError(f"document {doc_id!r} not in index")
        return np.array(at, np.int64)

    def _query_terms(self, query_tokens: list[str]):
        """(term id, ascending positions, gains) of each distinct query term
        with postings, in query order."""
        hits = []
        for term in dict.fromkeys(query_tokens):
            t = self.vocabulary.get(term)
            if t is not None:
                lo, hi = self.indptr[t], self.indptr[t + 1]
                if lo < hi:
                    hits.append((t, self.positions[lo:hi], self.gains[lo:hi]))
        return hits


def build_index(store: CorpusStore) -> InvertedIndex:
    if store.n_documents == 0:
        raise IndexBuildError("cannot index an empty corpus")
    doc_ids = tuple(sorted(store.documents))
    vocabulary, counts = _count_terms(store, doc_ids)
    return InvertedIndex(doc_ids, vocabulary, *counts, corpus_digest(store))


def _count_terms(store: CorpusStore, doc_ids: tuple[str, ...]):
    """(vocabulary, (indptr, positions, tf, lengths)) of the documents.

    Each document is tokenised once, in doc_ids order, into an int32 term id
    per token. A stable argsort by term keeps each term's tokens in document
    order, so each run of one document within a term is one posting. Sorting
    the int32 ids alone, and dropping each transient once used, keeps the
    peak memory under twice that of the finished index.
    """
    vocabulary: defaultdict[str, int] = defaultdict()
    vocabulary.default_factory = vocabulary.__len__  # a new term: the next id
    term_ids, lengths = array("i"), array("i")
    for doc_id in doc_ids:
        tokens = tokenize(store.documents[doc_id].text)
        lengths.append(len(tokens))
        term_ids.extend(map(vocabulary.__getitem__, tokens))
    lengths = np.frombuffer(lengths, np.intc)
    terms = np.frombuffer(term_ids, np.intc)
    term_starts = np.zeros(len(vocabulary) + 1, np.int64)  # in token order
    np.cumsum(np.bincount(terms, minlength=len(vocabulary)),
              out=term_starts[1:])
    order = np.argsort(terms, kind="stable")
    del terms, term_ids
    docs = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)[order]
    del order
    first = np.empty(len(docs) + 1, bool)  # starts a posting, or the end
    np.not_equal(docs[1:], docs[:-1], out=first[1:-1])
    first[term_starts] = True
    starts = np.flatnonzero(first)
    del first
    positions = docs[starts[:-1]]
    del docs
    tf = np.diff(starts)
    tf = tf.astype(np.min_scalar_type(int(tf.max(initial=1))))
    indptr = np.searchsorted(starts, term_starts)
    return dict(vocabulary), (indptr, positions, tf, lengths)


def _scores(hits, positions: np.ndarray) -> np.ndarray:
    """BM25 scores of the documents at `positions`.

    The only BM25 scoring: each document's gains from the query terms are
    summed in query order, starting from 0.0 (a term the document lacks
    adds 0.0), so a score does not depend on which documents are scored.
    """
    scores = np.zeros(len(positions))
    for _, term_positions, gains in hits:
        at = np.searchsorted(term_positions, positions)
        np.minimum(at, len(term_positions) - 1, out=at)
        scores += np.where(term_positions[at] == positions, gains[at], 0.0)
    return scores


def _top_candidates(
    index: InvertedIndex, hits, pool_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending positions and scores of a set of matching documents that
    holds the pool_size best and every document tied with the last of them.

    The candidates are the postings of the terms with the largest gains,
    taken one term at a time, largest first. A document outside them
    scores at most the other terms' largest gains summed in query order
    (float addition is monotone), so once that bound is strictly below the
    pool_size-th candidate score no outside document can enter the pool or
    tie at its cut.
    """
    if len(hits) == 1:
        return hits[0][1:]
    max_gains = index.max_gains
    by_gain = sorted(hits, key=lambda hit: -max_gains[hit[0]])
    positions = by_gain[0][1]
    for taken in range(1, len(hits)):
        scores = _scores(hits, positions)
        if len(positions) >= pool_size:
            rest = {t for t, _, _ in by_gain[taken:]}
            bound = 0.0
            for t, _, _ in hits:  # in query order, as a score is summed
                if t in rest:
                    bound += float(max_gains[t])
            cut = len(positions) - pool_size
            if bound < np.partition(scores, cut)[cut]:
                return positions, scores
        positions = np.union1d(positions, by_gain[taken][1])
    return positions, _scores(hits, positions)


def bm25_scores(
    index: InvertedIndex, query_tokens: list[str], doc_ids: list[str]
) -> list[float]:
    """BM25 score of each of doc_ids, in order; 0.0 when no term occurs."""
    at = index.doc_positions(doc_ids)
    return _scores(index._query_terms(query_tokens), at).tolist()


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
    hits = index._query_terms(tokens)
    if not hits:
        return RankedList(query_id, (), array("d"))
    pos, scores = _top_candidates(index, hits, pool_size)
    if len(scores) > pool_size:  # keep every document tied at the cut
        cut = len(scores) - pool_size
        keep = scores >= np.partition(scores, cut)[cut]
        pos, scores = pos[keep], scores[keep]
    order = np.lexsort((pos, -scores))[:pool_size]
    doc_ids = tuple(index.doc_ids[i] for i in pos[order].tolist())
    return RankedList(query_id, doc_ids, array("d", scores[order].tobytes()))


def save_index(index: InvertedIndex, path) -> None:
    """Write the index as a version-2 `.npz` archive at exactly `path`.

    The archive holds the counts (`indptr`, `positions`, `tf`, `lengths`) and
    `meta`, a UTF-8 JSON object with the format, version, k1, b (always K1
    and B), digest, doc ids and terms (in id order). The gains are not saved;
    `load_index` makes them from the counts as `build_index` does.
    """
    meta = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "k1": K1,
        "b": B,
        "digest": index.digest,
        "doc_ids": list(index.doc_ids),
        "terms": sorted(index.vocabulary, key=index.vocabulary.__getitem__),
    }
    encoded = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:  # np.savez(str) would append ".npz"
        np.savez(fh, meta=np.frombuffer(encoded, np.uint8),
                 **{name: getattr(index, name) for name in _ARRAYS})


def load_index(path) -> InvertedIndex:
    """Read an index that `save_index` wrote.

    Anything else, including an index of another version or other BM25
    parameters and an archive whose arrays disagree with each other, raises
    IndexBuildError.
    """
    with open(path, "rb") as fh:
        try:
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("not an .npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                meta = json.loads(npz["meta"].tobytes())
                arrays = [npz[name] for name in _ARRAYS]
            return _checked_index(meta, *arrays)
        except (ValueError, KeyError, EOFError, zipfile.BadZipFile,
                IndexBuildError) as exc:
            raise IndexBuildError(
                f"{path} is not a fairqr index of version {INDEX_VERSION} "
                f"({exc}); rerun `fairqr index`") from None


def _checked_index(meta, indptr, positions, tf, lengths) -> InvertedIndex:
    """The index of a loaded archive, or ValueError naming what is wrong."""
    if not (isinstance(meta, dict) and meta.get("format") == INDEX_FORMAT):
        raise ValueError("not an index file")
    if meta.get("version") != INDEX_VERSION:
        raise ValueError(f"version {meta.get('version')!r}")
    k1, b, digest = meta.get("k1"), meta.get("b"), meta.get("digest")
    doc_ids, terms = meta.get("doc_ids"), meta.get("terms")
    if (k1, b) != (K1, B):
        raise ValueError(f"BM25 parameters k1={k1!r}, b={b!r}, not {K1}, {B}")
    if not (isinstance(digest, str)
            and all(isinstance(v, list) and all(isinstance(s, str) for s in v)
                    for v in (doc_ids, terms))):
        raise ValueError("malformed meta")
    n = len(doc_ids)
    if n == 0 or any(x >= y for x, y in zip(doc_ids, doc_ids[1:])):
        raise ValueError("doc ids are not unique and sorted")
    vocabulary = {term: t for t, term in enumerate(terms)}
    if len(vocabulary) != len(terms):
        raise ValueError("a term is listed twice")
    if not all(a.ndim == 1 and a.dtype.kind in "iu" and np.can_cast(a, np.int64)
               for a in (indptr, positions, tf, lengths)):
        raise ValueError("arrays must be one-dimensional int64-castable integers")
    df = np.diff(indptr)
    if (len(indptr) != len(terms) + 1 or indptr[0] != 0 or (df < 0).any()
            or indptr[-1] != len(positions) or len(tf) != len(positions)):
        raise ValueError("indptr does not fit the terms and postings")
    if len(positions) and (positions.min() < 0 or positions.max() >= n):
        raise ValueError("a posting's document is out of range")
    if (tf < 1).any():
        raise ValueError("a posting's tf is below 1")
    if len(lengths) != n or not np.array_equal(
            np.bincount(positions, tf, minlength=n), lengths):
        raise ValueError("lengths disagree with the postings")
    row = np.repeat(np.arange(len(terms)), df)
    if ((row[1:] == row[:-1]) & (positions[1:] <= positions[:-1])).any():
        raise ValueError("a term lists a document twice or out of order")
    return InvertedIndex(tuple(doc_ids), vocabulary,
                         indptr, positions, tf, lengths, digest)
