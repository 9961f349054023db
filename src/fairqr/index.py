"""Inverted index and BM25 retrieval: the package's only BM25 scoring.

Lucene-style idf: ln(1 + (N - df + 0.5) / (df + 0.5)). Always positive, so
any document containing at least one query term scores strictly above zero
and zero-score exclusion is unambiguous.

The index is columnar (CSR): term t's postings are rows indptr[t] to
indptr[t + 1] of `positions` (documents, as positions in the sorted doc
ids, ascending: an index built from a store has the store's rows as its
positions), `tf` and `gains` (each posting's BM25 gain), so a query's
scores are sums of gain slices. The counts are the persisted form; the gains
are made from them a bounded chunk at a time, on build and on load alike.
`retrieve` ranks the whole index; `InvertedIndex.scores` scores given
documents and `InvertedIndex.ranked` lists them, for the re-rankers.

On a query term's first use the index keeps an entry for it: views of its
positions and gains, and its largest gain, taken from those gains as a
Python float, so the MaxScore ordering and bound read no NumPy scalars. A
term in at least an eighth of the documents is looked up directly: its
entry also holds its gain at every document position (0.0 where it is
absent), a read-only vector of 8 bytes × documents that is never saved.
The common terms' postings add up to at most all postings, so at most 8 ×
the mean distinct terms per document qualify. A rarer term is found in its
postings by binary search.
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

from .corpus import CorpusStore, tokenize, tokenize_many
from .errors import (
    CorpusLookupError,
    EmptyQueryError,
    IndexBuildError,
    UsageError,
)

K1 = 1.2  # BM25 parameters, the same for every index
B = 0.75

INDEX_FORMAT = "fairqr-index"
INDEX_VERSION = 3
_ARRAYS = ("indptr", "positions", "tf")
_CHUNK = 1 << 18  # postings: 4 MB of bincount's copies


@dataclass(frozen=True, slots=True)
class ScoredDoc:
    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True, slots=True, eq=False)
class RankedList:
    """Ordered retrieval result for one query; ranks contiguous from 1.

    Held as each entry's position in `source`, a sorted tuple of doc ids,
    and a parallel array of their scores rather than one object per entry:
    a run keeps every query's lists, and a ScoredDoc with its boxed score
    costs several times the int and the double. A list an index made has
    that index's `doc_ids` as `source`, so the re-rankers read its positions
    as they are; a list from `make_ranked_list` has its own ids. `ids` is
    derived, and `==` compares the query id, ids and scores.
    """

    query_id: str
    positions: array  # of C ints, indexing `source`
    source: tuple[str, ...]
    scores: array  # of doubles

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(map(self.source.__getitem__, self.positions))

    def top_ids(self, k: int) -> tuple[str, ...]:
        """The ids of the first k entries; only those are looked up."""
        return tuple(map(self.source.__getitem__, self.positions[:k]))

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
        return RankedList(self.query_id, self.positions[:k], self.source,
                          self.scores[:k])

    def __eq__(self, other):
        if not isinstance(other, RankedList):
            return NotImplemented
        return ((self.query_id, self.ids, self.scores)
                == (other.query_id, other.ids, other.scores))

    def __len__(self) -> int:
        return len(self.positions)


def make_ranked_list(query_id: str, scored: list[tuple[str, float]]) -> RankedList:
    """Build a RankedList from (doc_id, score) pairs already in rank order;
    its `source` is its own ids."""
    ids = tuple(doc_id for doc_id, _ in scored)
    return RankedList(query_id, array("i", range(len(ids))), ids,
                      array("d", [score for _, score in scored]))


@dataclass(eq=False)
class InvertedIndex:
    """CSR postings plus the document statistics BM25 needs.

    `doc_ids` are sorted; a posting's position indexes them, and is the
    document's row in the store the index was built from, whose
    `CorpusStore.digest` is `digest`. `avgdl` and `gains` are derived from
    the other fields, and `doc_terms` and each query term's entry
    (`_query_terms`) from the postings on first use.
    Every array is read-only, so concurrent retrieval is safe; `==`
    compares the persisted fields.
    """

    doc_ids: tuple[str, ...]
    vocabulary: dict[str, int]
    indptr: np.ndarray
    positions: np.ndarray
    tf: np.ndarray
    digest: str
    avgdl: float = field(init=False)
    gains: np.ndarray = field(init=False, repr=False)
    _entries: dict[str, tuple] = field(init=False, repr=False,
                                       default_factory=dict)

    def __post_init__(self):
        """Every posting's gain, in the per-document formula's operand order
        (`idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / avgdl))`),
        so each is bit-identical to it. A document's length dl is its
        postings' tf summed; it is not kept. A posting's document has
        dl >= 1, so avgdl > 0 wherever it is read."""
        n = self.n_documents
        # The postings are read a bounded chunk at a time, so no full-size
        # temporary is made beside the gains: bincount copies its input as
        # intp and float64. A chunk holds at least n postings, so adding up
        # the chunks' counts costs less than counting them. float64 sums of
        # integer tf are exact below 2**53 tokens.
        chunk = max(n, _CHUNK)
        chunks = [slice(at, at + chunk)
                  for at in range(0, len(self.positions), chunk)]
        lengths = np.zeros(n)
        for part in chunks:
            lengths += np.bincount(self.positions[part], self.tf[part],
                                   minlength=n)
        self.avgdl = float(lengths.sum()) / n
        df = np.diff(self.indptr)
        idf = {d: log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in set(df.tolist())}
        gains = np.repeat(np.array([idf[d] for d in df.tolist()]), df)
        gains *= self.tf
        gains *= K1 + 1.0
        lengths *= B
        for part in chunks:
            norm = lengths[self.positions[part]]
            norm /= self.avgdl
            norm += 1.0 - B
            norm *= K1
            norm += self.tf[part]
            gains[part] /= norm
        self.gains = gains
        for name in _ARRAYS + ("gains",):
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
        ids, at = self.doc_ids, []
        for doc_id in doc_ids:
            i = bisect_left(ids, doc_id)
            if i == len(ids) or ids[i] != doc_id:
                raise CorpusLookupError(f"document {doc_id!r} not in index")
            at.append(i)
        return np.array(at, np.int64)

    def positions_of(self, ranked: RankedList) -> np.ndarray:
        """The positions of a ranked list's documents in `doc_ids`, in rank
        order: the list's own when this index made it (a view; do not
        write to it), else looked up by id, for a hand-made list, a run
        file's or another index's."""
        if ranked.source is self.doc_ids:
            return np.frombuffer(ranked.positions, np.intc)
        return self.doc_positions(ranked.ids)

    def ranked(self, query_id: str, positions: np.ndarray,
               scores: np.ndarray) -> RankedList:
        """The documents at `positions`, in that order, with their scores:
        a list that keeps the positions, which `positions_of` gives back."""
        return RankedList(query_id,
                          array("i", positions.astype(np.intc).tobytes()),
                          self.doc_ids, array("d", scores.tobytes()))

    def scores(self, query_tokens: list[str],
               positions: np.ndarray) -> np.ndarray:
        """BM25 score of the documents at `positions`, in order; 0.0 where
        no query term occurs."""
        return _scores(self._query_terms(query_tokens), positions)

    def _query_terms(self, terms):
        """(largest gain, ascending positions, gains, dense gains) of each
        distinct query term with postings, in first-occurrence order.

        A term's entry is derived on its first use and kept, for the terms
        of the vocabulary only, so arbitrary query text cannot grow it. Its
        largest gain is a Python float. A common term, one in at least an
        eighth of the documents, has dense gains: its gain at every document
        position, 0.0 where it is absent (8 bytes a document, at most 64 a
        posting of the term); a rarer term has None. Threads that race on a
        first use derive equal entries, and one is kept.
        """
        hits = []
        for term in dict.fromkeys(terms):
            hit = self._entries.get(term)
            if hit is None:
                t = self.vocabulary.get(term)
                if t is None:
                    continue
                hit = self._entries.setdefault(term, self._entry(t))
            if hit:  # () for a term without postings
                hits.append(hit)
        return hits

    def _entry(self, t: int) -> tuple:
        lo, hi = self.indptr[t:t + 2].tolist()
        if lo == hi:
            return ()
        positions, gains = self.positions[lo:hi], self.gains[lo:hi]
        dense = None
        if 8 * (hi - lo) >= self.n_documents:
            dense = np.zeros(self.n_documents)
            dense[positions] = gains
            dense.flags.writeable = False
        return (float(gains.max()), positions, gains, dense)


_BLOCK = 1024  # texts per tokenize_many call: few calls, a small block


def build_index(store: CorpusStore) -> InvertedIndex:
    """The index of the store's documents: its rows are the positions."""
    if store.n_documents == 0:
        raise IndexBuildError("cannot index an empty corpus")
    vocabulary, counts = _count_terms(store.texts)
    return InvertedIndex(tuple(store.rows), vocabulary, *counts, store.digest)


def _count_terms(texts: list[str]):
    """(vocabulary, (indptr, positions, tf)) of the documents.

    The texts are tokenised _BLOCK at a time into an int32 term id per token,
    where id 0 ends a document and a term's id is one more than its final
    one. Each token becomes the key id * documents + its document, in the
    narrowest unsigned dtype that holds them all; sorting the keys in place
    orders them by term, then document, so each run of one key is one
    posting, and the ends, keys below `documents`, come first. One array of
    keys, sorted with no index array beside it, keeps the peak memory under
    twice that of the finished index.
    """
    vocabulary: defaultdict[str, int] = defaultdict()
    vocabulary.default_factory = vocabulary.__len__  # a new term: the next id
    vocabulary["\0"]  # id 0: the end of a document
    term_ids = array("i")
    for at in range(0, len(texts), _BLOCK):
        term_ids.extend(map(vocabulary.__getitem__,
                            tokenize_many(texts[at:at + _BLOCK])))
    n_docs, n_terms = len(texts), len(vocabulary) - 1
    ids = np.frombuffer(term_ids, np.intc)
    spans = np.diff(np.flatnonzero(ids == 0), prepend=-1)  # tokens + end
    key_type = np.min_scalar_type((n_terms + 1) * n_docs)
    keys = ids.astype(key_type)
    del ids, term_ids
    keys *= n_docs
    keys += np.repeat(np.arange(n_docs, dtype=key_type), spans)
    del spans
    keys.sort()
    keys = keys[n_docs:]
    first = np.empty(len(keys) + 1, bool)  # starts a posting, or the end
    first[0] = first[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
    starts = np.flatnonzero(first)
    del first
    keys = keys[starts[:-1]]
    tf = np.diff(starts)
    del starts
    tf = tf.astype(np.min_scalar_type(int(tf.max(initial=1))))
    indptr = np.searchsorted(  # each term's first key, and the end
        keys, np.arange(1, n_terms + 2, dtype=key_type) * n_docs)
    keys %= n_docs
    positions = keys.astype(np.int32)
    del keys
    vocabulary = {term: t - 1 for term, t in vocabulary.items() if t}
    return vocabulary, (indptr, positions, tf)


def _scores(hits, positions: np.ndarray) -> np.ndarray:
    """BM25 scores of the documents at `positions`.

    The only BM25 scoring: each document's gains from the query terms are
    summed in query order, starting from 0.0 (a term the document lacks
    adds 0.0), so a score does not depend on which documents are scored.
    A term's gains are taken whole when `positions` is its postings array,
    read from its dense gains when it has them, else found by binary search.
    """
    scores = np.zeros(len(positions))
    for _, term_positions, gains, dense in hits:
        if term_positions is positions:  # the term's own postings
            scores += gains
        elif dense is not None:
            scores += dense.take(positions)
        else:
            at = np.searchsorted(term_positions, positions)
            np.minimum(at, len(term_positions) - 1, out=at)
            scores += np.where(term_positions[at] == positions, gains[at], 0.0)
    return scores


def query_terms(query: str) -> tuple[str, ...]:
    """The query's distinct tokens, in first-occurrence order: all that
    `retrieve` reads of it. EmptyQueryError when it has none."""
    terms = tuple(dict.fromkeys(tokenize(query)))
    if not terms:
        raise EmptyQueryError(f"query {query!r} tokenized to nothing")
    return terms


def retrieve(
    index: InvertedIndex, query: str, pool_size: int, query_id: str = ""
) -> RankedList:
    """Top pool_size documents by BM25 score: `retrieve_terms` of the
    query's `query_terms`."""
    return retrieve_terms(index, query_terms(query), pool_size, query_id)


def retrieve_terms(
    index: InvertedIndex, terms, pool_size: int, query_id: str = ""
) -> RankedList:
    """Top pool_size documents by the BM25 score of the distinct terms,
    summed in their order.

    Ties break by ascending doc_id; zero-score documents are excluded.

    MaxScore top-k evaluation (Turtle & Flood, 1995): the candidates are
    the postings of the query terms with the largest gains, taken one term
    at a time, largest first, so a common term's postings are looked up,
    not all read. A document outside them scores at most the other terms'
    largest gains summed in query order (float addition is monotone), so
    once that bound is strictly below the pool's cut, the pool_size-th
    candidate score, no outside document can enter the pool or tie at its
    cut. The cut is found once per candidate set, and the candidates
    scoring at least it are ranked.
    """
    if pool_size < 1:
        raise UsageError("pool_size must be >= 1")
    hits = index._query_terms(terms)
    if not hits:
        return make_ranked_list(query_id, [])
    by_gain = sorted(range(len(hits)), key=lambda i: -hits[i][0])
    pos = hits[by_gain[0]][1]
    for taken in range(1, len(hits) + 1):
        scores = _scores(hits, pos)
        at = len(pos) - pool_size
        if at >= 0:
            cut = np.partition(scores, at)[at]
            rest = by_gain[taken:]
            bound = 0.0  # summed in query order, as each score is
            for i, hit in enumerate(hits):
                if i in rest:
                    bound += hit[0]
            if bound < cut:  # always once every term is taken
                keep = scores >= cut  # every document tied at the cut
                pos, scores = pos[keep], scores[keep]
                break
        if taken < len(hits):
            pos = np.union1d(pos, hits[by_gain[taken]][1])
    order = np.lexsort((pos, -scores))[:pool_size]
    return index.ranked(query_id, pos[order], scores[order])


def save_index(index: InvertedIndex, path) -> None:
    """Write the index as a version-3 `.npz` archive at exactly `path`.

    The archive holds the counts (`indptr`, `positions`, `tf`) and `meta`, a
    UTF-8 JSON object with the format, version, k1, b (always K1 and B),
    digest, doc ids and terms (in id order). The lengths and gains are not
    saved; `load_index` derives them from the counts as `build_index` does.
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
        except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise IndexBuildError(
                f"{path} is not a fairqr index of version {INDEX_VERSION} "
                f"({exc}); rerun `fairqr index`") from None


def _checked_index(meta, indptr, positions, tf) -> InvertedIndex:
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
               for a in (indptr, positions, tf)):
        raise ValueError("arrays must be one-dimensional int64-castable integers")
    df = np.diff(indptr)
    if (len(indptr) != len(terms) + 1 or indptr[0] != 0 or (df < 0).any()
            or indptr[-1] != len(positions) or len(tf) != len(positions)):
        raise ValueError("indptr does not fit the terms and postings")
    if len(positions) and (positions.min() < 0 or positions.max() >= n):
        raise ValueError("a posting's document is out of range")
    if (tf < 1).any():
        raise ValueError("a posting's tf is below 1")
    row = np.repeat(np.arange(len(terms)), df)
    if ((row[1:] == row[:-1]) & (positions[1:] <= positions[:-1])).any():
        raise ValueError("a term lists a document twice or out of order")
    return InvertedIndex(tuple(doc_ids), vocabulary,
                         indptr, positions, tf, digest)
