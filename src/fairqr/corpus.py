"""Group-annotated corpus: schemas, documents, ingestion, tokenization.

A corpus is a set of documents, each carrying group-membership labels per
fairness category (e.g. gender, geography). Membership mass is fractional:
a document labeled with several subgroups splits one unit of mass equally
among them, so per-document group vectors always live on the simplex.
Documents missing a category's annotation fall back to the reserved
"Unknown" subgroup.
"""
from __future__ import annotations

import codecs
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    CorpusLookupError,
    FairQRError,
    IngestionError,
    LineError,
    SchemaError,
)

UNKNOWN = "Unknown"

# bytes.translate table: a-z and 0-9 map to themselves, every other byte
# (the "?" that stands in for a non-ASCII character too) to a space
_TOKEN_BYTES = bytes(c if c in b"0123456789abcdefghijklmnopqrstuvwxyz" else 32
                     for c in range(256))


# the same, but NUL, which ends each text in tokenize_many, maps to itself
_BLOCK_BYTES = b"\0" + _TOKEN_BYTES[1:]


def tokenize(text: str) -> list[str]:
    """Lowercase, then the maximal runs of ASCII a-z0-9: the tokens of
    `[a-z0-9]+` over `text.lower()`, in one C pass over the bytes."""
    return (text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES)
            .decode("ascii").split())


def tokenize_many(texts: list[str]) -> list[str]:
    """Each text's `tokenize` tokens followed by "\\0", in one pass of C
    calls over them all.

    Each text is followed by " \\0 ", so each NUL is a token of its own, and
    no run of a-z0-9 (nor the context that lowercasing reads) crosses it. A
    NUL inside a text, which `tokenize` treats as a space, is made a space.
    """
    block = " \0 ".join(texts + [""])
    if block.count("\0") != len(texts):
        texts = [text.replace("\0", " ") for text in texts]
        block = " \0 ".join(texts + [""])
    return (block.lower().encode("ascii", "replace").translate(_BLOCK_BYTES)
            .decode("ascii").split())


@dataclass(frozen=True)
class GroupSchema:
    """Ordered subgroup labels for one fairness category.

    The ordering is fixed at construction; every distribution over this
    category is a vector in this order. "Unknown" must appear exactly once.
    """

    category: str
    subgroups: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.subgroups)) != len(self.subgroups):
            raise SchemaError(
                f"duplicate subgroup labels in category {self.category!r}"
            )
        if list(self.subgroups).count(UNKNOWN) != 1:
            raise SchemaError(
                f"category {self.category!r} must contain {UNKNOWN!r} exactly once"
            )


@dataclass
class CorpusStore:
    """Immutable-after-ingestion document collection, in doc-id order.

    `ids` holds the document ids ascending, so row i of the store is
    `ids[i]`, and its position in an index built from the store, which
    shares the tuple as its `doc_ids`. `rows` maps each id to its row (it
    iterates in the order the records were read); `texts[row]` is that
    document's text. `groups` holds one read-only (documents + 1) x
    subgroups matrix per category: row i is the i-th id's membership
    vector, the last row (all mass on "Unknown") an id outside the corpus.
    `digest` is derived on first use. Safe for concurrent reads once
    built; ingestion is single-writer.
    """

    schemas: dict[str, GroupSchema]
    ids: tuple[str, ...] = ()
    rows: dict[str, int] = field(default_factory=dict)
    texts: list[str] = field(default_factory=list)
    groups: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_documents(self) -> int:
        return len(self.ids)

    @cached_property
    def digest(self) -> str:
        """sha256 of the ids and texts, in id order.

        The count, then the lengths of the ids, the ids, the lengths of the
        texts and the texts: the lengths frame every string, so two corpora
        that differ in any id or text digest differently, and two that list
        the same records in another order digest alike.
        """
        ids, n = self.ids, self.n_documents
        digest = hashlib.sha256(n.to_bytes(8, "little"))
        for strings in (ids, self.texts):
            digest.update(np.fromiter(map(len, strings), "<i8", n).tobytes())
            for at in range(0, n, 1024):  # a bounded copy at a time
                chunk = "".join(strings[at:at + 1024])
                digest.update(chunk.encode("utf-8", "surrogatepass"))
        return digest.hexdigest()

    def schema(self, category: str) -> GroupSchema:
        try:
            return self.schemas[category]
        except KeyError:
            raise CorpusLookupError(f"unknown category {category!r}") from None

    def group_rows(self, category: str, doc_ids) -> np.ndarray:
        """The documents' membership rows in the category, in order; an id
        outside the corpus gets the last row, all mass on "Unknown"."""
        self.schema(category)  # CorpusLookupError for an unknown category
        return self.groups[category][[self.rows.get(d, -1) for d in doc_ids]]


def ingest_corpus(
    records: Iterable[dict], schemas: Iterable[GroupSchema]
) -> CorpusStore:
    """Build a CorpusStore from parsed JSONL records.

    A category's labels are a list of strings; an absent, null or empty one
    falls back to ["Unknown"]. A label outside the schema or a duplicate id
    is an IngestionError at its record. The records are read in their
    order, so an error names the first record at fault; the documents are
    then put in id order.
    """
    schemas = {s.category: s for s in schemas}
    rows, texts = {}, []  # each id's ingest row; the texts in that order
    unknown = [UNKNOWN]
    # per category: each label's column, and the (ingest row, column) of
    # every label read
    marks = tuple((c, {label: col for col, label in enumerate(s.subgroups)},
                   [], []) for c, s in schemas.items())
    for row, record in enumerate(records):  # an error is at row + 1
        if not isinstance(record, dict):
            raise IngestionError("record is not an object", row + 1)
        doc_id = record.get("id")
        text = record.get("text")
        if not isinstance(doc_id, str) or not doc_id:
            raise IngestionError("missing or invalid 'id'", row + 1)
        if not isinstance(text, str):
            raise IngestionError("missing or invalid 'text'", row + 1)
        if rows.setdefault(doc_id, row) != row:
            raise IngestionError(f"duplicate document id {doc_id!r}", row + 1)
        raw_groups = record.get("groups", {})
        if not isinstance(raw_groups, dict):
            raise IngestionError("'groups' must be an object", row + 1)
        for category, column, label_rows, cols in marks:
            labels = raw_groups.get(category)
            if not (isinstance(labels, list) and labels):
                if labels is not None and labels != []:
                    raise IngestionError(
                        f"labels of category {category!r} must be a list of "
                        f"strings (document {doc_id!r})", row + 1)
                labels = unknown
            try:
                for label in labels:
                    cols.append(column[label])
                    label_rows.append(row)
            except (KeyError, TypeError):  # TypeError: a list or object label
                subgroups = schemas[category].subgroups
                label = next(x for x in labels if x not in subgroups)
                raise IngestionError(
                    f"label {label!r} is not a subgroup of category "
                    f"{category!r} (document {doc_id!r})", row + 1) from None
        texts.append(text)
    n = len(texts)
    ids = tuple(sorted(rows))  # the only sort: row i of the store is ids[i]
    order = list(map(rows.__getitem__, ids))  # each id's ingest row
    # now each id's store row: the values, 0 to n - 1 in insertion order,
    # are reused, so the rows make no new int
    rows.update(zip(ids, list(rows.values())))
    # each ingest row's store row: the values, still in ingest order
    new_row = np.fromiter(rows.values(), np.intp, n)
    store = CorpusStore(schemas, ids, rows,
                        list(map(texts.__getitem__, order)))
    for category, column, label_rows, cols in marks:
        matrix = store.groups[category] = np.zeros((n + 1, len(column)))
        matrix[new_row[label_rows], cols] = 1.0  # a label twice counts once
        matrix[n, column[UNKNOWN]] = 1.0  # the row of an id outside
        matrix /= matrix.sum(axis=1, keepdims=True)
        matrix.flags.writeable = False  # shared by concurrent readers
    return store


def is_string_lists(data) -> bool:
    """Whether data is a JSON object whose every value is a list of strings."""
    return isinstance(data, dict) and all(
        isinstance(v, list) and all(isinstance(s, str) for s in v)
        for v in data.values())


@contextmanager
def open_utf8(path):
    """The file at `path`, open as UTF-8 text: the one place that names the
    file a bad input came from.

    A FairQRError raised while the file is open is raised again, with its
    class, as `<path> line N: ...`, or as `<path>: ...` when no line is
    known. A json.JSONDecodeError becomes a LineError at its line, its
    column kept. So do a leading byte-order mark, which would otherwise
    become part of the first id or key (line 1), and a byte that is not
    UTF-8. That byte's line is found only then, by decoding the file's
    bytes again, so a file that decodes costs nothing more.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            if fh.buffer.peek(3).startswith(codecs.BOM_UTF8):
                raise LineError("starts with a UTF-8 byte-order mark; save it "
                                "without one", 1)
            try:
                yield fh
            except json.JSONDecodeError as exc:
                raise LineError(f"invalid JSON: {exc}", exc.lineno) from None
            except UnicodeDecodeError:
                with open(path, "rb") as raw:
                    data = raw.read()
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    line = data.count(b"\n", 0, exc.start) + 1
                    raise LineError(f"byte 0x{data[exc.start]:02x} is not "
                                    f"utf-8 ({exc.reason})", line) from None
                raise
        except FairQRError as exc:
            at_line = isinstance(exc, LineError) and exc.line is not None
            exc.args = (f"{path}{' ' if at_line else ': '}{exc}",)
            raise


_scan_once = json.JSONDecoder().scan_once  # the C scanner that json.loads runs


def read_jsonl(path) -> Iterator[dict]:
    """Yield parsed objects from a JSONL file, with line numbers on errors;
    an IngestionError thrown in at a record is raised at its file line."""
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()  # a superset of JSON's whitespace
            if not line:
                continue
            try:  # StopIteration: no value starts at 0
                record, end = _scan_once(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = None
            if end != len(line):  # json.loads words the error (e.g. a BOM)
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise IngestionError(f"invalid JSON: {exc}",
                                         line_no) from None
            try:
                yield record
            except IngestionError as exc:
                raise IngestionError(exc.detail, line_no) from None


def load_schemas(path) -> list[GroupSchema]:
    """Load category schemas from a JSON file.

    Format: {"<category>": ["<subgroup>", ...], ...}
    """
    with open_utf8(path) as fh:  # a SchemaError names the file
        data = json.load(fh)
        if not is_string_lists(data):
            raise SchemaError("schema file must map categories to lists of "
                              "subgroup labels")
        return [GroupSchema(cat, tuple(subs)) for cat, subs in data.items()]


def load_corpus(corpus_path, schema_path) -> CorpusStore:
    """Read schema + JSONL corpus from disk. A record's IngestionError names
    its file line, not its position, which blank lines set apart."""
    schemas = load_schemas(schema_path)
    records = read_jsonl(corpus_path)
    try:
        return ingest_corpus(records, schemas)
    except IngestionError as exc:
        # read_jsonl raises it again at the line of the record it yielded
        # last, the one at fault; an error of its own comes back as it was
        records.throw(exc)
        raise
