"""Group-annotated corpus: schemas, documents, ingestion, tokenization.

A corpus is a set of documents, each carrying group-membership labels per
fairness category (e.g. gender, geography). Membership mass is fractional:
a document labeled with several subgroups splits one unit of mass equally
among them, so per-document group vectors always live on the simplex.
Documents missing a category's annotation fall back to the reserved
"Unknown" subgroup.
"""
from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    CorpusLookupError,
    FairQRError,
    IngestionError,
    SchemaError,
    UsageError,
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

    def index(self, subgroup: str) -> int:
        try:
            return self.subgroups.index(subgroup)
        except ValueError:
            raise SchemaError(
                f"subgroup {subgroup!r} not in category {self.category!r}"
            ) from None


@dataclass
class CorpusStore:
    """Immutable-after-ingestion document collection.

    `rows` maps each document id to its row, in ingest order; `texts[row]`
    is that document's text. `groups` holds one read-only (documents + 1) x
    subgroups matrix per category: row i is the i-th ingested document's
    membership vector, the last row (all mass on "Unknown") an id outside
    the corpus. `rows_at` keeps, per category and index, the rows aligned
    to the index's doc ids. Safe for concurrent reads once built; ingestion
    is single-writer.
    """

    schemas: dict[str, GroupSchema]
    rows: dict[str, int] = field(default_factory=dict)
    texts: list[str] = field(default_factory=list)
    groups: dict[str, np.ndarray] = field(default_factory=dict)
    # (category, id(doc_ids)) -> (doc_ids, aligned rows, missing positions)
    _aligned: dict[tuple[str, int], tuple] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    @property
    def n_documents(self) -> int:
        return len(self.rows)

    def schema(self, category: str) -> GroupSchema:
        try:
            return self.schemas[category]
        except KeyError:
            raise CorpusLookupError(f"unknown category {category!r}") from None

    def group_rows(self, category: str, doc_ids,
                   missing_doc: str = "error") -> np.ndarray:
        """The documents' membership rows in the category, in order; an id
        outside the corpus raises, or with missing_doc="unknown" gets the
        last row. Any other missing_doc raises UsageError."""
        if missing_doc not in ("error", "unknown"):
            raise UsageError(f"missing_doc must be 'error' or 'unknown', "
                             f"not {missing_doc!r}")
        self.schema(category)  # CorpusLookupError for an unknown category
        matrix, rows = self.groups[category], self.rows
        if missing_doc == "unknown":
            return matrix[[rows.get(d, -1) for d in doc_ids]]
        try:
            return matrix[[rows[d] for d in doc_ids]]
        except KeyError as exc:
            raise CorpusLookupError(
                f"unknown document id {exc.args[0]!r}") from None

    def rows_at(self, category: str, doc_ids: tuple[str, ...],
                positions: np.ndarray) -> np.ndarray:
        """`group_rows(category, [doc_ids[i] for i in positions])`, read
        without looking up an id.

        `doc_ids` is an index's tuple. On first use for a category and that
        tuple (by identity) the store derives and keeps a read-only matrix
        whose row i is doc_ids[i]'s membership vector: 8 bytes × documents
        × subgroups. An id outside the corpus raises CorpusLookupError only
        when `positions` reach it.
        """
        key = (category, id(doc_ids))
        entry = self._aligned.get(key)
        if entry is None:
            self.schema(category)  # CorpusLookupError for an unknown category
            at = [self.rows.get(d, -1) for d in doc_ids]
            matrix = self.groups[category][at]
            matrix.flags.writeable = False
            missing = frozenset(i for i, row in enumerate(at) if row < 0)
            # the entry holds doc_ids, so no other tuple takes its id; racing
            # threads derive equal entries, and one is kept
            entry = self._aligned.setdefault(key, (doc_ids, matrix, missing))
        _, matrix, missing = entry
        if missing and not missing.isdisjoint(positions.tolist()):
            # raises, naming the first id outside the corpus
            return self.group_rows(category, [doc_ids[i] for i in positions])
        return matrix.take(positions, axis=0)


def ingest_corpus(
    records: Iterable[dict], schemas: Iterable[GroupSchema]
) -> CorpusStore:
    """Build a CorpusStore from parsed JSONL records.

    A category's labels are a list of strings; an absent, null or empty one
    falls back to ["Unknown"]. Labels outside the schema and duplicate ids
    are rejected.
    """
    store = CorpusStore(schemas={s.category: s for s in schemas})
    # per category: its schema, and the (row, column) of every label
    marks = {c: (s, [], []) for c, s in store.schemas.items()}
    for line_no, record in enumerate(records, start=1):
        if not isinstance(record, dict):
            raise IngestionError("record is not an object", line_no)
        doc_id = record.get("id")
        text = record.get("text")
        if not isinstance(doc_id, str) or not doc_id:
            raise IngestionError("missing or invalid 'id'", line_no)
        if not isinstance(text, str):
            raise IngestionError("missing or invalid 'text'", line_no)
        if doc_id in store.rows:
            raise IngestionError(f"duplicate document id {doc_id!r}", line_no)
        raw_groups = record.get("groups", {})
        if not isinstance(raw_groups, dict):
            raise IngestionError("'groups' must be an object", line_no)
        row = len(store.texts)
        for category, (schema, rows, cols) in marks.items():
            labels = raw_groups.get(category)
            if labels is None or labels == []:
                labels = [UNKNOWN]
            elif not isinstance(labels, list):
                raise IngestionError(
                    f"labels of category {category!r} must be a list of "
                    f"strings (document {doc_id!r})", line_no)
            for label in labels:
                if label not in schema.subgroups:
                    if not isinstance(label, str):
                        raise IngestionError(
                            f"label {label!r} of category {category!r} is not "
                            f"a string (document {doc_id!r})", line_no)
                    raise SchemaError(
                        f"subgroup {label!r} not in category {category!r} "
                        f"(document {doc_id!r})"
                    )
                rows.append(row)
                cols.append(schema.subgroups.index(label))
        store.rows[doc_id] = row
        store.texts.append(text)
    for category, (schema, rows, cols) in marks.items():
        rows.append(len(store.texts))  # the row of an id outside the corpus
        cols.append(schema.index(UNKNOWN))
        shape = (len(store.texts) + 1, len(schema.subgroups))
        matrix = store.groups[category] = np.zeros(shape)
        matrix[rows, cols] = 1.0  # a label listed twice counts once
        matrix /= matrix.sum(axis=1, keepdims=True)
        matrix.flags.writeable = False  # shared by concurrent readers
    return store


def texts_by_id(
        store: CorpusStore) -> tuple[tuple[str, ...], list[str]]:
    """The document ids, sorted, and their texts in that order."""
    ids = tuple(sorted(store.rows))
    return ids, list(map(store.texts.__getitem__,
                         map(store.rows.__getitem__, ids)))


def corpus_digest(store: CorpusStore) -> str:
    """`texts_digest` of the corpus's ids and texts, in id order."""
    return texts_digest(*texts_by_id(store))


def texts_digest(ids, texts) -> str:
    """sha256 of the ids and texts.

    The count, then the lengths of the ids, the ids, the lengths of the texts
    and the texts: the lengths frame every string, so two corpora that differ
    in any id or text digest differently.
    """
    digest = hashlib.sha256(len(ids).to_bytes(8, "little"))
    for strings in (ids, texts):
        digest.update(np.fromiter(map(len, strings), "<i8", len(ids)).tobytes())
        for at in range(0, len(ids), 1024):  # a bounded copy at a time
            chunk = "".join(strings[at:at + 1024])
            digest.update(chunk.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def is_string_lists(data) -> bool:
    """Whether data is a JSON object whose every value is a list of strings."""
    return isinstance(data, dict) and all(
        isinstance(v, list) and all(isinstance(s, str) for s in v)
        for v in data.values())


@contextmanager
def open_utf8(path):
    """The file at `path`, open as UTF-8 text.

    A byte that is not UTF-8 raises FairQRError naming the path and line.
    The line is found only then, by decoding the file's bytes again, so a
    file that decodes costs nothing more.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise FairQRError(
                    f"{path} line {line}: byte 0x{data[exc.start]:02x} is not "
                    f"utf-8 ({exc.reason})") from None
            raise


_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path) -> Iterator[dict]:
    """Yield parsed objects from a JSONL file, with line numbers on errors;
    an IngestionError thrown in at a record is raised at its file line."""
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()  # a superset of JSON's whitespace
            if not line:
                continue
            try:
                record, end = _raw_decode(line)
            except json.JSONDecodeError:
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
    with open_utf8(path) as fh:
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
