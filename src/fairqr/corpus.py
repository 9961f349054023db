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
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    CorpusLookupError,
    DuplicateIdError,
    IngestionError,
    SchemaError,
)

UNKNOWN = "Unknown"

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics, dropping empty tokens."""
    return _TOKEN_RE.findall(text.lower())


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


@dataclass(frozen=True, slots=True)
class Document:
    """One corpus document; `row` is its row in the store's group matrices."""

    id: str
    text: str
    row: int


@dataclass
class CorpusStore:
    """Immutable-after-ingestion document collection.

    `groups` holds one read-only (documents + 1) x subgroups matrix per
    category: row i is the i-th ingested document's membership vector, the
    last row (all mass on "Unknown") an id outside the corpus. Safe for
    concurrent reads once built; ingestion is single-writer.
    """

    schemas: dict[str, GroupSchema]
    documents: dict[str, Document] = field(default_factory=dict)
    groups: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_documents(self) -> int:
        return len(self.documents)

    def document(self, doc_id: str) -> Document:
        try:
            return self.documents[doc_id]
        except KeyError:
            raise CorpusLookupError(f"unknown document id {doc_id!r}") from None

    def schema(self, category: str) -> GroupSchema:
        try:
            return self.schemas[category]
        except KeyError:
            raise CorpusLookupError(f"unknown category {category!r}") from None

    def group_rows(self, category: str, doc_ids,
                   missing_doc: str = "error") -> np.ndarray:
        """The documents' membership rows in the category, in order; an id
        outside the corpus raises, or with missing_doc="unknown" gets the
        last row."""
        self.schema(category)  # CorpusLookupError for an unknown category
        matrix = self.groups[category]
        if missing_doc == "unknown":
            docs = self.documents
            return matrix[[docs[d].row if d in docs else -1 for d in doc_ids]]
        return matrix[[self.document(d).row for d in doc_ids]]


def ingest_corpus(
    records: Iterable[dict], schemas: Iterable[GroupSchema]
) -> CorpusStore:
    """Build a CorpusStore from parsed JSONL records.

    Unlabeled categories fall back to {"Unknown"}; labels outside the schema
    and duplicate ids are rejected.
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
        if doc_id in store.documents:
            raise DuplicateIdError(f"duplicate document id {doc_id!r}")
        raw_groups = record.get("groups", {})
        if not isinstance(raw_groups, dict):
            raise IngestionError("'groups' must be an object", line_no)
        row = len(store.documents)
        for category, (schema, rows, cols) in marks.items():
            for label in raw_groups.get(category) or [UNKNOWN]:
                if label not in schema.subgroups:
                    raise SchemaError(
                        f"subgroup {label!r} not in category {category!r} "
                        f"(document {doc_id!r})"
                    )
                rows.append(row)
                cols.append(schema.subgroups.index(label))
        store.documents[doc_id] = Document(doc_id, text, row)
    for category, (schema, rows, cols) in marks.items():
        rows.append(len(store.documents))  # the row of an id outside the corpus
        cols.append(schema.index(UNKNOWN))
        shape = (len(store.documents) + 1, len(schema.subgroups))
        matrix = store.groups[category] = np.zeros(shape)
        matrix[rows, cols] = 1.0  # a label listed twice counts once
        matrix /= matrix.sum(axis=1, keepdims=True)
        matrix.flags.writeable = False  # shared by concurrent readers
    return store


def corpus_digest(store: CorpusStore) -> str:
    """sha256 of the documents' ids and texts, in id order.

    The count, then the lengths of the ids, the ids, the lengths of the texts
    and the texts: the lengths frame every string, so two corpora that differ
    in any id or text digest differently.
    """
    ids = sorted(store.documents)
    texts = [store.documents[doc_id].text for doc_id in ids]
    digest = hashlib.sha256(len(ids).to_bytes(8, "little"))
    for strings in (ids, texts):
        digest.update(np.fromiter(map(len, strings), "<i8", len(ids)).tobytes())
        for at in range(0, len(ids), 1024):  # a bounded copy at a time
            chunk = "".join(strings[at:at + 1024])
            digest.update(chunk.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def group_vector(store: CorpusStore, doc_id: str, category: str) -> np.ndarray:
    """Fractional group-membership vector over the category's subgroups.

    One unit of mass split equally across the document's labels; sums to 1.
    """
    return store.group_rows(category, [doc_id])[0]


def read_jsonl(path) -> Iterator[dict]:
    """Yield parsed objects from a JSONL file, with line numbers on errors."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestionError(f"invalid JSON: {exc}", line_no) from None


def load_schemas(path) -> list[GroupSchema]:
    """Load category schemas from a JSON file.

    Format: {"<category>": ["<subgroup>", ...], ...}
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SchemaError("schema file must map categories to subgroup lists")
    return [GroupSchema(cat, tuple(subs)) for cat, subs in data.items()]


def load_corpus(corpus_path, schema_path) -> CorpusStore:
    """Convenience: read schema + JSONL corpus from disk."""
    schemas = load_schemas(schema_path)
    return ingest_corpus(read_jsonl(corpus_path), schemas)
