"""TREC-format queries, qrels and run files, UTF-8.

Queries lines: `query_id<TAB>query text`. Qrels lines: `query_id 0 doc_id
grade`, and run lines: `query_id Q0 doc_id rank score tag`, both
whitespace-separated. A malformed line is a RunFileError at its line, which
`open_utf8` names at its file.
"""
from __future__ import annotations

from .corpus import open_utf8, tokenize
from .errors import RunFileError
from .index import RankedList, make_ranked_list

# Graded relevance judgments: query id -> doc id -> grade.
Qrels = dict[str, dict[str, int]]


def _check_query_id(query_id: str, line_no: int) -> None:
    """RunFileError at the line if the query id holds U+FEFF: a byte-order
    mark saved inside it, which the id in another file would lack."""
    if "\ufeff" in query_id:
        raise RunFileError(f"query id {query_id!r} holds U+FEFF, a "
                           f"byte-order mark", line_no)


def parse_queries(path) -> list[tuple[str, str]]:
    """(query id, text) pairs in file order; blank lines skipped.

    A line without a tab, whose text tokenizes to nothing, whose query id is
    empty, holds whitespace, `/` or `\\` (a run file line or a trace file
    name cannot hold them) or U+FEFF, or whose query id an earlier line
    already used, is a RunFileError at its line.
    """
    queries = []
    first_line: dict[str, int] = {}
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            query_id, tab, text = line.partition("\t")
            if not (tab and tokenize(text)):
                raise RunFileError(f"query {query_id!r} has no searchable "
                                   f"text after a tab", line_no)
            if not query_id or any(c.isspace() or c in "/\\"
                                   for c in query_id):
                raise RunFileError(f"query id {query_id!r} is empty or holds "
                                   f"whitespace, '/' or '\\'", line_no)
            _check_query_id(query_id, line_no)
            if query_id in first_line:
                raise RunFileError(f"query id {query_id!r} repeats line "
                                   f"{first_line[query_id]}", line_no)
            first_line[query_id] = line_no
            queries.append((query_id, text))
    return queries


def parse_qrels(path) -> Qrels:
    """Judgments in file order; a negative grade, a repeated (query, doc)
    pair or a query id holding U+FEFF is a RunFileError at its line."""
    qrels: Qrels = {}
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if len(fields) != 4:
                if not fields:
                    continue
                raise RunFileError(f"expected 4 fields, got {len(fields)}",
                                   line_no)
            query_id, _, doc_id, grade_s = fields
            judged = qrels.get(query_id)
            if judged is None:  # checked once, on its first line
                _check_query_id(query_id, line_no)
                judged = qrels[query_id] = {}
            try:
                grade = int(grade_s)
            except ValueError:
                raise RunFileError(
                    f"non-integer grade {grade_s!r}", line_no
                ) from None
            if grade < 0:
                raise RunFileError(f"negative grade for ({query_id}, "
                                   f"{doc_id}): {grade}", line_no)
            if doc_id in judged:
                raise RunFileError(f"duplicate qrels pair ({query_id}, "
                                   f"{doc_id})", line_no)
            judged[doc_id] = grade
    return qrels


def write_qrels(qrels: Qrels, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for query_id, judged in sorted(qrels.items()):
            for doc_id, grade in sorted(judged.items()):
                fh.write(f"{query_id} 0 {doc_id} {grade}\n")


def write_run(run: dict[str, RankedList], path, tag: str = "fairqr") -> None:
    """Write ranked lists as a TREC run file, queries sorted by id."""
    with open(path, "w", encoding="utf-8") as fh:
        for query_id, ranked in sorted(run.items()):
            lines = enumerate(zip(ranked.ids, ranked.scores), start=1)
            for rank, (doc_id, score) in lines:
                fh.write(f"{query_id} Q0 {doc_id} {rank} {score!r} {tag}\n")


def parse_run(path) -> dict[str, RankedList]:
    """Parse a TREC run file back into per-query ranked lists."""
    rows: dict[str, dict[str, tuple[int, float]]] = {}
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if len(fields) != 6:
                if not fields:
                    continue
                raise RunFileError(f"expected 6 fields, got {len(fields)}",
                                   line_no)
            query_id, _, doc_id, rank_s, score_s, _ = fields
            ranked = rows.get(query_id)
            if ranked is None:  # checked once, on its first line
                _check_query_id(query_id, line_no)
                ranked = rows[query_id] = {}
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError:
                raise RunFileError(
                    f"bad rank/score {rank_s!r}/{score_s!r}", line_no
                ) from None
            if doc_id in ranked:
                raise RunFileError(f"document {doc_id!r} listed twice for "
                                   f"query {query_id!r}", line_no)
            ranked[doc_id] = (rank, score)
        run: dict[str, RankedList] = {}
        for query_id, ranked in rows.items():  # errors here name the file too
            entries = sorted((r, d, s) for d, (r, s) in ranked.items())
            ranks = [r for r, _, _ in entries]
            if ranks != list(range(1, len(ranks) + 1)):
                raise RunFileError(
                    f"ranks for query {query_id!r} not contiguous from 1"
                )
            run[query_id] = make_ranked_list(
                query_id, [(d, s) for _, d, s in entries]
            )
    return run
