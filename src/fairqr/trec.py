"""TREC-format qrels and run files.

Qrels lines: `query_id 0 doc_id grade`. Run lines:
`query_id Q0 doc_id rank score tag`. Both whitespace-separated, UTF-8.
"""
from __future__ import annotations

from .corpus import open_utf8
from .errors import RunFileError
from .index import RankedList, make_ranked_list

# Graded relevance judgments: query id -> doc id -> grade.
Qrels = dict[str, dict[str, int]]


def parse_qrels(path) -> Qrels:
    """Judgments in file order; a negative grade or a repeated (query, doc)
    pair is a RunFileError at its line."""
    qrels: Qrels = {}
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise RunFileError(
                    f"expected 4 fields, got {len(parts)}", line_no
                )
            query_id, _, doc_id, grade_s = parts
            try:
                grade = int(grade_s)
            except ValueError:
                raise RunFileError(
                    f"non-integer grade {grade_s!r}", line_no
                ) from None
            if grade < 0:
                raise RunFileError(f"negative grade for ({query_id}, "
                                   f"{doc_id}): {grade}", line_no)
            judged = qrels.setdefault(query_id, {})
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
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise RunFileError(
                    f"expected 6 fields, got {len(parts)}", line_no
                )
            query_id, _, doc_id, rank_s, score_s, _tag = parts
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError:
                raise RunFileError(
                    f"bad rank/score {rank_s!r}/{score_s!r}", line_no
                ) from None
            ranked = rows.setdefault(query_id, {})
            if doc_id in ranked:
                raise RunFileError(f"document {doc_id!r} listed twice for "
                                   f"query {query_id!r}", line_no)
            ranked[doc_id] = (rank, score)
    run: dict[str, RankedList] = {}
    for query_id, ranked in rows.items():
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
