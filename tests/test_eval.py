import itertools
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairqr.corpus import GroupSchema, ingest_corpus
from fairqr.errors import RunFileError, UsageError
from fairqr.evaluation import (
    SIGN_FLIPS,
    QueryRow,
    RunReport,
    _sign_flip_test,
    compare_runs,
    composite,
    evaluate_run,
    ndcg_at_k,
    report_to_dict,
    report_to_text,
)
from fairqr.fairness import (
    ExposureDistribution,
    FairnessTarget,
    awrf,
    exposure,
)
from fairqr.index import RankedList, make_ranked_list
from fairqr.trec import parse_qrels, parse_run, write_qrels, write_run

GENDER = GroupSchema("gender", ("male", "female", "Unknown"))


def ranking(query_id, doc_ids):
    return make_ranked_list(
        query_id, [(d, float(len(doc_ids) - i)) for i, d in enumerate(doc_ids)]
    )


class TestNdcg:
    def test_ideal_ranking_is_one(self):
        qrels = {"q1": {"d1": 2, "d2": 1}}
        assert ndcg_at_k(ranking("q1", ["d1", "d2"]), qrels, "q1", 2) == 1.0

    def test_no_relevant_retrieved_is_zero(self):
        qrels = {"q1": {"d9": 1}}
        assert ndcg_at_k(ranking("q1", ["d1", "d2"]), qrels, "q1", 2) == 0.0

    def test_hand_computed(self):
        qrels = {"q1": {"d1": 2, "d2": 1}}
        got = ndcg_at_k(ranking("q1", ["d2", "d1"]), qrels, "q1", 2)
        assert got == pytest.approx(0.85972, abs=1e-4)

    def test_unjudged_query_is_zero(self):
        assert ndcg_at_k(ranking("q1", ["d1"]), {}, "q1", 5) == 0.0

    def test_idcg_covers_unretrieved_docs(self):
        # judged-relevant docs outside the ranking still set the ideal
        qrels = {"q1": {"d1": 1, "d9": 1}}
        got = ndcg_at_k(ranking("q1", ["d1"]), qrels, "q1", 5)
        expected = 1.0 / (1.0 + 1.0 / math.log2(3))
        assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_usage_error(self, k):
        with pytest.raises(UsageError, match="k must be >= 1"):
            ndcg_at_k(ranking("q1", ["d1"]), {"q1": {"d1": 1}}, "q1", k)

    def test_invariant_under_score_rescaling(self):
        qrels = {"q1": {"d1": 2, "d2": 1}}
        a = make_ranked_list("q1", [("d2", 10.0), ("d1", 5.0)])
        b = make_ranked_list("q1", [("d2", 1000.0), ("d1", 500.5)])
        assert ndcg_at_k(a, qrels, "q1", 2) == ndcg_at_k(b, qrels, "q1", 2)


class CountingIds(tuple):
    """A RankedList source that counts the ids looked up in it."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("measure", ["exposure", "ndcg"])
def test_top_k_measures_look_up_only_k_ids(measure):
    ids = CountingIds(f"d{i:03d}" for i in range(100))
    ranked = RankedList("q1", array("i", range(100)), ids,
                        array("d", [1.0] * 100))
    if measure == "exposure":
        store = ingest_corpus(
            [{"id": d, "text": "x", "groups": {"gender": ["male"]}}
             for d in ids], [GENDER])
        dist = exposure(ranked, store, "gender", 20)
        assert dist[0] == pytest.approx(1.0)
    else:
        qrels = {"q1": {"d000": 1}}
        assert ndcg_at_k(ranked, qrels, "q1", 20) == 1.0
    assert ids.lookups == 20


class TestComposite:
    def test_perfect(self):
        assert composite(1.0, 1.0) == 1.0

    def test_zero_awrf(self):
        assert composite(0.77, 0.0) == 0.0

    def test_reported_balance_value(self):
        assert composite(0.6530, 0.9316) == pytest.approx(0.6083, abs=1e-4)


def brute_force_p(a, b):
    """The exact sign-flip p, one sign vector of itertools.product at a
    time."""
    d = [x - y for x, y in zip(a, b)]
    bound = abs(sum(d)) - 1e-9 * sum(abs(x) for x in d)
    signs = list(itertools.product((1, -1), repeat=len(d)))
    hits = sum(abs(sum(s * x for s, x in zip(flip, d))) >= bound
               for flip in signs)
    return hits / len(signs)


def paired_samples(max_size):
    return st.lists(st.tuples(st.floats(-10, 10, allow_nan=False),
                              st.floats(-10, 10, allow_nan=False)),
                    min_size=2, max_size=max_size)


class TestSignFlipTest:
    def test_identical_samples(self):
        assert _sign_flip_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)
        assert _sign_flip_test([0.5] * 20, [0.5] * 20) == (0.0, 1.0)

    def test_hand_computed(self):
        # d = (-1, 0, -1, 0, -1): |sum| reaches 3 when the three -1s share
        # a sign, 2 of 8 ways, whatever the zeros' signs
        mean_diff, p = _sign_flip_test([1, 2, 3, 4, 5], [2, 2, 4, 4, 6])
        assert mean_diff == pytest.approx(-0.6, abs=1e-12)
        assert p == 0.25

    def test_constant_nonzero_shift(self):
        assert _sign_flip_test([1.0, 2.0], [0.0, 1.0]) == (1.0, 0.5)

    def test_equal_differences_keep_rounded_ties(self):
        # only the unflipped and the all-flipped vector reach |sum(d)|
        mean_diff, p = _sign_flip_test([0.1] * 3, [0.0] * 3)
        assert mean_diff == pytest.approx(0.1) and p == 0.25
        mean_diff, p = _sign_flip_test([0.0] * 3, [0.1] * 3)
        assert mean_diff == pytest.approx(-0.1) and p == 0.25
        # here the all-flipped sum rounds to less than |sum(d)|, and only
        # the tolerance keeps the tie: p would be 1/16
        assert _sign_flip_test([0.1, 0.1, 0.1, 0.4], [0.0] * 4)[1] == 0.125

    def test_too_short_rejected(self):
        with pytest.raises(UsageError):
            _sign_flip_test([1.0], [2.0])
        with pytest.raises(UsageError):
            _sign_flip_test([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_enumerates_while_every_sign_vector_fits(self):
        # equal differences tie only at the two extreme sign vectors
        assert 2 ** 14 == SIGN_FLIPS
        assert _sign_flip_test([1.0] * 14, [0.0] * 14)[1] == 2 / 2 ** 14
        hits = _sign_flip_test([1.0] * 15, [0.0] * 15)[1] * (1 + SIGN_FLIPS)
        assert hits == pytest.approx(round(hits)) and hits >= 1

    @given(paired_samples(10))
    def test_exact_path_matches_brute_force(self, pairs):
        a, b = zip(*pairs)
        assert _sign_flip_test(a, b)[1] == brute_force_p(a, b)

    @given(paired_samples(30))
    def test_antisymmetric(self, pairs):
        a, b = zip(*pairs)
        mean_ab, p_ab = _sign_flip_test(a, b)
        mean_ba, p_ba = _sign_flip_test(b, a)
        assert mean_ab == -mean_ba
        assert p_ab == p_ba

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=15,
                    max_size=60))
    def test_sampled_path_is_deterministic_and_never_zero(self, a):
        assert 2 ** len(a) > SIGN_FLIPS
        b = [0.0] * len(a)
        p = _sign_flip_test(a, b)[1]
        assert _sign_flip_test(a, b)[1] == p
        assert 1 / (1 + SIGN_FLIPS) <= p <= 1.0

    def test_signs_are_drawn_in_bounded_blocks(self):
        # 16_384 draws of 1_000 signs at once take 16 MB as bytes, 131 MB as
        # the floats the product with the differences reads
        rng = np.random.default_rng(3)
        a, b = rng.random(1_000), rng.random(1_000)
        tracemalloc.start()
        try:
            _sign_flip_test(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def test_equal_nonzero_differences_give_a_finite_nonzero_p():
    # Every query of the golden experiment gains the same AWRF over bm25;
    # the t-test made that t=inf p=0, which reads as certainty. 20 queries
    # take the sampled path, where p is at least 1 / (1 + SIGN_FLIPS).
    rows = [QueryRow(f"q{i:02d}", 1.0, 0.75, 0.75) for i in range(20)]
    other = [QueryRow(row.query_id, 1.0, 0.5, 0.5) for row in rows]
    significance = compare_runs(RunReport(20, "gender", rows),
                                RunReport(20, "gender", other), "base")
    metrics = significance["metrics"]
    assert metrics["ndcg@20"] == {"mean_diff": 0.0, "p": 1.0}
    assert metrics["awrf@20.gender"]["mean_diff"] == 0.25
    p = metrics["awrf@20.gender"]["p"]
    assert math.isfinite(p) and 0.0 < p <= 2 / (1 + SIGN_FLIPS)


def three_query_fixture():
    records = [
        {"id": "m1", "text": "x", "groups": {"gender": ["male"]}},
        {"id": "m2", "text": "x", "groups": {"gender": ["male"]}},
        {"id": "f1", "text": "x", "groups": {"gender": ["female"]}},
        {"id": "f2", "text": "x", "groups": {"gender": ["female"]}},
    ]
    store = ingest_corpus(records, [GENDER])
    qrels = {q: {"m1": 1, "f1": 1} for q in ("q1", "q2", "q3")}
    run = {
        "q1": ranking("q1", ["m1", "f1"]),   # ideal, balanced
        "q2": ranking("q2", ["m1", "m2"]),   # one relevant, all male
        "q3": ranking("q3", ["f1", "m1"]),   # ideal, balanced
    }
    target = FairnessTarget(
        "*", "gender",
        ExposureDistribution("gender", [0.5, 0.5, 0.0]), "explicit",
    )
    targets = {q: target for q in run}
    return store, qrels, run, targets


class TestEvaluateRun:
    def test_perfect_run(self):
        store, qrels, run, targets = three_query_fixture()
        report = evaluate_run(
            {"q1": run["q1"]}, qrels, targets, store, k=2
        )
        row = report.rows[0]
        assert row.ndcg == 1.0
        assert row.awrf == pytest.approx(1.0)
        assert row.product == pytest.approx(1.0)

    def test_empty_run(self):
        store, qrels, _, targets = three_query_fixture()
        report = evaluate_run({}, qrels, targets, store, k=2)
        assert report.rows == []
        assert report.aggregates == {}

    def test_aggregates_are_row_means(self):
        store, qrels, run, targets = three_query_fixture()
        report = evaluate_run(run, qrels, targets, store, k=2)
        assert report.aggregates["ndcg"] == pytest.approx(
            np.mean([r.ndcg for r in report.rows]), abs=1e-12
        )
        # hand-recomputed rows: q1/q3 perfect; q2 has one relevant at rank 1
        # of an all-male pair
        ndcg_q2 = 1.0 / (1.0 + 1.0 / math.log2(3))
        assert report.aggregates["ndcg"] == pytest.approx(
            (1.0 + ndcg_q2 + 1.0) / 3, abs=1e-9
        )
        awrf_q2 = awrf(run["q2"], targets["q2"], store, 2)
        assert report.aggregates["awrf.gender"] == pytest.approx(
            (1.0 + awrf_q2 + 1.0) / 3, abs=1e-9
        )

    def test_missing_target_excluded(self):
        store, qrels, run, targets = three_query_fixture()
        del targets["q2"]
        report = evaluate_run(run, qrels, targets, store, k=2)
        assert report.excluded == ["q2"]
        assert len(report.rows) == 2

    def test_report_rendering(self):
        store, qrels, run, targets = three_query_fixture()
        report = evaluate_run(run, qrels, targets, store, k=2)
        as_dict = report_to_dict(report)
        assert len(as_dict["rows"]) == 3
        text = report_to_text(report)
        assert "MEAN" in text and "q2" in text

    def test_targets_of_two_categories_are_rejected(self):
        # The report's columns and means are of one category; a report of
        # two once rendered only the first row's and raised KeyError.
        geo = GroupSchema("geo", ("north", "south", "Unknown"))
        records = [
            {"id": "d1", "text": "x", "groups": {"gender": ["male"],
                                                 "geo": ["north"]}},
            {"id": "d2", "text": "x", "groups": {"gender": ["female"],
                                                 "geo": ["south"]}},
        ]
        store = ingest_corpus(records, [GENDER, geo])
        qrels = {}
        run = {q: ranking(q, ["d1", "d2"]) for q in ("q1", "q2")}
        targets = {
            "q1": FairnessTarget("q1", "gender", ExposureDistribution(
                "gender", [0.5, 0.5, 0.0]), "explicit"),
            "q2": FairnessTarget("q2", "geo", ExposureDistribution(
                "geo", [0.5, 0.5, 0.0]), "explicit"),
        }
        with pytest.raises(UsageError, match="gender, geo"):
            evaluate_run(run, qrels, targets, store, k=2)


class TestTrecFormats:
    def test_qrels_roundtrip(self, tmp_path):
        qrels = {"q1": {"d1": 2, "d2": 0}, "q2": {"d3": 1}}
        path = tmp_path / "qrels.txt"
        write_qrels(qrels, path)
        assert parse_qrels(path) == qrels
        write_qrels(parse_qrels(path), tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("text, message", [
        ("q1 0 d1 1\nq1 0 d2 -1\n", "line 2: negative grade for (q1, d2): -1"),
        ("q1 0 d1 1\nq1 0 d1 2\n", "line 2: duplicate qrels pair (q1, d1)"),
        ("q1 0 d1 1\n\nq1 0 d2\n", "line 3: expected 4 fields, got 3"),
        # the id is checked on its first line, after two valid lines
        ("q1 0 d1 1\nq1 0 d2 1\n\ufeffq2 0 d3 1\n",
         "line 3: query id '\\ufeffq2' holds U+FEFF, a byte-order mark"),
    ], ids=["negative-grade", "duplicate-pair", "three-fields",
            "bom-in-new-query-id"])
    def test_bad_qrels_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "qrels.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(RunFileError) as info:
            parse_qrels(path)
        assert str(info.value) == f"{path} {message}"

    def test_run_roundtrip_bit_exact(self, tmp_path, synth):
        from fairqr.index import retrieve

        run = {
            qid: retrieve(synth["index"], qtext, 20, qid)
            for qid, qtext in synth["queries"][:3]
        }
        path = tmp_path / "run.txt"
        write_run(run, path, tag="test")
        parsed = parse_run(path)
        assert parsed == run
        write_run(parsed, tmp_path / "again.txt", tag="test")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_blank_run_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("\nq1 Q0 d1 1 2.0 t\n   \nq1 Q0 d2 2 1.0 t\n\n")
        assert parse_run(path) == {
            "q1": make_ranked_list("q1", [("d1", 2.0), ("d2", 1.0)])}

    def test_malformed_run_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("q1 Q0 d1 1 2.0 tag\nq1 Q0 d2 oops\n")
        with pytest.raises(RunFileError, match="line 2"):
            parse_run(path)

    def test_run_listing_a_document_twice_is_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("q1 Q0 d1 1 2.0 t\nq2 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n")
        with pytest.raises(RunFileError, match="line 3: document 'd1' listed "
                                               "twice for query 'q1'"):
            parse_run(path)

    def test_malformed_qrels_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("q1 0 d1 notanumber\n")
        with pytest.raises(RunFileError, match="line 1"):
            parse_qrels(path)
