import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairqr.corpus import GroupSchema, ingest_corpus
from fairqr.errors import (
    CorpusLookupError,
    DegenerateExposureError,
    NoTargetError,
    UsageError,
)
from fairqr.fairness import (
    KL_SMOOTHING,
    ExposureDistribution,
    ExposureMeter,
    FairnessTarget,
    awrf,
    exposure,
    js_divergence,
    kl_divergence,
    most_underrepresented,
    target_from_qrels,
)
from fairqr.index import build_index, make_ranked_list

GENDER = GroupSchema("gender", ("male", "female", "Unknown"))


def store_of(labels: dict[str, list[str]]):
    records = [
        {"id": d, "text": "x", "groups": {"gender": subs} if subs else {}}
        for d, subs in labels.items()
    ]
    return ingest_corpus(records, [GENDER])


def ranking(doc_ids):
    return make_ranked_list("q1", [(d, float(len(doc_ids) - i)) for i, d in enumerate(doc_ids)])


def simplex(n):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=n, max_size=n
    ).map(lambda xs: np.array(xs) + 1e-9).map(lambda v: v / v.sum())


class TestExposure:
    @pytest.mark.parametrize("probs", [[math.nan, 0.6, 0.4], [math.nan] * 3],
                             ids=["one-nan", "all-nan"])
    def test_nan_mass_is_not_a_distribution(self, probs):
        with pytest.raises(ValueError, match="not a probability vector"):
            ExposureDistribution("gender", probs)

    def test_seventy_thirty_split(self):
        # 7 of the top 10 male, 3 female
        labels = {f"m{i}": ["male"] for i in range(7)}
        labels.update({f"f{i}": ["female"] for i in range(3)})
        store = store_of(labels)
        dist = exposure(ranking(sorted(labels)), store, "gender", 10)
        assert np.allclose(dist, [0.7, 0.3, 0.0])

    def test_all_unlabeled_mass_on_unknown(self):
        store = store_of({"d1": [], "d2": []})
        dist = exposure(ranking(["d1", "d2"]), store, "gender", 10)
        assert dist.tolist() == [0.0, 0.0, 1.0]

    @given(st.lists(st.sampled_from([["male"], ["female"], [],
                                     ["male", "female"]]),
                    min_size=1, max_size=100))
    def test_each_document_weighs_one_nth_to_the_bit(self, labels):
        # Traces print exposure with repr, so the rounding must stay that of
        # weights 1/n; the mean of the rows rounds differently.
        store = store_of({f"d{i}": subs for i, subs in enumerate(labels)})
        ids = [f"d{i}" for i in range(len(labels))]
        weights = np.ones(len(ids)) / len(ids)
        want = weights @ store.group_rows("gender", ids)
        got = exposure(ranking(ids), store, "gender", len(ids))
        assert got.tobytes() == want.tobytes()

    def test_truncates_at_k(self):
        store = store_of({"d1": ["male"], "d2": ["female"], "d3": ["female"]})
        dist = exposure(ranking(["d1", "d2", "d3"]), store, "gender", 2)
        assert np.allclose(dist, [0.5, 0.5, 0.0])

    def test_empty_ranking_raises(self):
        store = store_of({"d1": ["male"]})
        with pytest.raises(DegenerateExposureError):
            exposure(ranking([]), store, "gender", 10)

    def test_id_outside_corpus_raises(self):
        store = store_of({"d1": ["male"]})
        with pytest.raises(CorpusLookupError):
            exposure(ranking(["d1", "ghost"]), store, "gender", 10)

    def test_id_outside_corpus_counts_as_unknown_when_asked(self):
        store = store_of({"d1": ["male"]})
        dist = exposure(ranking(["d1", "ghost"]), store, "gender", 10,
                        missing_doc="unknown")
        assert dist.tolist() == [0.5, 0.0, 0.5]

    @pytest.mark.parametrize("ids", [["d1"], ["d1", "ghost"]],
                             ids=["known-ids", "id-outside-corpus"])
    def test_misspelled_missing_doc_is_usage_error(self, ids):
        store = store_of({"d1": ["male"]})
        with pytest.raises(UsageError, match="not 'unkown'"):
            exposure(ranking(ids), store, "gender", 10, missing_doc="unkown")

    def test_unknown_category_raises(self):
        store = store_of({"d1": ["male"]})
        with pytest.raises(CorpusLookupError):
            exposure(ranking(["d1"]), store, "age", 10)
        with pytest.raises(CorpusLookupError):
            exposure(ranking(["d1"]), store, "age", 10, missing_doc="unknown")


class TestTargetFromQrels:
    def test_mean_of_indicators(self):
        store = store_of({"d1": ["male"], "d2": ["female"]})
        qrels = {"q1": {"d1": 1, "d2": 2}}
        target = target_from_qrels(qrels, store, "q1", "gender")
        assert np.allclose(target.target.probabilities, [0.5, 0.5, 0.0])
        assert target.provenance == "qrels-empirical"

    def test_fractional_labels(self):
        geo = GroupSchema("geo", ("asia", "europe", "america", "Unknown"))
        records = [{"id": "d1", "text": "x", "groups": {"geo": ["asia", "europe"]}}]
        store = ingest_corpus(records, [geo])
        qrels = {"q1": {"d1": 1}}
        target = target_from_qrels(qrels, store, "q1", "geo")
        assert np.allclose(target.target.probabilities, [0.5, 0.5, 0.0, 0.0])

    def test_irrelevant_only_raises(self):
        store = store_of({"d1": ["male"]})
        qrels = {"q1": {"d1": 0}}
        with pytest.raises(NoTargetError):
            target_from_qrels(qrels, store, "q1", "gender")

    def test_absent_query_raises(self):
        store = store_of({"d1": ["male"]})
        with pytest.raises(NoTargetError):
            target_from_qrels({}, store, "q9", "gender")

    def test_unknown_category_raises(self):
        store = store_of({"d1": ["male"]})
        qrels = {"q1": {"d1": 1}}
        with pytest.raises(CorpusLookupError):
            target_from_qrels(qrels, store, "q1", "age")


class TestKL:
    def test_identical_is_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)

    def test_hand_computed(self):
        # 0.7 ln 1.4 + 0.3 ln 0.6 = 0.08228
        assert kl_divergence([0.7, 0.3], [0.5, 0.5], smoothing=0.0) == pytest.approx(
            0.08228, abs=1e-4
        )

    def test_smoothed_degenerate_near_ln2(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5], smoothing=1e-6) == pytest.approx(
            math.log(2.0), abs=1e-4
        )

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            kl_divergence([1.0], [0.5, 0.5])

    @given(st.integers(min_value=1, max_value=6).flatmap(
               lambda n: st.tuples(*[st.lists(
                   st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                   min_size=n, max_size=n)] * 2)),
           st.sampled_from([KL_SMOOTHING, 1e-3, 0.5]))
    def test_equals_the_unfused_formula_and_keeps_its_inputs(self, pq,
                                                            smoothing):
        # float64 arrays reach the arithmetic uncopied, so writing to them
        # in place would change the caller's vectors
        p, q = map(np.array, pq)
        p_before, q_before = p.copy(), q.copy()
        ps = (p + smoothing) / (p + smoothing).sum()
        qs = (q + smoothing) / (q + smoothing).sum()
        expected = float(np.sum(ps * np.log(ps / qs)))
        assert kl_divergence(p, q, smoothing).hex() == expected.hex()
        assert kl_divergence(*pq, smoothing).hex() == expected.hex()
        assert p.tobytes() == p_before.tobytes()
        assert q.tobytes() == q_before.tobytes()

    @given(simplex(4), simplex(4))
    def test_nonnegative(self, p, q):
        assert kl_divergence(p, q) >= -1e-12
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


class TestJS:
    def test_identical_is_zero(self):
        assert js_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_is_one(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed(self):
        assert js_divergence([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.03030, abs=1e-4)

    @given(simplex(5), simplex(5))
    def test_symmetric_and_bounded(self, p, q):
        a, b = js_divergence(p, q), js_divergence(q, p)
        assert abs(a - b) < 1e-12
        assert -1e-12 <= a <= 1.0 + 1e-12


class TestAWRF:
    def _target(self, probs):
        return FairnessTarget(
            "q1", "gender", ExposureDistribution("gender", probs), "explicit"
        )

    def test_exposure_equals_target(self):
        store = store_of({"d1": ["male"], "d2": ["female"]})
        target = self._target([0.5, 0.5, 0.0])
        assert awrf(ranking(["d1", "d2"]), target, store, 2) == pytest.approx(1.0)

    def test_hand_computed(self):
        labels = {f"m{i}": ["male"] for i in range(7)}
        labels.update({f"f{i}": ["female"] for i in range(3)})
        store = store_of(labels)
        target = self._target([0.5, 0.5, 0.0])
        value = awrf(ranking(sorted(labels)), target, store, 10)
        assert value == pytest.approx(0.96970, abs=1e-4)

    def test_maximal_divergence_is_zero(self):
        store = store_of({"d1": ["male"]})
        target = self._target([0.0, 1.0, 0.0])
        assert awrf(ranking(["d1"]), target, store, 1) == pytest.approx(0.0, abs=1e-12)

    @given(simplex(3))
    def test_in_unit_interval(self, target_probs):
        store = store_of({"d1": ["male"], "d2": ["female"], "d3": []})
        target = self._target(target_probs)
        value = awrf(ranking(["d1", "d2", "d3"]), target, store, 3)
        assert -1e-12 <= value <= 1.0 + 1e-12


def _target(probs):
    return FairnessTarget("q1", "gender",
                          ExposureDistribution("gender", probs), "explicit")


@pytest.mark.parametrize("call, message", [
    (lambda store: exposure(ranking(["d1"]), store, "gender", 0),
     "k must be >= 1"),
    (lambda store: ExposureMeter(store, build_index(store),
                                 _target([1.0, 0.0, 0.0]), 0),
     "k must be >= 1"),
    (lambda store: ExposureMeter(store, build_index(store),
                                 _target([0.5, 0.5]), 5),
     r"length mismatch: \(3,\) vs \(2,\)"),
    (lambda store: most_underrepresented([0.5, 0.5], [0.5, 0.5], ("male",)),
     "subgroup labels do not match distribution length"),
], ids=["exposure-k-0", "meter-k-0", "meter-target-length",
        "labels-of-another-length"])
def test_argument_out_of_range_is_usage_error(call, message):
    with pytest.raises(UsageError, match=message):
        call(store_of({"d1": ["male"]}))


class TestMostUnderrepresented:
    SUBS = ("male", "female", "Unknown")

    def test_largest_deficit(self):
        assert most_underrepresented([0.7, 0.3], [0.5, 0.5], ("male", "female")) == "female"

    def test_tie_goes_to_schema_order(self):
        assert most_underrepresented([0.5, 0.5], [0.5, 0.5], ("male", "female")) == "male"

    def test_three_way(self):
        got = most_underrepresented([0.2, 0.3, 0.5], [0.4, 0.4, 0.2], self.SUBS)
        assert got == "male"

    @given(simplex(3), simplex(3))
    def test_matches_brute_force(self, current, target):
        got = most_underrepresented(current, target, self.SUBS)
        best, best_deficit = None, None
        for label, c, t in zip(self.SUBS, current, target):
            deficit = t - c
            if best_deficit is None or deficit > best_deficit:
                best, best_deficit = label, deficit
        assert got == best
