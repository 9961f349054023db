import json
from collections import Counter

import pytest

from fairqr.corpus import GroupSchema, ingest_corpus
from fairqr.errors import UsageError
from fairqr.fairness import exposure
from fairqr.index import build_index, retrieve
from fairqr.synthetic import SkewSpec, generate

THREE_GROUPS = {"a": 0.5, "b": 0.25, "c": 0.25}


class TestSkewSpec:
    def test_bad_proportions_rejected(self):
        with pytest.raises(UsageError):
            SkewSpec(seed=1, doc_count=100, topic_count=5, skew=0.8,
                     proportions={"male": 0.7, "female": 0.2})
        with pytest.raises(UsageError):
            SkewSpec(seed=1, doc_count=100, topic_count=5, skew=0.8,
                     proportions={"male": 1.2, "female": -0.2})

    def test_doc_count_vs_topics(self):
        with pytest.raises(UsageError):
            SkewSpec(seed=1, doc_count=3, topic_count=5, skew=0.8)

    def test_skew_bounds(self):
        with pytest.raises(UsageError):
            SkewSpec(seed=1, doc_count=100, topic_count=5, skew=1.0)

    def test_schema_ends_with_unknown(self):
        spec = SkewSpec(seed=1, doc_count=100, topic_count=5, skew=0.8)
        assert spec.subgroups[-1] == "Unknown"


class TestGenerate:
    def test_deterministic_given_seed(self):
        spec = SkewSpec(seed=7, doc_count=100, topic_count=5, skew=0.8)
        assert json.dumps(generate(spec)[0]) == json.dumps(generate(spec)[0])
        assert generate(spec) == generate(spec)

    def test_different_seed_differs(self):
        a = SkewSpec(seed=1, doc_count=100, topic_count=5, skew=0.8)
        b = SkewSpec(seed=2, doc_count=100, topic_count=5, skew=0.8)
        assert generate(a)[0] != generate(b)[0]

    def test_skew_split_per_topic(self):
        spec = SkewSpec(seed=3, doc_count=200, topic_count=2, skew=0.8)
        records, _, _, _ = generate(spec)
        # 100 docs per topic: 80 majority, 20 minority
        per_topic = {}
        for record in records:
            topic = record["id"].split("-")[0]
            sub = record["groups"]["gender"][0]
            per_topic.setdefault(topic, []).append(sub)
        for subs in per_topic.values():
            assert subs.count("male") == 80
            assert subs.count("female") == 20

    @pytest.mark.parametrize("skew, counts", [
        (0.7, {"a": 7, "b": 1, "c": 2}),  # rounded shares overshoot: 2 + 2 > 3
        (0.5, {"a": 5, "b": 3, "c": 2}),  # rounded shares undershoot: 2 + 2 < 5
    ], ids=["decrement", "increment"])
    def test_three_group_allocation(self, skew, counts):
        spec = SkewSpec(seed=1, doc_count=10, topic_count=1, skew=skew,
                        proportions=THREE_GROUPS)
        records = generate(spec)[0]
        assert Counter(r["groups"]["gender"][0] for r in records) == counts

    def test_skew_leaving_a_minority_no_document_rejected(self):
        spec = SkewSpec(seed=1, doc_count=2, topic_count=1, skew=0.9,
                        proportions=THREE_GROUPS)
        with pytest.raises(UsageError, match="^skew leaves fewer documents "
                                             "than minority subgroups$"):
            generate(spec)

    def test_corpus_ingests_cleanly(self, synth):
        # generated records satisfy every corpus invariant on ingestion
        store = synth["store"]
        assert store.n_documents == 200

    def test_relevant_doc_per_subgroup(self, synth):
        store, qrels = synth["store"], synth["qrels"]
        for query_id, _ in synth["queries"]:
            relevant = [
                d for d, g in qrels[query_id].items() if g > 0
            ]
            seen = set()
            for doc_id in relevant:
                vector = store.group_rows("gender", [doc_id])[0]
                seen.update(s for s, mass in zip(synth["spec"].subgroups, vector)
                            if mass > 0)
            assert {"male", "female"} <= seen

    def test_baseline_exposure_near_skew(self, synth):
        index, store = synth["index"], synth["store"]
        for query_id, qtext in synth["queries"]:
            ranked = retrieve(index, qtext, 20, query_id)
            eps = exposure(ranked, store, "gender", 20)
            assert abs(eps[0] - synth["spec"].skew) <= 0.1 + 1e-9

    def test_marker_raises_subgroup_exposure(self, synth):
        index, store = synth["index"], synth["store"]
        lexicon = synth["lexicon"]
        for query_id, qtext in synth["queries"]:
            base = exposure(
                retrieve(index, qtext, 20, query_id), store, "gender", 20
            )
            boosted = exposure(
                retrieve(index, f"{qtext} {lexicon['female'][0]}", 20, query_id),
                store, "gender", 20,
            )
            female = list(synth["spec"].subgroups).index("female")
            assert boosted[female] > base[female]
