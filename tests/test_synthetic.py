import json

import pytest

from fairqr.corpus import GroupSchema, group_vector, ingest_corpus
from fairqr.errors import SpecError
from fairqr.fairness import exposure
from fairqr.index import build_index, retrieve
from fairqr.synthetic import SkewSpec, generate


class TestSkewSpec:
    def test_bad_proportions_rejected(self):
        with pytest.raises(SpecError):
            SkewSpec(seed=1, doc_count=100, topic_count=5, skew=0.8,
                     proportions={"male": 0.7, "female": 0.2})
        with pytest.raises(SpecError):
            SkewSpec(seed=1, doc_count=100, topic_count=5, skew=0.8,
                     proportions={"male": 1.2, "female": -0.2})

    def test_doc_count_vs_topics(self):
        with pytest.raises(SpecError):
            SkewSpec(seed=1, doc_count=3, topic_count=5, skew=0.8)

    def test_skew_bounds(self):
        with pytest.raises(SpecError):
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

    def test_corpus_ingests_cleanly(self, synth):
        # generated records satisfy every corpus invariant on ingestion
        store = synth["store"]
        assert store.n_documents == 200

    def test_relevant_doc_per_subgroup(self, synth):
        store, qrels = synth["store"], synth["qrels"]
        for query_id, _ in synth["queries"]:
            relevant = [
                d for d, g in qrels.judgments(query_id).items() if g > 0
            ]
            seen = set()
            for doc_id in relevant:
                vector = group_vector(store, doc_id, "gender")
                seen.update(s for s, mass in zip(synth["spec"].subgroups, vector)
                            if mass > 0)
            assert {"male", "female"} <= seen

    def test_baseline_exposure_near_skew(self, synth):
        index, store = synth["index"], synth["store"]
        for query_id, qtext in synth["queries"]:
            ranked = retrieve(index, qtext, 20, query_id)
            eps = exposure(ranked, store, "gender", 20)
            assert abs(eps.probabilities[0] - synth["spec"].skew) <= 0.1 + 1e-9

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
            assert boosted.probabilities[female] > base.probabilities[female]
