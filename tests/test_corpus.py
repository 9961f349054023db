import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairqr.corpus import (
    GroupSchema,
    corpus_digest,
    group_vector,
    ingest_corpus,
    tokenize,
)
from fairqr.errors import (
    CorpusLookupError,
    DuplicateIdError,
    IngestionError,
    SchemaError,
)
from fairqr.index import build_index
from fairqr.synthetic import SkewSpec, generate

GENDER = GroupSchema("gender", ("male", "female", "Unknown"))
GEO = GroupSchema(
    "geography",
    tuple(f"region{i:02d}" for i in range(20)) + ("Unknown",),
)


class TestTokenize:
    def test_lowercase_split(self):
        assert tokenize("Information Retrieval!") == ["information", "retrieval"]

    def test_empty(self):
        assert tokenize("") == []

    def test_mixed_alnum(self):
        assert tokenize("BM25-based search") == ["bm25", "based", "search"]

    @given(st.text())
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestSchema:
    def test_duplicate_subgroup_rejected(self):
        with pytest.raises(SchemaError):
            GroupSchema("gender", ("male", "male", "Unknown"))

    def test_unknown_required(self):
        with pytest.raises(SchemaError):
            GroupSchema("gender", ("male", "female"))

    def test_unknown_exactly_once(self):
        with pytest.raises(SchemaError):
            GroupSchema("gender", ("Unknown", "male", "Unknown"))


class TestIngest:
    def test_count_preserved(self):
        records = [
            {"id": f"d{i}", "text": "a b", "groups": {"gender": ["male"]}}
            for i in range(3)
        ]
        store = ingest_corpus(records, [GENDER])
        assert store.n_documents == 3

    def test_missing_category_maps_to_unknown(self):
        store = ingest_corpus([{"id": "d1", "text": "x", "groups": {}}], [GENDER])
        assert group_vector(store, "d1", "gender").tolist() == [0.0, 0.0, 1.0]

    def test_unknown_subgroup_label_rejected(self):
        records = [{"id": "d1", "text": "x", "groups": {"gender": ["martian"]}}]
        with pytest.raises(SchemaError):
            ingest_corpus(records, [GENDER])

    def test_duplicate_id_rejected(self):
        records = [
            {"id": "d1", "text": "x", "groups": {}},
            {"id": "d1", "text": "y", "groups": {}},
        ]
        with pytest.raises(DuplicateIdError):
            ingest_corpus(records, [GENDER])

    def test_malformed_record_reports_line(self):
        with pytest.raises(IngestionError, match="line 2"):
            ingest_corpus(
                [{"id": "d1", "text": "x"}, {"text": "no id"}], [GENDER]
            )

    def test_token_totals(self):
        records = [
            {"id": "d1", "text": "a b c", "groups": {}},
            {"id": "d2", "text": "d e", "groups": {}},
        ]
        # ingestion does not tokenise; the index holds each document's length
        assert build_index(ingest_corpus(records, [GENDER])).lengths.tolist() == [3, 2]

    def test_roundtrip_is_stable(self):
        records = [
            {"id": "d1", "text": "Solar!", "groups": {"gender": ["female", "male"]}},
            {"id": "d2", "text": "wind", "groups": {}},
        ]
        def record(store, doc):
            labels = [s for s, mass in zip(GENDER.subgroups,
                                           group_vector(store, doc.id, "gender"))
                      if mass > 0]
            return {"id": doc.id, "text": doc.text,
                    "groups": {"gender": sorted(labels)}}

        store = ingest_corpus(records, [GENDER])
        serialized = [record(store, store.documents[d])
                      for d in sorted(store.documents)]
        store2 = ingest_corpus(serialized, [GENDER])
        serialized2 = [record(store2, store2.documents[d])
                       for d in sorted(store2.documents)]
        assert serialized == serialized2
        for doc_id in store.documents:
            assert store.documents[doc_id] == store2.documents[doc_id]


    def test_documents_share_label_sets(self):
        records = [
            {"id": "d1", "text": "a", "groups": {"gender": ["female", "male"]}},
            {"id": "d2", "text": "b", "groups": {"gender": ["male", "female"]}},
            {"id": "d3", "text": "c", "groups": {}},
            {"id": "d4", "text": "d", "groups": {"gender": ["Unknown"]}},
        ]
        store = ingest_corpus(records, [GENDER])

        def vector(doc_id):
            return group_vector(store, doc_id, "gender").tolist()

        assert vector("d1") == vector("d2") == [0.5, 0.5, 0.0]
        assert vector("d3") == vector("d4") == [0.0, 0.0, 1.0]
        assert not hasattr(store.documents["d1"], "__dict__")

    def test_group_matrix_layout(self):
        records = [
            {"id": "d2", "text": "a", "groups": {"gender": ["female"]}},
            {"id": "d1", "text": "b", "groups": {"gender": ["male", "male"]}},
        ]
        store = ingest_corpus(records, [GENDER])
        matrix = store.groups["gender"]
        # ingest order, then the row of an id outside the corpus
        assert [store.documents[d].row for d in ("d2", "d1")] == [0, 1]
        assert matrix.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        assert not matrix.flags.writeable

    def test_memory_per_document(self):
        spec = SkewSpec(seed=1, doc_count=20_000, topic_count=20, skew=0.8)
        records = generate(spec)[0]  # texts and ids are shared, not counted
        schema = GroupSchema(spec.category, spec.subgroups)
        tracemalloc.start()
        try:
            store = ingest_corpus(records, [schema])
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.n_documents == 20_000
        assert kept / 20_000 < 200


class TestDigest:
    @staticmethod
    def digest(texts: dict[str, str]) -> str:
        records = [{"id": d, "text": t} for d, t in texts.items()]
        return corpus_digest(ingest_corpus(records, [GENDER]))

    def test_ignores_record_order(self):
        assert (self.digest({"d1": "a b", "d2": "c"})
                == self.digest({"d2": "c", "d1": "a b"}))

    @pytest.mark.parametrize("edited", [
        {"d1": "c b", "d2": "a"},     # words swapped: same ids and length
        {"d1": "a b", "d3": "c"},     # an id renamed
        {"d1": "a bc", "d2": ""},     # text moved across the boundary
        {"d1": "a b", "d2": "c", "d3": ""},  # an empty document added
    ])
    def test_sees_every_edit(self, edited):
        assert self.digest(edited) != self.digest({"d1": "a b", "d2": "c"})

    def test_lone_surrogate_digests(self):
        assert len(self.digest({"d1": "a \ud800 b"})) == 64


class TestGroupVector:
    def test_single_label(self, tiny_store):
        assert group_vector(tiny_store, "d1", "gender").tolist() == [1.0, 0.0, 0.0]

    def test_unlabeled_goes_to_unknown(self, tiny_store):
        assert group_vector(tiny_store, "d3", "gender").tolist() == [0.0, 0.0, 1.0]

    def test_fractional_attribution_matches_l1_normalized_indicator(self):
        # oracle: indicator vector over the schema divided by its L1 norm
        labels = {"region03", "region07"}
        records = [{"id": "d1", "text": "x", "groups": {"geography": sorted(labels)}}]
        store = ingest_corpus(records, [GEO])
        indicator = np.array([1.0 if s in labels else 0.0 for s in GEO.subgroups])
        expected = indicator / indicator.sum()
        assert np.allclose(group_vector(store, "d1", "geography"), expected)
        assert group_vector(store, "d1", "geography")[GEO.index("region03")] == 0.5

    def test_unknown_doc_or_category_raises(self, tiny_store):
        with pytest.raises(CorpusLookupError):
            group_vector(tiny_store, "nope", "gender")
        with pytest.raises(CorpusLookupError):
            group_vector(tiny_store, "d1", "age")

    @given(st.sets(st.sampled_from(["male", "female", "Unknown"]), min_size=1))
    def test_always_on_simplex(self, labels):
        records = [{"id": "d1", "text": "x", "groups": {"gender": sorted(labels)}}]
        store = ingest_corpus(records, [GENDER])
        vec = group_vector(store, "d1", "gender")
        assert (vec >= 0).all()
        assert abs(vec.sum() - 1.0) < 1e-12
