import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairqr.corpus import (
    GroupSchema,
    ingest_corpus,
    load_corpus,
    read_jsonl,
    tokenize,
    tokenize_many,
)
from fairqr.errors import (
    CorpusLookupError,
    IngestionError,
    SchemaError,
)
from fairqr.index import build_index
from fairqr.synthetic import SkewSpec, generate

GENDER = GroupSchema("gender", ("male", "female", "Unknown"))
TOKEN_RE = re.compile(r"[a-z0-9]+")  # the token definition tokenize meets
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

    @given(st.text(st.characters(exclude_categories=())))  # surrogates too
    def test_runs_of_ascii_alnum_after_lowercasing(self, text):
        assert tokenize(text) == TOKEN_RE.findall(text.lower())

    @pytest.mark.parametrize("text, tokens", [
        ("İstanbul", ["i", "stanbul"]),     # lower() adds a combining dot
        ("\u212a", ["k"]),                  # Kelvin sign lowers to ASCII k
        ("straße", ["stra", "e"]),
        ("\uff21\uff22", []),               # full-width letters
        ("route 66, 2024", ["route", "66", "2024"]),
        ("ABC Def", ["abc", "def"]),
        ("", []),
        ("a\ud800b", ["a", "b"]),            # a lone surrogate separates
    ])
    def test_non_ascii_separates(self, text, tokens):
        assert tokenize(text) == tokens == TOKEN_RE.findall(text.lower())

    @given(st.lists(st.lists(st.sampled_from(
        ["\0", "\u0130", "\u212a", "\u03a3", "\u03c2", "\xdf", "\ufb01",
         "\ud800", "\xa0", "\uff21", " ", "\t", "\n", "a", "Z", "9", "-"]),
        max_size=8).map("".join), max_size=8))
    @example([])
    @example(["", " ", "\xa0\t\n", "\0", "a\0b", "\u03a3\0\u03a3"])
    def test_tokenize_many_is_tokenize_of_each_text(self, texts):
        # NUL, dotted I, Kelvin sign, sigma and final sigma, sharp s, the fi
        # ligature, a lone surrogate, NBSP and a full-width A
        each = [token for text in texts for token in tokenize(text) + ["\0"]]
        assert tokenize_many(texts) == each


class TestReadJsonl:
    RECORD = '{"id": "a", "text": "x"}'

    def read(self, tmp_path, text):
        path = tmp_path / "corpus.jsonl"
        path.write_text(text, encoding="utf-8")
        return list(read_jsonl(path))

    @pytest.mark.parametrize("line, message", [
        ('{"id": "a", "text": "x"} 1',
         "line 2: invalid JSON: Extra data: line 1 column 26 (char 25)"),
        ('{"id": "a"}{"id": "b"}',
         "line 2: invalid JSON: Extra data: line 1 column 12 (char 11)"),
        ('{"id": "b", "text": }',
         "line 2: invalid JSON: Expecting value: line 1 column 21 (char 20)"),
        ('\ufeff{"id": "a", "text": "x"}',
         "line 2: invalid JSON: Unexpected UTF-8 BOM (decode using "
         "utf-8-sig): line 1 column 1 (char 0)"),
    ], ids=["trailing-data", "two-objects", "invalid", "bom"])
    def test_bad_line_reports_json_error(self, tmp_path, line, message):
        with pytest.raises(IngestionError) as info:
            self.read(tmp_path, f"{self.RECORD}\n{line}\n")
        assert str(info.value) == f"{tmp_path / 'corpus.jsonl'} {message}"

    def test_blank_lines_skipped_and_numbered(self, tmp_path):
        text = f"\n   \n{self.RECORD}\n\t\n{{bad\n"
        with pytest.raises(IngestionError) as info:
            self.read(tmp_path, text)
        assert str(info.value).startswith(
            f"{tmp_path / 'corpus.jsonl'} line 5: invalid JSON")
        assert self.read(tmp_path, f"\n \t\n{self.RECORD}\n\n") == [
            {"id": "a", "text": "x"}]

    def test_padded_line_accepted(self, tmp_path):
        assert self.read(tmp_path, f"  \t{self.RECORD} \u00a0 \n") == [
            {"id": "a", "text": "x"}]


class TestLoadCorpus:
    @pytest.mark.parametrize("line, message", [
        ('{"id": "d1", "text": "y"}', "line 4: duplicate document id 'd1'"),
        ('{"id": "d2"}', "line 4: missing or invalid 'text'"),
        ("5", "line 4: record is not an object"),
        ('{"id": "d2", "text": }', "line 4: invalid JSON: "),
        ('{"id": "d2", "text": "y", "groups": ["male"]}',
         "line 4: 'groups' must be an object"),
        # the first record at fault is named, not a later line's bad JSON
        ('{"id": "d1", "text": "y"}\n{"id": "d5", "text": }',
         "line 4: duplicate document id 'd1'"),
    ], ids=["duplicate-id", "no-text", "not-an-object", "invalid-json",
            "groups-not-an-object", "duplicate-id-before-invalid-json"])
    def test_record_error_names_its_file_line(self, tmp_path, line, message):
        # the record at fault is the second, on line 4 after two blank lines
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(f'{{"id": "d1", "text": "x"}}\n\n  \n{line}\n')
        schema = tmp_path / "schema.json"
        schema.write_text('{"gender": ["male", "female", "Unknown"]}')
        with pytest.raises(IngestionError) as info:
            load_corpus(corpus, schema)
        assert str(info.value).startswith(f"{corpus} {message}")


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
        assert store.group_rows("gender", ["d1"])[0].tolist() == [0.0, 0.0, 1.0]

    def test_unknown_subgroup_label_rejected(self):
        records = [{"id": "d1", "text": "x", "groups": {"gender": ["martian"]}}]
        with pytest.raises(IngestionError) as info:
            ingest_corpus(records, [GENDER])
        assert str(info.value) == ("line 1: label 'martian' is not a subgroup "
                                   "of category 'gender' (document 'd1')")

    def test_duplicate_id_rejected(self):
        records = [
            {"id": "d1", "text": "x", "groups": {}},
            {"id": "d1", "text": "y", "groups": {}},
        ]
        with pytest.raises(IngestionError, match="line 2"):
            ingest_corpus(records, [GENDER])

    def test_malformed_record_reports_line(self):
        with pytest.raises(IngestionError, match="line 2"):
            ingest_corpus(
                [{"id": "d1", "text": "x"}, {"text": "no id"}], [GENDER]
            )

    @pytest.mark.parametrize("labels", [5, "male", {"male": 1}, ["male", 5],
                                        ["male", ["x"]], [{"male": 1}]],
                             ids=["int", "str", "dict", "list-with-int",
                                  "list-with-list", "list-with-dict"])
    def test_labels_must_be_a_list_of_strings(self, labels):
        records = [{"id": "d1", "text": "x", "groups": {}},
                   {"id": "d2", "text": "y", "groups": {"gender": labels}}]
        with pytest.raises(IngestionError, match="line 2") as info:
            ingest_corpus(records, [GENDER])
        assert "'gender'" in str(info.value) and "'d2'" in str(info.value)

    @pytest.mark.parametrize("labels", [None, []])
    def test_null_or_empty_labels_are_unknown(self, labels):
        records = [{"id": "d1", "text": "x", "groups": {"gender": labels}}]
        store = ingest_corpus(records, [GENDER])
        assert store.group_rows("gender", ["d1"])[0].tolist() == [0.0, 0.0, 1.0]

    def test_token_totals(self):
        records = [
            {"id": "d1", "text": "a b c", "groups": {}},
            {"id": "d2", "text": "d e", "groups": {}},
        ]
        # ingestion does not tokenise; the index counts the documents' tokens
        assert build_index(ingest_corpus(records, [GENDER])).avgdl == 2.5

    def test_roundtrip_is_stable(self):
        records = [
            {"id": "d1", "text": "Solar!", "groups": {"gender": ["female", "male"]}},
            {"id": "d2", "text": "wind", "groups": {}},
        ]
        def record(store, doc_id):
            labels = [s for s, mass in zip(GENDER.subgroups,
                                           store.group_rows("gender", [doc_id])[0])
                      if mass > 0]
            return {"id": doc_id, "text": store.texts[store.rows[doc_id]],
                    "groups": {"gender": sorted(labels)}}

        store = ingest_corpus(records, [GENDER])
        serialized = [record(store, d) for d in sorted(store.rows)]
        store2 = ingest_corpus(serialized, [GENDER])
        serialized2 = [record(store2, d) for d in sorted(store2.rows)]
        assert serialized == serialized2
        assert (store.rows, store.texts) == (store2.rows, store2.texts)


    def test_documents_share_label_sets(self):
        records = [
            {"id": "d1", "text": "a", "groups": {"gender": ["female", "male"]}},
            {"id": "d2", "text": "b", "groups": {"gender": ["male", "female"]}},
            {"id": "d3", "text": "c", "groups": {}},
            {"id": "d4", "text": "d", "groups": {"gender": ["Unknown"]}},
        ]
        store = ingest_corpus(records, [GENDER])

        def vector(doc_id):
            return store.group_rows("gender", [doc_id])[0].tolist()

        assert vector("d1") == vector("d2") == [0.5, 0.5, 0.0]
        assert vector("d3") == vector("d4") == [0.0, 0.0, 1.0]

    def test_group_matrix_layout(self):
        records = [
            {"id": "d2", "text": "a", "groups": {"gender": ["female"]}},
            {"id": "d1", "text": "b", "groups": {"gender": ["male", "male"]}},
        ]
        store = ingest_corpus(records, [GENDER])
        matrix = store.groups["gender"]
        # id order, then the row of an id outside the corpus
        assert store.rows == {"d1": 0, "d2": 1} and store.texts == ["b", "a"]
        assert store.ids == ("d1", "d2")
        assert matrix.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
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
        assert kept / 20_000 < 100


class TestDigest:
    @staticmethod
    def digest(texts: dict[str, str]) -> str:
        records = [{"id": d, "text": t} for d, t in texts.items()]
        return ingest_corpus(records, [GENDER]).digest

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

    def test_pinned_value(self):
        # the bytes hashed are those of index version 3's digests
        assert self.digest({"d2": "c", "d1": "a b"}) == (
            "dede67e18e4759069795a92a4e397bd61d76bbc1db562c5ce18e9799d13d58dd")

    def test_lone_surrogate_digests(self):
        assert len(self.digest({"d1": "a \ud800 b"})) == 64


class TestGroupVector:
    def test_single_label(self, tiny_store):
        assert tiny_store.group_rows("gender", ["d1"])[0].tolist() == [1.0, 0.0, 0.0]

    def test_unlabeled_goes_to_unknown(self, tiny_store):
        assert tiny_store.group_rows("gender", ["d3"])[0].tolist() == [0.0, 0.0, 1.0]
        # an id outside the corpus reads the last row, all mass on Unknown
        assert tiny_store.group_rows("gender", ["nope"])[0].tolist() == [
            0.0, 0.0, 1.0]

    def test_fractional_attribution_matches_l1_normalized_indicator(self):
        # oracle: indicator vector over the schema divided by its L1 norm
        labels = {"region03", "region07"}
        records = [{"id": "d1", "text": "x", "groups": {"geography": sorted(labels)}}]
        store = ingest_corpus(records, [GEO])
        indicator = np.array([1.0 if s in labels else 0.0 for s in GEO.subgroups])
        expected = indicator / indicator.sum()
        assert np.allclose(store.group_rows("geography", ["d1"])[0], expected)
        assert store.group_rows("geography", ["d1"])[0][GEO.subgroups.index("region03")] == 0.5

    def test_unknown_category_raises(self, tiny_store):
        with pytest.raises(CorpusLookupError):
            tiny_store.group_rows("age", ["d1"])

    @given(st.sets(st.sampled_from(["male", "female", "Unknown"]), min_size=1))
    def test_always_on_simplex(self, labels):
        records = [{"id": "d1", "text": "x", "groups": {"gender": sorted(labels)}}]
        store = ingest_corpus(records, [GENDER])
        vec = store.group_rows("gender", ["d1"])[0]
        assert (vec >= 0).all()
        assert abs(vec.sum() - 1.0) < 1e-12
