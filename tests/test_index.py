import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bm25_reference import reference_ranking, reference_score
from fairqr import index as index_module
from fairqr.corpus import GroupSchema, ingest_corpus, tokenize
from fairqr.errors import (
    CorpusLookupError,
    EmptyQueryError,
    IndexBuildError,
)
from fairqr.index import (
    InvertedIndex,
    bm25_scores,
    build_index,
    load_index,
    make_ranked_list,
    retrieve,
    save_index,
)
from fairqr.synthetic import SkewSpec, generate

GENDER = GroupSchema("g", ("a", "Unknown"))


def make_store(texts: dict[str, str]):
    records = [{"id": d, "text": t, "groups": {}} for d, t in texts.items()]
    return ingest_corpus(records, [GENDER])


class TestBuild:
    def test_postings_and_stats(self):
        index = build_index(make_store({"d2": "b b", "d1": "a b"}))
        assert index.doc_ids == ("d1", "d2")
        assert index.vocabulary == {"a": 0, "b": 1}
        assert index.indptr.tolist() == [0, 1, 3]     # a: d1; b: d1, d2
        assert index.positions.tolist() == [0, 0, 1]
        assert index.tf.tolist() == [1, 1, 2]
        assert index.lengths.tolist() == [2, 2]
        assert index.avgdl == 2.0
        assert index.n_documents == 2

    def test_arrays_are_read_only(self):
        index = build_index(make_store({"d1": "a b", "d2": "b"}))
        for array in (index.indptr, index.positions, index.tf, index.lengths,
                      index.gains, index.max_gains):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("docs", [10_000, 20_000])
    def test_build_transients_stay_under_twice_the_index(self, docs):
        spec = SkewSpec(seed=1, doc_count=docs, topic_count=docs // 100,
                        skew=0.6)
        records = generate(spec)[0]
        store = ingest_corpus(records, [GroupSchema(spec.category,
                                                    spec.subgroups)])
        del records
        tracemalloc.start()
        try:
            index = build_index(store)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.n_documents == docs
        assert peak <= 2 * kept

    def test_single_doc_avgdl(self):
        index = build_index(make_store({"d1": "x y z"}))
        assert index.avgdl == 3.0

    def test_rebuild_identical(self):
        store = make_store({"d1": "a b a", "d2": "b c"})
        assert build_index(store) == build_index(store)

    def test_empty_corpus_rejected(self):
        with pytest.raises(IndexBuildError):
            build_index(make_store({}))


class TestScore:
    def test_absent_term_contributes_zero(self):
        index = build_index(make_store({"d1": "a", "d2": "a b"}))
        with_b = bm25_scores(index, ["a", "b"], ["d1"])[0]
        without = bm25_scores(index, ["a"], ["d1"])[0]
        assert with_b == without

    def test_hand_computed_tf1(self):
        # N=2, df=1, tf=1, dl=avgdl: idf = ln 2; tf part = 2.2/2.2 = 1
        index = build_index(make_store({"d1": "q x", "d2": "y z"}))
        assert bm25_scores(index, ["q"], ["d1"])[0] == pytest.approx(
            math.log(2.0), abs=1e-4
        )

    def test_hand_computed_tf2(self):
        # tf=2 at dl=avgdl: ln 2 * (2*2.2)/(2+1.2) = 0.95308
        index = build_index(make_store({"d1": "q q", "d2": "y z"}))
        assert bm25_scores(index, ["q"], ["d1"])[0] == pytest.approx(0.95308, abs=1e-4)

    def test_unknown_doc_raises(self):
        index = build_index(make_store({"d1": "a", "d3": "a"}))
        for unknown in ("nope", "d0", "d2"):  # after, before, between
            with pytest.raises(CorpusLookupError):
                bm25_scores(index, ["a"], ["d1", unknown])

    @given(st.integers(min_value=1, max_value=20))
    def test_monotone_in_tf(self, tf):
        base = build_index(make_store({"d1": "q " * tf, "d2": "pad pad pad"}))
        more = build_index(make_store({"d1": "q " * (tf + 1), "d2": "pad pad pad"}))
        assert (bm25_scores(more, ["q"], ["d1"])[0]
                >= bm25_scores(base, ["q"], ["d1"])[0])


class TestRetrieve:
    def test_no_match_is_empty(self):
        index = build_index(make_store({"d1": "a", "d2": "b"}))
        assert len(retrieve(index, "zzz", 10)) == 0

    def test_tie_broken_by_doc_id(self):
        index = build_index(make_store({"d2": "q", "d1": "q", "d3": "x"}))
        assert retrieve(index, "q", 10).doc_ids() == ["d1", "d2"]

    def test_ties_straddling_the_pool_cut_keep_lowest_doc_ids(self):
        index = build_index(make_store({
            "d4": "q", "d2": "q", "d9": "q q q", "d3": "q", "d1": "q"}))
        assert retrieve(index, "q", 3).doc_ids() == ["d9", "d1", "d2"]
        assert retrieve(index, "q x", 2).doc_ids() == ["d9", "d1"]

    def test_corpus_without_tokens_retrieves_nothing(self):
        index = build_index(make_store({"d1": "!!!", "d2": "..."}))
        assert index.avgdl == 0.0
        assert len(retrieve(index, "a", 5)) == 0

    def test_pool_larger_than_matches(self):
        index = build_index(make_store({"d1": "q", "d2": "q r", "d3": "s"}))
        assert len(retrieve(index, "q", 100)) == 2

    def test_empty_query_raises(self):
        index = build_index(make_store({"d1": "a"}))
        with pytest.raises(EmptyQueryError):
            retrieve(index, "!!!", 10)

    def test_scores_match_independent_rescoring(self, synth):
        index = synth["index"]
        for query_id, qtext in synth["queries"][:3]:
            ranked = retrieve(index, qtext, 50, query_id)
            tokens = tokenize(qtext)
            for entry in ranked.entries:
                assert entry.score == pytest.approx(
                    reference_score(synth["store"], tokens, entry.doc_id),
                    abs=1e-9
                )

    @given(
        st.lists(st.lists(st.sampled_from("abcde"), max_size=6),
                 min_size=1, max_size=8),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=10),
    )
    def test_matches_reference_on_random_corpora(self, texts, query, pool):
        store = make_store({f"d{i}": " ".join(t) for i, t in enumerate(texts)})
        ranked = retrieve(build_index(store), " ".join(query), pool)
        assert [(e.doc_id, e.score) for e in ranked.entries] == (
            reference_ranking(store, query, pool)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([0, 1, 1, 1, 2, 4, 8]),
                           st.lists(st.sampled_from("abcd"), max_size=2),
                           st.integers(min_value=0, max_value=8)),
                 min_size=1, max_size=30),
        st.lists(st.sampled_from("abcdmq"), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=35),
    )
    def test_pruned_retrieval_matches_reference(self, docs, query, pool):
        # "m" is in most documents, "a"-"d" in few, "q" in none: the shape
        # of a refined query, whose candidates mostly come from the rare
        # terms and whose common term's postings are only looked up. Padding with "z"
        # spreads the lengths, so the bound sometimes nears the pool's cut.
        store = make_store({
            f"d{i}": " ".join(["m"] * tf + rare + ["z"] * pad)
            for i, (tf, rare, pad) in enumerate(docs)})
        index = build_index(store)
        ranked = retrieve(index, " ".join(query), pool)
        assert [(e.doc_id, e.score) for e in ranked.entries] == (
            reference_ranking(store, query, pool))
        doc_ids = sorted(store.documents)
        assert bm25_scores(index, query, doc_ids) == [
            reference_score(store, query, d) for d in doc_ids]

    def test_outside_document_tied_at_the_cut_is_scored(self):
        # a and m have equal largest gains, so a's document is the first
        # candidate and m's bound equals the pool's cut: d1, outside the
        # candidates, ties with d2 and wins on its doc id.
        store = make_store({"d1": "m", "d2": "a"})
        ranked = retrieve(build_index(store), "a m", 1)
        assert ranked.ids == ("d1",)
        assert [(e.doc_id, e.score) for e in ranked.entries] == (
            reference_ranking(store, ["a", "m"], 1))

    def test_common_term_postings_are_not_scored(self, synth, monkeypatch):
        # topic00's largest gain is above markerfemale's, so its 50 postings
        # are the first candidates, and their 20th best score is above
        # markerfemale's largest gain: no other document is scored.
        index, score = synth["index"], index_module._scores
        scored = []

        def spy(hits, positions):
            scored.append(positions.tolist())
            return score(hits, positions)

        monkeypatch.setattr(index_module, "_scores", spy)
        ranked = retrieve(index, "topic00 markerfemale", 20)
        t = index.vocabulary["topic00"]
        topic = index.positions[index.indptr[t]:index.indptr[t + 1]].tolist()
        assert scored == [topic]
        assert len(ranked) == 20
        monkeypatch.undo()
        assert retrieve(index, "topic00 markerfemale", 20) == ranked

    def test_concurrent_first_use_matches_sequential(self, synth):
        queries = [f"{q} {m}" for _, q in synth["queries"]
                   for m in ("", "markerfemale", "markermale report")]
        expected = [retrieve(build_index(synth["store"]), q, 30) for q in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                index = build_index(synth["store"])
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(retrieve, index, q, 30)
                               for q in queries]
                    assert [f.result(timeout=60) for f in futures] == expected
        finally:
            sys.setswitchinterval(interval)

    def test_ranks_contiguous_scores_nonincreasing(self, synth):
        ranked = retrieve(synth["index"], "topic00", 50)
        ranks = [e.rank for e in ranked.entries]
        assert ranks == list(range(1, len(ranks) + 1))
        scores = [e.score for e in ranked.entries]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic(self, synth):
        a = retrieve(synth["index"], "topic01", 30)
        b = retrieve(synth["index"], "topic01", 30)
        assert a == b

    def test_top_is_the_leading_entries(self, synth):
        ranked = retrieve(synth["index"], "topic01", 30, "q1")
        top = ranked.top(5)
        assert top == make_ranked_list(
            "q1", [(e.doc_id, e.score) for e in ranked.entries[:5]])
        assert [e.rank for e in top.entries] == [1, 2, 3, 4, 5]

    def test_kept_results_hold_no_per_entry_objects(self, synth):
        # A run keeps every query's list: with one object and one boxed float
        # per entry a 20-deep list held 2.7 KB, as ids plus doubles 0.6 KB.
        retrieve(synth["index"], "topic01", 20)  # the term's arrays
        kept = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                kept.append(retrieve(synth["index"], "topic01", 20))
            per_list = (tracemalloc.get_traced_memory()[0] - before) / 100
        finally:
            tracemalloc.stop()
        assert len(kept[0]) == 20
        assert per_list < 1000


class TestDocTerms:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(["a", "B", "b", "c-d", "e", "", "!", "?!"]),
                 max_size=6).map(" ".join),
        min_size=1, max_size=12))
    def test_each_document_slice_is_its_sorted_term_ids(self, texts):
        # "", "!" and "?!" tokenise to nothing, so some documents are empty
        store = make_store({f"d{i:02d}": t for i, t in enumerate(texts)})
        index = build_index(store)
        indptr, terms = index.doc_terms
        assert len(indptr) == index.n_documents + 1
        for at, doc_id in enumerate(index.doc_ids):
            tokens = set(tokenize(store.document(doc_id).text))
            expected = sorted(index.vocabulary[t] for t in tokens)
            assert terms[indptr[at]:indptr[at + 1]].tolist() == expected

    def test_loaded_index_has_the_built_view(self, tmp_path, synth):
        path = tmp_path / "index.npz"
        save_index(synth["index"], path)
        built, loaded = synth["index"].doc_terms, load_index(path).doc_terms
        for a, b in zip(built, loaded):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        indptr, terms = built  # each document's terms strictly ascending
        doc = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        same_doc = doc[1:] == doc[:-1]
        assert same_doc.any()
        assert (terms[1:][same_doc] > terms[:-1][same_doc]).all()

    def test_arrays_are_read_only(self):
        index = build_index(make_store({"d1": "a b", "d2": "b"}))
        for array in index.doc_terms:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_costs_two_bytes_a_posting_and_four_a_document(self):
        spec = SkewSpec(seed=1, doc_count=20_000, topic_count=200, skew=0.6)
        store = ingest_corpus(generate(spec)[0],
                              [GroupSchema(spec.category, spec.subgroups)])
        index = build_index(store)
        tracemalloc.start()
        try:
            view = index.doc_terms
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(view[1]) == len(index.positions)
        assert kept <= 2 * len(index.positions) + 4 * index.n_documents + 1024


class TestPersistence:
    def test_roundtrip(self, tmp_path, synth):
        path = tmp_path / "index.json"
        save_index(synth["index"], path)
        loaded = load_index(path)
        assert loaded == synth["index"]
        assert retrieve(loaded, "topic00", 20) == retrieve(
            synth["index"], "topic00", 20
        )

    def test_saves_to_exactly_the_given_path(self, tmp_path):
        save_index(build_index(make_store({"d1": "a"})), tmp_path / "idx.json")
        assert [p.name for p in tmp_path.iterdir()] == ["idx.json"]

    def test_unsorted_postings_file_is_rejected(self, tmp_path, synth):
        # save_index never writes a term's documents out of order
        path = tmp_path / "index.json"
        save_index(synth["index"], path)
        arrays = rewrite(path)
        indptr, positions, tf = arrays["indptr"], arrays["positions"], arrays["tf"]
        for lo, hi in zip(indptr[:-1], indptr[1:]):  # each term's documents
            positions[lo:hi], tf[lo:hi] = positions[lo:hi][::-1].copy(), \
                tf[lo:hi][::-1].copy()
        rewrite(path, arrays)
        with pytest.raises(IndexBuildError, match="rerun `fairqr index`") as err:
            load_index(path)
        assert "out of order" in str(err.value)

    def test_term_without_postings_loads_and_scores_nothing(self, tmp_path):
        # postings a: d1 (tf 2); b: d1, d2; c: d2, d3; the archive lists
        # "zz", with no postings, between a and b
        index = build_index(make_store({"d1": "a b a", "d2": "b c", "d3": "c"}))
        path = tmp_path / "idx.json"
        save_index(index, path)
        arrays = rewrite(path)
        meta = json.loads(arrays["meta"].tobytes())
        meta["terms"] = ["a", "zz", "b", "c"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        arrays["indptr"] = np.insert(arrays["indptr"], 1, 1)
        rewrite(path, arrays)
        loaded = load_index(path)
        vocabulary = loaded.vocabulary
        assert loaded.max_gains[vocabulary["zz"]] == 0.0
        for term in ("a", "b", "c"):
            t = vocabulary[term]
            assert loaded.max_gains[t] == index.max_gains[index.vocabulary[term]]
            assert loaded.max_gains[t] == loaded.gains[
                loaded.indptr[t]:loaded.indptr[t + 1]].max()
        for pool in (1, 2, 3):
            ranked = retrieve(loaded, "zz b a", pool)
            assert ranked == retrieve(loaded, "b a", pool)
            assert ranked == retrieve(index, "b a", pool)
        assert retrieve(loaded, "zz b a", 3).ids == ("d1", "d2")
        assert len(retrieve(loaded, "zz", 3)) == 0

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not-index.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(IndexBuildError):
            load_index(path)

    @pytest.mark.parametrize("damage, reason", [
        ("garbage", "not an .npz archive"),
        ("version-1 json", "not an .npz archive"),
        ("truncated", "not a zip file"),
        ("object array", "allow_pickle"),
        ("version 1", "version 1"),
        ("meta not an object", "not an index file"),
        ("unsorted doc ids", "doc ids"),
        ("float positions", "integers"),
        ("indptr not monotone", "indptr"),
        ("indptr too short", "indptr"),
        ("position >= N", "out of range"),
        ("position < 0", "out of range"),
        ("tf 0", "tf is below 1"),
        ("lengths too short", "lengths disagree"),
        ("lengths disagree", "lengths disagree"),
        ("document twice in a term", "twice"),
        ("k1 2.0", "k1=2.0"),
        ("b 0.5", "b=0.5"),
    ])
    def test_malformed_file_is_rejected(self, tmp_path, damage, reason):
        # postings a: d1 (tf 2); b: d1, d2; c: d2, d3
        index = build_index(make_store({"d1": "a b a", "d2": "b c", "d3": "c"}))
        path = tmp_path / "idx.json"
        save_index(index, path)
        data = path.read_bytes()
        arrays = rewrite(path)
        meta = json.loads(arrays["meta"].tobytes())
        if damage == "garbage":
            path.write_bytes(bytes(range(256)) * 4)
        elif damage == "version-1 json":
            path.write_text('{"format": "fairqr-index", "version": 1}')
        elif damage == "truncated":
            path.write_bytes(data[:len(data) // 2])
        elif damage == "object array":
            arrays["tf"] = np.array([1, "x"], dtype=object)
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
        else:
            if damage == "version 1":
                meta["version"] = 1
            elif damage == "unsorted doc ids":
                meta["doc_ids"] = ["d2", "d1", "d3"]
            elif damage == "meta not an object":
                meta = ["fairqr-index"]
            elif damage == "k1 2.0":
                meta["k1"] = 2.0
            elif damage == "b 0.5":
                meta["b"] = 0.5
            elif damage == "indptr not monotone":
                arrays["indptr"] = np.array([0, 3, 2, 5])
            elif damage == "indptr too short":
                arrays["indptr"] = arrays["indptr"][:-1]
            elif damage == "float positions":
                arrays["positions"] = arrays["positions"].astype(float)
            elif damage == "lengths too short":
                arrays["lengths"] = arrays["lengths"][:-1]
            elif damage == "lengths disagree":
                arrays["lengths"][0] += 1
            elif damage == "document twice in a term":
                arrays["positions"][2] = 0  # b: d1, d1
                arrays["lengths"][:] = 4, 1, 1
            else:  # posting 2 is b's d2
                at, value = {"position >= N": ("positions", 3),
                             "position < 0": ("positions", -1),
                             "tf 0": ("tf", 0)}[damage]
                arrays[at][2] = value
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
            rewrite(path, arrays)
        with pytest.raises(IndexBuildError, match="rerun `fairqr index`") as err:
            load_index(path)
        assert str(path) in str(err.value) and reason in str(err.value)


def rewrite(path, arrays=None):
    """The arrays of a saved index, as writable copies; with `arrays`,
    write those to `path` instead."""
    if arrays is None:
        with np.load(path) as npz:
            return {name: npz[name].copy() for name in npz.files}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
