import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bm25_reference import (
    reference_postings,
    reference_ranking,
    reference_score,
)
from mmr_reference import exhaustive_mmr
from fairqr import index as index_module
from fairqr.corpus import GroupSchema, ingest_corpus, tokenize
from fairqr.errors import (
    CorpusLookupError,
    EmptyQueryError,
    IndexBuildError,
    UsageError,
)
from fairqr.index import (
    InvertedIndex,
    build_index,
    load_index,
    make_ranked_list,
    retrieve,
    save_index,
)
from fairqr.rerank import mmr_rerank, semantic_rerank
from fairqr.synthetic import SkewSpec, generate

GENDER = GroupSchema("g", ("a", "Unknown"))


def dense_gains(index):
    """The bytes of each cached query term's dense gains, by term."""
    return {term: hit[3].tobytes() for term, hit in index._entries.items()
            if hit and hit[3] is not None}


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
        assert index.avgdl == 2.0  # each document holds two tokens
        assert index.n_documents == 2

    def test_arrays_are_read_only(self):
        index = build_index(make_store({"d1": "a b", "d2": "b"}))
        _, positions, gains, _ = index._query_terms(["b"])[0]
        for array in (index.indptr, index.positions, index.tf, index.gains,
                      positions, gains):
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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(["a", "B", "b", "c-d", "e", "", "\0", "!"]),
                 max_size=6).map(" ".join),
        min_size=1, max_size=12))
    def test_matches_per_document_reference_across_blocks(self, texts):
        # two texts a block, so most documents' postings cross a block edge;
        # ids out of ingest order, so ingestion moves texts to their rows
        store = make_store({f"d{(i * 37) % 101:03d}": t
                            for i, t in enumerate(texts)})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(index_module, "_BLOCK", 2)
            index = build_index(store)
            assert_matches_reference(index, store)
        assert (np.diff(index.indptr) >= 1).all()  # as load_index requires

    @pytest.mark.parametrize("texts", [[""], ["", " ", "\0", "\t\n"]],
                             ids=["one", "four"])
    def test_corpus_of_empty_texts(self, tmp_path, texts):
        store = make_store({f"d{i}": t for i, t in enumerate(texts)})
        index = build_index(store)
        assert_matches_reference(index, store)
        assert index.avgdl == 0.0 and index.doc_terms[1].size == 0
        assert len(retrieve(index, "a", 5)) == 0
        save_index(index, tmp_path / "index.npz")
        assert load_index(tmp_path / "index.npz") == index

    # (documents, terms): the (terms + 1) * documents sort keys just below
    # and at 2**8, 2**16 and 2**32, where their dtype widens
    @pytest.mark.parametrize("docs, terms", [
        (1, 254), (1, 255), (1, 65534), (1, 65535),
        (65536, 65534), (65536, 65535)])
    def test_matches_reference_where_the_key_dtype_widens(self, docs, terms):
        # token j is term (11 * j) mod terms, in document j mod docs; 11 is
        # prime to every term count here, so each term occurs
        texts = [[] for _ in range(docs)]
        for j in range(terms + docs):
            texts[j % docs].append(f"t{11 * j % terms}")
        store = make_store({f"d{i:05d}": " ".join(t)
                            for i, t in enumerate(texts)})
        index = build_index(store)
        assert len(index.vocabulary) == terms
        assert_matches_reference(index, store)

    def test_single_doc_avgdl(self):
        index = build_index(make_store({"d1": "x y z"}))
        assert index.avgdl == 3.0

    def test_rebuild_identical(self):
        store = make_store({"d1": "a b a", "d2": "b c"})
        assert build_index(store) == build_index(store)

    def test_empty_corpus_rejected(self):
        with pytest.raises(IndexBuildError):
            build_index(make_store({}))


def assert_matches_reference(index, store):
    vocabulary, indptr, positions, tf = reference_postings(store)
    assert list(index.vocabulary.items()) == list(vocabulary.items())
    assert index.indptr.tolist() == indptr and index.indptr.dtype == np.int64
    assert (index.positions.tolist() == positions
            and index.positions.dtype == np.int32)
    assert (index.tf.tolist() == tf
            and index.tf.dtype == np.min_scalar_type(max(tf, default=1)))
    assert index.digest == store.digest


def score_of(index, tokens, doc_ids):
    """BM25 scores of doc_ids, in order, as floats."""
    return index.scores(tokens, index.doc_positions(doc_ids)).tolist()


class TestScore:
    def test_absent_term_contributes_zero(self):
        index = build_index(make_store({"d1": "a", "d2": "a b"}))
        with_b = score_of(index, ["a", "b"], ["d1"])[0]
        without = score_of(index, ["a"], ["d1"])[0]
        assert with_b == without

    def test_hand_computed_tf1(self):
        # N=2, df=1, tf=1, dl=avgdl: idf = ln 2; tf part = 2.2/2.2 = 1
        index = build_index(make_store({"d1": "q x", "d2": "y z"}))
        assert score_of(index, ["q"], ["d1"])[0] == pytest.approx(
            math.log(2.0), abs=1e-4
        )

    def test_hand_computed_tf2(self):
        # tf=2 at dl=avgdl: ln 2 * (2*2.2)/(2+1.2) = 0.95308
        index = build_index(make_store({"d1": "q q", "d2": "y z"}))
        assert score_of(index, ["q"], ["d1"])[0] == pytest.approx(0.95308, abs=1e-4)

    def test_unknown_doc_raises(self):
        index = build_index(make_store({"d1": "a", "d3": "a"}))
        for unknown in ("nope", "d0", "d2"):  # after, before, between
            with pytest.raises(CorpusLookupError):
                index.doc_positions(["d1", unknown])

    def test_unknown_doc_raises_from_an_iterator(self):
        # the ids are read once: each is checked as it is looked up
        index = build_index(make_store({"d1": "a", "d3": "a"}))
        with pytest.raises(CorpusLookupError):
            index.doc_positions(iter(["d1", "nope", "d2"]))
        assert index.doc_positions(iter(["d3", "d1"])).tolist() == [1, 0]

    @given(st.integers(min_value=1, max_value=20))
    def test_monotone_in_tf(self, tf):
        base = build_index(make_store({"d1": "q " * tf, "d2": "pad pad pad"}))
        more = build_index(make_store({"d1": "q " * (tf + 1), "d2": "pad pad pad"}))
        assert (score_of(more, ["q"], ["d1"])[0]
                >= score_of(base, ["q"], ["d1"])[0])


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

    @pytest.mark.parametrize("pool_size", [0, -1])
    def test_pool_size_below_one_is_usage_error(self, pool_size):
        index = build_index(make_store({"d1": "a"}))
        with pytest.raises(UsageError, match="pool_size must be >= 1"):
            retrieve(index, "a", pool_size)

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
        doc_ids = sorted(store.rows)
        assert score_of(index, query, doc_ids) == [
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

    @pytest.mark.parametrize("query", ["topic00 markerfemale", "topic00"])
    def test_the_pool_cut_is_found_once(self, synth, monkeypatch, query):
        # one candidate set, topic00's 50 postings: its 20th best score is
        # both the MaxScore bound's test and the cut the ties are kept at
        partition, calls = np.partition, []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return partition(*args, **kwargs)

        monkeypatch.setattr(np, "partition", counted)
        ranked = retrieve(synth["index"], query, 20)
        assert calls == [30] and len(ranked) == 20

    def test_concurrent_first_use_matches_sequential(self, synth):
        # every thread's first query holds a marker, so threads race to
        # derive the markers' dense gains on each new index
        markers = ("markerfemale", "markermale")
        queries = [f"{q} {m}" for _, q in synth["queries"]
                   for m in markers + ("", "markermale report")]
        sequential = build_index(synth["store"])
        expected = [retrieve(sequential, q, 30) for q in queries]
        dense = dense_gains(sequential)
        assert set(markers) <= set(dense)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                index = build_index(synth["store"])
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(retrieve, index, q, 30)
                               for q in queries]
                    assert [f.result(timeout=60) for f in futures] == expected
                assert dense_gains(index) == dense
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


def cut_store():
    """40 documents, so a term in 5 or more is common: "below" is in 4,
    "at" in 5, "above" in 6 and "every" in all, at tf 1 to 3; filler terms
    spread the lengths and give documents terms in common."""
    texts = {}
    for i in range(40):
        tokens = ["every"] * (1 + i % 3) + [f"f{i % 10}"] * (i % 4)
        tokens += ["below"] * (i % 10 == 3) + ["at"] * (1 + i % 3) * (i % 8 == 0)
        tokens += ["above"] * (i % 7 == 1)
        texts[f"d{(i * 17) % 40:02d}"] = " ".join(tokens)
    return make_store(texts)


class TestDenseGains:
    QUERIES = ["every", "at", "above", "below", "below at above every",
               "above below f1", "every at", "f2 below", "nowhere every"]

    @pytest.mark.parametrize("query", QUERIES)
    def test_rankers_match_the_references_around_the_cut(self, query):
        store = cut_store()
        index = build_index(store)
        tokens = tokenize(query)
        doc_ids = sorted(store.rows)
        assert score_of(index, tokens, doc_ids) == [
            reference_score(store, tokens, d) for d in doc_ids]
        for pool in (1, 3, 7, 40):
            ranked = retrieve(index, query, pool)
            assert [(e.doc_id, e.score) for e in ranked.entries] == (
                reference_ranking(store, tokens, pool))
        candidates = retrieve(index, "f0 f1 f2 f3 every", 40)
        reranked = semantic_rerank(candidates, query, index)
        assert [(e.doc_id, e.score) for e in reranked.entries] == sorted(
            ((d, reference_score(store, tokens, d)) for d in doc_ids),
            key=lambda pair: (-pair[1], pair[0]))
        out = mmr_rerank(candidates.top(12), query, store, index, 0.5, 8)
        assert list(zip(out.ids, out.scores)) == exhaustive_mmr(
            list(candidates.top(12).ids), query, store, 0.5, 8)
        # only the terms in at least an eighth of the documents have them
        assert set(dense_gains(index)) <= {"at", "above", "every"}

    def test_derived_once_read_only_and_never_saved(self, tmp_path):
        store = cut_store()
        index = build_index(store)
        first = index._query_terms(["every", "below", "at"])
        again = index._query_terms(["at", "every"])
        assert [hit[3] is None for hit in first] == [False, True, False]
        assert again[0][3] is first[2][3] and again[1][3] is first[0][3]
        # each term's largest gain, as a Python float, for MaxScore
        assert [hit[0] for hit in first] == [
            max(hit[2].tolist()) for hit in first]
        assert all(type(hit[0]) is float for hit in first)
        for _, positions, gains, dense in first[::2]:
            assert not dense.flags.writeable
            expected = np.zeros(index.n_documents)
            expected[positions] = gains
            assert dense.tobytes() == expected.tobytes()
        assert set(dense_gains(index)) == {"every", "at"}
        assert index == build_index(store)
        save_index(index, tmp_path / "index.npz")
        with np.load(tmp_path / "index.npz") as npz:
            assert sorted(npz.files) == ["indptr", "meta", "positions", "tf"]
        loaded = load_index(tmp_path / "index.npz")
        assert loaded == index and loaded._entries == {}


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
            tokens = set(tokenize(store.texts[store.rows[doc_id]]))
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
        ("version-2 archive", "version 2"),
        ("meta not an object", "not an index file"),
        ("unsorted doc ids", "doc ids"),
        ("duplicate doc ids", "doc ids"),
        ("non-string doc id", "malformed meta"),
        ("non-string term", "malformed meta"),
        ("term listed twice", "listed twice"),
        ("float positions", "integers"),
        ("indptr not monotone", "indptr"),
        ("indptr too short", "indptr"),
        ("position >= N", "out of range"),
        ("position < 0", "out of range"),
        ("tf 0", "tf is below 1"),
        ("document twice in a term", "twice"),
        ("term without postings", "a term has no postings"),
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
            elif damage == "version-2 archive":  # it also held the lengths
                meta["version"] = 2
                arrays["lengths"] = np.array([3, 2, 1], np.intc)
            elif damage == "unsorted doc ids":
                meta["doc_ids"] = ["d2", "d1", "d3"]
            elif damage == "duplicate doc ids":
                meta["doc_ids"] = ["d1", "d1", "d3"]
            elif damage == "non-string doc id":
                meta["doc_ids"] = ["d1", 2, "d3"]
            elif damage == "non-string term":
                meta["terms"] = ["a", 1, "c"]
            elif damage == "term listed twice":
                meta["terms"] = ["a", "b", "a"]
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
            elif damage == "document twice in a term":
                arrays["positions"][2] = 0  # b: d1, d1
            elif damage == "term without postings":  # "zz", between a and b
                meta["terms"] = ["a", "zz", "b", "c"]
                arrays["indptr"] = np.insert(arrays["indptr"], 1, 1)
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
