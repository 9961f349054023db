import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bm25_reference import reference_ranking, reference_score
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

GENDER = GroupSchema("g", ("a", "Unknown"))


def make_store(texts: dict[str, str]):
    records = [{"id": d, "text": t, "groups": {}} for d, t in texts.items()]
    return ingest_corpus(records, [GENDER])


class TestBuild:
    def test_postings_and_stats(self):
        index = build_index(make_store({"d1": "a b", "d2": "b"}))
        assert index.postings["a"] == {"d1": 1}
        assert index.postings["b"] == {"d1": 1, "d2": 1}
        assert index.avgdl == 1.5
        assert index.n_documents == 2

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
        index = build_index(make_store({"d1": "a"}))
        with pytest.raises(CorpusLookupError):
            bm25_scores(index, ["a"], ["nope"])

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
                    reference_score(index, tokens, entry.doc_id), abs=1e-9
                )

    @given(
        st.lists(st.lists(st.sampled_from("abcde"), max_size=6),
                 min_size=1, max_size=8),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=10),
    )
    def test_matches_reference_on_random_corpora(self, texts, query, pool):
        index = build_index(make_store(
            {f"d{i}": " ".join(t) for i, t in enumerate(texts)}
        ))
        ranked = retrieve(index, " ".join(query), pool)
        assert [(e.doc_id, e.score) for e in ranked.entries] == (
            reference_ranking(index, query, pool)
        )

    def test_concurrent_first_use_matches_sequential(self, synth):
        queries = [f"{q} {m}" for _, q in synth["queries"]
                   for m in ("", "markerfemale", "markermale report")]
        expected = [retrieve(build_index(synth["store"]), q, 30) for q in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                index = build_index(synth["store"])  # no term computed yet
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


class TestPersistence:
    def test_roundtrip(self, tmp_path, synth):
        path = tmp_path / "index.json"
        save_index(synth["index"], path)
        loaded = load_index(path)
        assert loaded == synth["index"]
        assert retrieve(loaded, "topic00", 20) == retrieve(
            synth["index"], "topic00", 20
        )

    def test_unsorted_postings_file_scores_the_same(self, tmp_path, synth):
        path = tmp_path / "index.json"
        save_index(synth["index"], path)
        payload = json.loads(path.read_text())
        payload["postings"] = {term: dict(reversed(docs.items()))
                               for term, docs in payload["postings"].items()}
        path.write_text(json.dumps(payload))
        loaded = load_index(path)
        for query in ("topic00", "topic01 markerfemale"):
            ranked = retrieve(loaded, query, 50)
            assert ranked == retrieve(synth["index"], query, 50)
            tokens = tokenize(query)
            assert bm25_scores(loaded, tokens, ranked.doc_ids()) == [
                e.score for e in ranked.entries]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not-index.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(IndexBuildError):
            load_index(path)
