import gc
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bm25_reference import reference_score
from fairqr.corpus import GroupSchema, ingest_corpus, tokenize
from fairqr.errors import UsageError
from fairqr.fairness import target_from_qrels
from fairqr.index import (
    InvertedIndex,
    build_index,
    load_index,
    make_ranked_list,
    retrieve,
    save_index,
)
from fairqr.refine import LexiconRefiner, RefinerConfig, fair_qr
from fairqr.rerank import mmr_rerank, semantic_rerank
from mmr_reference import exhaustive_mmr, jaccard

SUBS = ("a", "Unknown")


def make_store(texts: dict[str, str]):
    records = [{"id": d, "text": t, "groups": {}} for d, t in texts.items()]
    return ingest_corpus(records, [GroupSchema("g", SUBS)])


class TestSemanticRerank:
    def test_singleton(self):
        index = build_index(make_store({"d1": "a b", "d2": "c"}))
        out = semantic_rerank(make_ranked_list("", [("d1", 1.0)]), "a", index)
        assert out.doc_ids() == ["d1"]
        assert out.entries[0].rank == 1

    def test_orders_by_original_query(self):
        index = build_index(make_store({"d1": "a x", "d2": "a a", "d3": "y z"}))
        pool = make_ranked_list("", [("d1", 2.0), ("d2", 1.0)])
        out = semantic_rerank(pool, "a", index)
        assert out.doc_ids() == ["d2", "d1"]

    def test_empty_set_is_empty(self):
        index = build_index(make_store({"d1": "a"}))
        assert len(semantic_rerank(make_ranked_list("", []), "a", index)) == 0

    def test_matches_brute_force(self, synth):
        index = synth["index"]
        pool = retrieve(index, "topic00 markerfemale", 5, "q00")
        out = semantic_rerank(pool, "topic00", index, "q00")
        assert sorted(out.doc_ids()) == sorted(pool.doc_ids())
        tokens = tokenize("topic00")
        expected = sorted(
            pool.doc_ids(),
            key=lambda d: (-reference_score(synth["store"], tokens, d), d),
        )
        assert out.doc_ids() == expected

    def test_rank_one_is_max_score(self, synth):
        index = synth["index"]
        pool = retrieve(index, "topic01 markerfemale", 20, "q01")
        out = semantic_rerank(pool, "topic01", index, "q01")
        tokens = tokenize("topic01")
        best = max(reference_score(synth["store"], tokens, d)
                   for d in pool.doc_ids())
        assert out.entries[0].score == best


class TestDocSimilarity:
    """MMR's similarity, read from the second pick's score at lambda 0.

    d1 is the more relevant document (or ties and sorts first), so it is
    picked first and d2's marginal score is -Jaccard(d1, d2).
    """

    @staticmethod
    def penalty(d1_text, d2_text):
        store = make_store({"d1": d1_text, "d2": d2_text})
        pool = make_ranked_list("", [("d1", 1.0), ("d2", 0.5)])
        out = mmr_rerank(pool, "a", store, build_index(store), 0.0, 2)
        assert out.doc_ids() == ["d1", "d2"]
        return -out.scores[1]

    def test_identical(self):
        assert self.penalty("a b c", "c a b") == 1.0

    def test_disjoint(self):
        assert self.penalty("a b", "c d") == 0.0

    def test_jaccard(self):
        assert self.penalty("a b c", "b c d") == 0.5

    def test_both_empty(self):
        assert self.penalty("", "!") == 1.0

    def test_oracle(self):
        store = make_store({"d1": "a b c", "d2": "b c d", "d3": "", "d4": ""})
        assert jaccard(store, "d1", "d2") == 0.5
        assert jaccard(store, "d1", "d3") == 0.0
        assert jaccard(store, "d3", "d4") == 1.0


class TestMMR:
    def test_lambda_one_is_relevance_order(self, synth):
        store, index = synth["store"], synth["index"]
        for query_id, qtext in synth["queries"]:
            candidates = retrieve(index, qtext, 30, query_id)
            out = mmr_rerank(candidates, qtext, store, index, 1.0, 20)
            assert out.doc_ids() == candidates.doc_ids()[:20]

    def test_lambda_zero_prefers_distinct(self):
        store = make_store({
            "d1": "a b c", "d2": "a b c", "d3": "a z w",
        })
        index = build_index(store)
        candidates = retrieve(index, "a", 3)
        out = mmr_rerank(candidates, "a", store, index, 0.0, 3)
        assert out.doc_ids()[1] == "d3"  # the distinct doc goes second

    @pytest.mark.parametrize("lam, k, message", [
        (-0.1, 5, r"lambda must be in \[0, 1\]"),
        (1.5, 5, r"lambda must be in \[0, 1\]"),
        (0.5, 0, "k must be >= 1"),
    ], ids=["lambda-below-0", "lambda-above-1", "k-0"])
    def test_argument_out_of_range_is_usage_error(self, synth, lam, k,
                                                  message):
        candidates = retrieve(synth["index"], "topic00", 20, "q00")
        with pytest.raises(UsageError, match=message):
            mmr_rerank(candidates, "topic00", synth["store"], synth["index"],
                       lam, k)

    def test_empty_candidates(self, synth):
        out = mmr_rerank(
            make_ranked_list("q", []), "topic00", synth["store"],
            synth["index"], 0.5, 5,
        )
        assert len(out) == 0

    def test_matches_exhaustive_greedy(self, synth):
        store, index = synth["store"], synth["index"]
        candidates = retrieve(index, "topic02", 4, "q02")
        out = mmr_rerank(candidates, "topic02", store, index, 0.5, 4)
        expected = exhaustive_mmr(candidates.doc_ids(), "topic02", store,
                                  0.5, 4)
        assert list(zip(out.ids, out.scores)) == expected

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    def test_matches_exhaustive_at_benchmark_shape(self, synth, lam):
        # the benchmark's pool of 100 and k of 20
        store, index = synth["store"], synth["index"]
        query = "topic02 markerfemale markermale"
        candidates = retrieve(index, query, 100, "q02")
        assert len(candidates) == 100
        out = mmr_rerank(candidates, query, store, index, lam, 20)
        expected = exhaustive_mmr(candidates.doc_ids(), query, store, lam, 20)
        assert list(zip(out.ids, out.scores)) == expected

    @pytest.mark.parametrize("texts", [
        ["a b", "c", "d e f", "g"],
        ["a b c"],
        ["", "!", "", "?"],
        ["a b", "", "a c", "!", "b"],
    ], ids=["no-shared-term", "single-document", "all-empty", "empty-mixed"])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_degenerate_pools_match_exhaustive(self, texts, lam):
        store = make_store({f"d{i}": t for i, t in enumerate(texts)})
        pool = sorted(store.rows, reverse=True)
        candidates = make_ranked_list("q", [(d, 0.0) for d in pool])
        out = mmr_rerank(candidates, "a", store, build_index(store), lam,
                         len(pool))
        assert list(zip(out.ids, out.scores)) == exhaustive_mmr(
            pool, "a", store, lam, len(pool))

    @settings(max_examples=150, deadline=None)
    @given(
        texts=st.lists(
            st.lists(st.sampled_from("abcdefg"), max_size=5).map(" ".join),
            min_size=1, max_size=12,
        ),
        extra=st.lists(st.sampled_from(["", "!", "a b", "c"]), max_size=4),
        lam=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                      st.floats(min_value=0.0, max_value=1.0)),
        data=st.data(),
    )
    def test_matches_oracle(self, texts, extra, lam, data):
        # sampled texts repeat (tied documents); "" and "!" are empty ones
        texts = texts + extra
        store = make_store({f"d{i:02d}": t for i, t in enumerate(texts)})
        index = build_index(store)
        query = data.draw(st.sampled_from("abcz"))
        ids = data.draw(st.permutations(sorted(store.rows)))
        pool = ids[:data.draw(st.integers(1, len(ids)))]
        k = data.draw(st.integers(1, len(pool) + 2))
        candidates = make_ranked_list("q", [(d, 0.0) for d in pool])
        out = mmr_rerank(candidates, query, store, index, lam, k)
        expected = exhaustive_mmr(pool, query, store, lam, k)
        assert list(zip(out.ids, out.scores)) == expected

    def test_tokenizes_only_the_query(self, monkeypatch):
        store = make_store({f"d{i:03d}": f"a w{i % 7} x{i % 11}"
                            for i in range(120)})
        index = build_index(store)
        candidates = retrieve(index, "a", 100)
        assert len(candidates) == 100
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr("fairqr.rerank.tokenize", counting)
        monkeypatch.setattr("fairqr.index.tokenize", counting)
        mmr_rerank(candidates, "a w1", store, index, 0.5, 20)
        assert calls == ["a w1"]

    def test_concurrent_first_use_matches_sequential(self, synth):
        store = synth["store"]
        pools = [retrieve(synth["index"], q, 60, qid)
                 for qid, q in synth["queries"]]
        expected = [mmr_rerank(p, q, store, synth["index"], 0.5, 20)
                    for p, (_, q) in zip(pools, synth["queries"])]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                index = build_index(store)  # its view not yet derived
                with ThreadPoolExecutor(max_workers=8) as executor:
                    futures = [executor.submit(mmr_rerank, p, q, store, index,
                                               0.5, 20)
                               for p, (_, q) in zip(pools, synth["queries"])]
                    assert [f.result(timeout=60) for f in futures] == expected
        finally:
            sys.setswitchinterval(interval)


class TestIndexPositions:
    """A list an index made carries that index's positions; any other list
    is looked up by id, and both re-rank alike."""

    QUERY = "topic00 markerfemale"

    def test_lists_of_either_path_rerank_alike(self, synth, tmp_path):
        store, index = synth["store"], synth["index"]
        ranked = retrieve(index, self.QUERY, 40, "q00")
        rebuilt = make_ranked_list("q00", list(zip(ranked.ids, ranked.scores)))
        save_index(index, tmp_path / "index.npz")
        other = retrieve(load_index(tmp_path / "index.npz"), self.QUERY, 40,
                         "q00")
        assert len(ranked) == 40 and ranked.source is index.doc_ids
        want_semantic = semantic_rerank(ranked, "topic00", index, "q00")
        want_mmr = mmr_rerank(ranked, "topic00", store, index, 0.5, 20)
        for candidates in (rebuilt, other):
            assert candidates == ranked
            assert candidates.source is not index.doc_ids
            assert (index.positions_of(candidates).tolist()
                    == index.positions_of(ranked).tolist())
            assert semantic_rerank(candidates, "topic00", index,
                                   "q00") == want_semantic
            assert mmr_rerank(candidates, "topic00", store, index, 0.5,
                              20) == want_mmr

    def test_index_made_lists_are_not_looked_up_by_id(self, synth,
                                                      monkeypatch):
        store, index = synth["store"], synth["index"]

        def refuse(self, doc_ids):
            raise AssertionError("looked up by id")

        monkeypatch.setattr(InvertedIndex, "doc_positions", refuse)
        pool = retrieve(index, self.QUERY, 60, "q00")
        assert len(mmr_rerank(pool, "topic00", store, index, 0.5, 20)) == 20
        target = target_from_qrels(synth["qrels"], store, "q00", "gender")
        config = RefinerConfig(category="gender", pool_size=20, k=20)
        fair_set, trace = fair_qr(index, store, "topic00", target, config,
                                  LexiconRefiner(synth["lexicon"]), "q00")
        assert not trace.error
        out = semantic_rerank(fair_set.top(20), "topic00", index, "q00")
        assert sorted(out.ids) == sorted(fair_set.ids)

    def test_kept_mmr_output_holds_positions_not_ids(self, synth):
        # A caller may keep every MMR output: a 100-deep pool and its top 20.
        # With tuples of ids the pair held about 2.5 KB, with index
        # positions 2.2 KB. Collecting empties the free lists, so only live
        # objects are counted.
        store, index = synth["store"], synth["index"]
        query = "markerfemale markermale"

        def run():
            pool = retrieve(index, query, 100, "q")
            return pool, mmr_rerank(pool, query, store, index, 0.5, 20)

        run()
        kept = []
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                kept.append(run())
            gc.collect()
            per_output = (tracemalloc.get_traced_memory()[0] - before) / 100
        finally:
            tracemalloc.stop()
        assert [len(ranked) for ranked in kept[0]] == [100, 20]
        assert per_output < 2400
