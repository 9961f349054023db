import pytest

from bm25_reference import reference_score
from fairqr.corpus import GroupSchema, ingest_corpus, tokenize
from fairqr.index import build_index, make_ranked_list, retrieve
from fairqr.rerank import doc_similarity, mmr_rerank, semantic_rerank

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
            key=lambda d: (-reference_score(index, tokens, d), d),
        )
        assert out.doc_ids() == expected

    def test_rank_one_is_max_score(self, synth):
        index = synth["index"]
        pool = retrieve(index, "topic01 markerfemale", 20, "q01")
        out = semantic_rerank(pool, "topic01", index, "q01")
        tokens = tokenize("topic01")
        best = max(reference_score(index, tokens, d) for d in pool.doc_ids())
        assert out.entries[0].score == best


class TestDocSimilarity:
    def test_identical(self):
        store = make_store({"d1": "a b c", "d2": "c a b"})
        assert doc_similarity(store, "d1", "d2") == 1.0

    def test_disjoint(self):
        store = make_store({"d1": "a b", "d2": "c d"})
        assert doc_similarity(store, "d1", "d2") == 0.0

    def test_jaccard(self):
        store = make_store({"d1": "a b c", "d2": "b c d"})
        assert doc_similarity(store, "d1", "d2") == 0.5


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

    def test_empty_candidates(self, synth):
        out = mmr_rerank(
            make_ranked_list("q", []), "topic00", synth["store"],
            synth["index"], 0.5, 5,
        )
        assert len(out) == 0

    def test_matches_exhaustive_greedy(self, synth):
        store, index = synth["store"], synth["index"]
        candidates = retrieve(index, "topic02", 4, "q02")
        lam = 0.5
        out = mmr_rerank(candidates, "topic02", store, index, lam, 4)

        # independent greedy simulation
        tokens = tokenize("topic02")
        pool = candidates.doc_ids()
        raw = {d: reference_score(index, tokens, d) for d in pool}
        lo, hi = min(raw.values()), max(raw.values())
        rel = {d: (s - lo) / (hi - lo) if hi > lo else 1.0 for d, s in raw.items()}
        chosen = []
        while len(chosen) < 4 and len(chosen) < len(pool):
            options = []
            for d in pool:
                if d in chosen:
                    continue
                if not chosen:
                    score = rel[d]
                else:
                    score = lam * rel[d] - (1 - lam) * max(
                        doc_similarity(store, d, s) for s in chosen
                    )
                options.append((-score, d))
            options.sort()
            chosen.append(options[0][1])
        assert out.doc_ids() == chosen
