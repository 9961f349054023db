"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The whole module runs with outbound sockets disabled to prove the suite is
fully offline.
"""
import json
import math
import socket
import time

import numpy as np
import pytest

from bm25_reference import reference_score
from fairqr.cli import main
from fairqr.corpus import load_corpus, tokenize
from fairqr.errors import RefinerError
from fairqr.evaluation import (
    _sign_flip_test,
    composite,
    evaluate_run,
    ndcg_at_k,
)
from fairqr.fairness import (
    ExposureDistribution,
    FairnessTarget,
    awrf,
    exposure,
    js_divergence,
    kl_divergence,
    target_from_qrels,
)
from fairqr.index import build_index, make_ranked_list, retrieve
from fairqr.llm import ChatCompletionClient
from fairqr.refine import LLMRefiner, LexiconRefiner, RefinerConfig, fair_qr
from fairqr.rerank import semantic_rerank
from fairqr.trec import parse_qrels, parse_run, write_run


@pytest.fixture(autouse=True, scope="module")
def no_network():
    """Fail fast if anything in this module opens a socket."""

    def blocked(*args, **kwargs):
        raise AssertionError("network access attempted during acceptance run")

    original = socket.socket.connect
    socket.socket.connect = blocked
    yield
    socket.socket.connect = original


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Seed-fixed synthetic suite: 200 docs, 2 gender subgroups, 10 topics,
    skew 0.8, 10 queries, lexicon refiner, k=20."""
    root = tmp_path_factory.mktemp("acceptance")
    data, runs = root / "data", root / "runs"
    assert main(["gen", "--out", str(data), "--docs", "200", "--topics", "10",
                 "--skew", "0.8", "--seed", "42"]) == 0
    common = [
        "--corpus", str(data / "corpus.jsonl"),
        "--schema", str(data / "schema.json"),
        "--queries", str(data / "queries.tsv"),
        "--qrels", str(data / "qrels.txt"),
        "--lexicon", str(data / "lexicon.json"),
        "--pool-size", "20",
        "--out", str(runs),
    ]
    start = time.monotonic()
    for mode in ("bm25", "fairqr", "fairqr-norerank", "mmr"):
        assert main(["run", mode] + common) == 0
    elapsed = time.monotonic() - start

    store = load_corpus(data / "corpus.jsonl", data / "schema.json")
    index = build_index(store)
    qrels = parse_qrels(data / "qrels.txt")
    lexicon = json.loads((data / "lexicon.json").read_text())
    queries = [
        tuple(line.split("\t"))
        for line in (data / "queries.tsv").read_text().splitlines()
    ]
    return {
        "root": root, "data": data, "runs": runs, "common": common,
        "elapsed": elapsed, "store": store, "index": index,
        "qrels": qrels, "lexicon": lexicon, "queries": queries,
        "config": RefinerConfig(category="gender", pool_size=20, k=20),
    }


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE criterion {number} {status}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_1_metric_oracles():
    start = time.monotonic()
    checks = [
        abs(kl_divergence([0.7, 0.3], [0.5, 0.5], smoothing=0.0) - 0.08228) < 1e-4,
        abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - math.log(2)) < 1e-4,
        abs(js_divergence([0.7, 0.3], [0.5, 0.5]) - 0.03030) < 1e-4,
        abs((1.0 - js_divergence([0.7, 0.3], [0.5, 0.5])) - 0.96970) < 1e-4,
        abs(composite(0.6530, 0.9316) - 0.6083) < 1e-4,
    ]
    # nDCG hand computation: grades {d1:2, d2:1}, ranking (d2, d1), k=2
    qrels = {"q1": {"d1": 2, "d2": 1}}
    ranked = make_ranked_list("q1", [("d2", 2.0), ("d1", 1.0)])
    checks.append(abs(ndcg_at_k(ranked, qrels, "q1", 2) - 0.85972) < 1e-4)
    mean_diff, p = _sign_flip_test([1, 2, 3, 4, 5], [2, 2, 4, 4, 6])
    checks.append(abs(mean_diff - (-0.6)) < 1e-12)
    checks.append(p == 0.25)

    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        p_vec = rng.dirichlet(np.ones(n))
        q_vec = rng.dirichlet(np.ones(n))
        kl = kl_divergence(p_vec, q_vec)
        js = js_divergence(p_vec, q_vec)
        ok = (
            kl >= -1e-12
            and -1e-12 <= js <= 1.0 + 1e-12
            and abs(js - js_divergence(q_vec, p_vec)) < 1e-12
            and -1e-12 <= 1.0 - js <= 1.0 + 1e-12
        )
        if not ok:
            checks.append(False)
            break
    elapsed = time.monotonic() - start
    checks.append(elapsed < 10.0)
    _report(1, "metric oracles and simplex properties", all(checks),
            f"{elapsed:.2f}s")


def _per_query_metrics(pipeline, run_name):
    run = parse_run(pipeline["runs"] / run_name)
    store, qrels = pipeline["store"], pipeline["qrels"]
    out = {}
    for query_id, ranked in run.items():
        target = target_from_qrels(qrels, store, query_id, "gender")
        out[query_id] = (
            ndcg_at_k(ranked, qrels, query_id, 20),
            awrf(ranked, target, store, 20),
        )
    return out


def test_criterion_2_directional_fairqr(pipeline):
    bm25 = _per_query_metrics(pipeline, "run-bm25.txt")
    fairqr = _per_query_metrics(pipeline, "run-fairqr.txt")
    qids = sorted(bm25)
    mean_awrf_base = np.mean([bm25[q][1] for q in qids])
    mean_awrf_fair = np.mean([fairqr[q][1] for q in qids])
    mean_ndcg_base = np.mean([bm25[q][0] for q in qids])
    mean_ndcg_fair = np.mean([fairqr[q][0] for q in qids])
    improved = sum(fairqr[q][1] > bm25[q][1] for q in qids)
    ok = (
        mean_awrf_fair > mean_awrf_base
        and improved >= 0.7 * len(qids)
        and mean_ndcg_fair >= 0.85 * mean_ndcg_base
        and pipeline["elapsed"] < 60.0
    )
    _report(
        2, "fairqr raises AWRF@20 and nearly preserves nDCG@20", ok,
        f"AWRF {mean_awrf_base:.4f}->{mean_awrf_fair:.4f}, "
        f"nDCG {mean_ndcg_base:.4f}->{mean_ndcg_fair:.4f}, "
        f"improved {improved}/{len(qids)}, {pipeline['elapsed']:.1f}s",
    )


def test_criterion_3_loop_invariants(pipeline):
    store, index = pipeline["store"], pipeline["index"]
    trace_paths = sorted((pipeline["runs"] / "traces").glob("*.json"))
    ok = len(trace_paths) == 10
    for path in trace_paths:
        trace = json.loads(path.read_text())
        iterations = trace["iterations"]
        refinements = [it for it in iterations if it["iteration"] > 0]
        ok &= len(refinements) <= 5
        ok &= trace["terminal_reason"] in (
            "no-decrease", "max-iterations", "target-met"
        )
        accepted = [it["divergence"] for it in iterations if it["accepted"]]
        ok &= all(b < a for a, b in zip(accepted, accepted[1:]))
        for it in iterations:
            replayed = retrieve(index, it["query"], 20, trace["query_id"])
            eps = exposure(replayed, store, "gender", 20)
            ok &= eps.tolist() == it["exposure"]
    _report(3, "trace invariants hold and exposures replay exactly", ok)


def test_criterion_4_rerank_contract(pipeline):
    store, index = pipeline["store"], pipeline["index"]
    qrels, lexicon = pipeline["qrels"], pipeline["lexicon"]
    config = pipeline["config"]
    ok = True
    for query_id, qtext in pipeline["queries"]:
        target = target_from_qrels(qrels, store, query_id, "gender")
        fair_set, _ = fair_qr(
            index, store, qtext, target, config,
            LexiconRefiner(lexicon), query_id,
        )
        reranked = semantic_rerank(fair_set, qtext, index, query_id)
        ok &= sorted(reranked.doc_ids()) == sorted(fair_set.doc_ids())
        tokens = tokenize(qtext)
        best = max(reference_score(store, tokens, d) for d in fair_set.doc_ids())
        ok &= reranked.entries[0].score == best
    _report(4, "semantic rerank permutes the loop set, best doc first", ok)


def test_criterion_5_baseline_equivalences(pipeline, tmp_path):
    # MMR with lambda=1 equals the BM25 ordering on every synthetic query
    out = tmp_path / "mmr1"
    args = ["run", "mmr", "--mmr-lambda", "1.0"] + pipeline["common"]
    args[args.index(str(pipeline["runs"]))] = str(out)
    assert main(args) == 0
    mmr = parse_run(out / "run-mmr.txt")
    bm25 = parse_run(pipeline["runs"] / "run-bm25.txt")
    ok = all(
        mmr[q].doc_ids() == bm25[q].doc_ids()[:20] for q in bm25
    )

    # fairqr with target == baseline exposure short-circuits to the baseline
    store = pipeline["store"]
    explicit = {}
    for query_id, ranked in bm25.items():
        eps = exposure(ranked, store, "gender", 20)
        explicit[query_id] = {
            "gender": dict(zip(("male", "female", "Unknown"),
                               map(float, eps)))
        }
    targets_path = tmp_path / "targets.json"
    targets_path.write_text(json.dumps(explicit))
    out2 = tmp_path / "selftarget"
    args = (["run", "fairqr", "--targets", str(targets_path)]
            + pipeline["common"])
    args[args.index(str(pipeline["runs"]))] = str(out2)
    assert main(args) == 0
    fair = parse_run(out2 / "run-fairqr.txt")
    ok &= all(fair[q] == bm25[q] for q in bm25)
    for path in (out2 / "traces").glob("*.json"):
        trace = json.loads(path.read_text())
        ok &= trace["terminal_reason"] == "target-met"
        ok &= len(trace["iterations"]) == 1
    _report(5, "MMR(lambda=1) == BM25 and self-target returns baseline", ok)


def test_criterion_6_format_interop(pipeline, tmp_path):
    # bit-exact round-trips
    qrels_src = pipeline["data"] / "qrels.txt"
    qrels = parse_qrels(qrels_src)
    from fairqr.trec import write_qrels

    write_qrels(qrels, tmp_path / "qrels.txt")
    ok = (tmp_path / "qrels.txt").read_bytes() == qrels_src.read_bytes()
    run_src = pipeline["runs"] / "run-fairqr.txt"
    write_run(parse_run(run_src), tmp_path / "run.txt", tag="fairqr")
    ok &= (tmp_path / "run.txt").read_bytes() == run_src.read_bytes()

    # 3-query fixture with hand-computed rows
    from fairqr.corpus import GroupSchema, ingest_corpus

    records = [
        {"id": "m1", "text": "x", "groups": {"gender": ["male"]}},
        {"id": "m2", "text": "x", "groups": {"gender": ["male"]}},
        {"id": "f1", "text": "x", "groups": {"gender": ["female"]}},
    ]
    store = ingest_corpus(
        records, [GroupSchema("gender", ("male", "female", "Unknown"))]
    )
    fixture_qrels = {q: {"m1": 1, "f1": 1} for q in ("q1", "q2", "q3")}
    run = {
        "q1": make_ranked_list("q1", [("m1", 2.0), ("f1", 1.0)]),
        "q2": make_ranked_list("q2", [("m1", 2.0), ("m2", 1.0)]),
        "q3": make_ranked_list("q3", [("f1", 2.0), ("m1", 1.0)]),
    }
    target = FairnessTarget(
        "*", "gender",
        ExposureDistribution("gender", [0.5, 0.5, 0.0]), "explicit",
    )
    report = evaluate_run(
        run, fixture_qrels, {q: target for q in run}, store, k=2
    )
    rows = {r.query_id: r for r in report.rows}
    # q1/q3: both relevant docs retrieved in ideal order, balanced exposure
    ok &= rows["q1"].ndcg == 1.0 and abs(rows["q1"].awrf - 1.0) < 1e-12
    ok &= rows["q3"].ndcg == 1.0 and abs(rows["q3"].awrf - 1.0) < 1e-12
    # q2: DCG = 1, IDCG = 1 + 1/log2(3); exposure (1,0,0) vs (.5,.5,0)
    expected_ndcg = 1.0 / (1.0 + 1.0 / math.log2(3))
    expected_awrf = 1.0 - js_divergence([1.0, 0.0, 0.0], [0.5, 0.5, 0.0])
    ok &= abs(rows["q2"].ndcg - expected_ndcg) < 1e-9
    ok &= abs(rows["q2"].awrf - expected_awrf) < 1e-9
    _report(6, "TREC files round-trip bit-exactly, fixture rows hand-match", ok)


def test_criterion_7_offline_completeness(pipeline):
    # the module-level socket guard proves criteria 1-6 never left the host;
    # llm_refine works against a stubbed chat-completion transport
    def transport(url, headers, payload):
        return {"choices": [{"message": {
            "content": "REFINED_QUERY: topic00 markerfemale"}}]}

    client = ChatCompletionClient("http://offline-stub", "stub-model",
                                  transport=transport)
    refiner = LLMRefiner(client, ("male", "female", "Unknown"))
    store, index = pipeline["store"], pipeline["index"]
    qrels = pipeline["qrels"]
    target = target_from_qrels(qrels, store, "q00", "gender")
    fair_set, trace = fair_qr(
        index, store, "topic00", target, pipeline["config"], refiner, "q00"
    )
    ok = trace.terminal_reason in ("target-met", "no-decrease", "max-iterations")
    ok &= len(fair_set) > 0

    # a refiner whose transport keeps failing degrades via RefinerError
    def failing_transport(url, headers, payload):
        raise ConnectionError("offline")

    failing = ChatCompletionClient("http://offline-stub", "stub-model",
                                   transport=failing_transport)
    with pytest.raises(RefinerError):
        failing.complete("hi", 0.0)
    _report(7, "entire suite runs offline with stub transports", ok)
