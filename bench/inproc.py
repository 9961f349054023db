"""The in-process workloads: refine-lexicon and mmr-large.

refine-lexicon: set-up loads the corpus, the saved index and the qrels and
derives every query's target; one operation is `fair_qr` with the lexicon
refiner (pool_size == k == 20) followed by `semantic_rerank`.
mmr-large: set-up loads the corpus and builds the index in memory; one
operation is `retrieve` (pool 100) followed by `mmr_rerank` (k 20, lambda 0.5).
"""
from __future__ import annotations

import json
import resource
from pathlib import Path

import ref
from common import (SETUPS, calibrated_each, median, p90, query_order,
                    read_corpus, read_queries, repeated_setups, timed_loop)
from inputs import WORK, prepare

K = 20
LEXICON_POOL = 20
MMR_POOL, MMR_LAMBDA = 100, 0.5


def lexicon_setup(directory: Path, index_file: Path, queries):
    from fairqr import (LexiconRefiner, RefinerConfig, load_corpus, load_index,
                        parse_qrels, target_from_qrels)

    def setup():
        store = load_corpus(directory / "corpus.jsonl", directory / "schema.json")
        index = load_index(index_file)
        qrels = parse_qrels(directory / "qrels.txt")
        category = next(iter(store.schemas))
        targets = {qid: target_from_qrels(qrels, store, qid, category)
                   for qid, _ in queries}
        with open(directory / "lexicon.json", encoding="utf-8") as fh:
            refiner = LexiconRefiner(json.load(fh))
        config = RefinerConfig(category=category, pool_size=LEXICON_POOL, k=K)
        return store, index, targets, refiner, config
    return setup


def lexicon_op(state, outputs):
    from fairqr import fair_qr, semantic_rerank
    store, index, targets, refiner, config = state

    def op(qid, text):
        fair_set, trace = fair_qr(index, store, text, targets[qid], config,
                                  refiner, qid)
        final = semantic_rerank(fair_set, text, index, qid)
        outputs.append((qid, text, fair_set, trace, final))
    return op


def _mmr_setup(directory: Path):
    from fairqr import build_index, load_corpus

    def setup():
        store = load_corpus(directory / "corpus.jsonl", directory / "schema.json")
        return store, build_index(store)
    return setup


def _mmr_op(state, outputs):
    from fairqr import mmr_rerank, retrieve
    store, index = state

    def op(qid, text):
        pool = retrieve(index, text, MMR_POOL, qid)
        final = mmr_rerank(pool, text, store, index, MMR_LAMBDA, K)
        outputs.append((qid, text, pool, None, final))
    return op


def _pairs(ranked) -> list[tuple[str, float]]:
    return [(e.doc_id, e.score) for e in ranked.entries]


def _fingerprint(output):
    _, _, first, trace, final = output
    return (_pairs(first), _pairs(final),
            None if trace is None else trace.to_dict())


def check_lexicon(output, rix, labels, subgroups, lexicon, judged, tgt_prog):
    """Errors in one refine-lexicon output, against the reference code."""
    qid, text, fair_set, trace, final = output
    errors = []
    tgt = ref.target([d for d, g in judged.items() if g > 0], labels, subgroups)
    if not (abs(tgt - tgt_prog) <= ref.DIV_TOL).all():
        errors.append(f"{qid}: target {tgt_prog} != reference {tgt}")
    records = trace.records
    if not records or records[0].query != text:
        return errors + [f"{qid}: iteration 0 is not the original query"]
    best = None
    for i, record in enumerate(records):
        if i > 0:
            prev = records[i - 1]
            if not prev.accepted:
                errors.append(f"{qid}: iteration {i} follows a rejected one")
            want_sub = ref.most_underrepresented(prev.exposure, tgt, subgroups)
            if record.subgroup != want_sub:
                errors.append(f"{qid}: iteration {i} boosts {record.subgroup}, "
                              f"reference {want_sub}")
            want_query = prev.query
            present = set(ref.tokens(prev.query))
            for keyword in lexicon[want_sub]:
                if set(ref.tokens(keyword)) - present:
                    want_query = f"{prev.query} {keyword}"
                    break
            if record.query != want_query:
                errors.append(f"{qid}: iteration {i} query {record.query!r}, "
                              f"reference {want_query!r}")
        top = rix.top(record.query, K)
        eps = ref.exposure(top, labels, subgroups, K)
        div = ref.kl(eps, tgt)
        if not (abs(eps - record.exposure) <= ref.DIV_TOL).all():
            errors.append(f"{qid}: iteration {i} exposure differs from the "
                          f"reference BM25 top-{K}")
        if abs(div - record.divergence) > ref.DIV_TOL:
            errors.append(f"{qid}: iteration {i} divergence {record.divergence!r}, "
                          f"reference {div!r}")
        if i > 0 and record.accepted != (record.divergence < best):
            errors.append(f"{qid}: iteration {i} acceptance is wrong")
        if record.accepted:
            if best is not None and not record.divergence < best:
                errors.append(f"{qid}: accepted divergence did not decrease")
            best = record.divergence
            last_query = record.query
    scores = rix.scores(last_query)
    error = ref.check_top(_pairs(fair_set), rix, scores, LEXICON_POOL,
                          f"{qid} fair set")
    if error:
        errors.append(error)
    out_kl = ref.kl(ref.exposure(fair_set.doc_ids(), labels, subgroups, K), tgt)
    if abs(out_kl - best) > ref.DIV_TOL:
        errors.append(f"{qid}: output KL {out_kl!r} != last accepted {best!r}")
    original = rix.scores(text)
    if sorted(final.doc_ids()) != sorted(fair_set.doc_ids()):
        errors.append(f"{qid}: re-ranked output is not the fair set")
    for doc_id, score in _pairs(final):
        if not ref.close(score, rix.score_of(original, doc_id)):
            errors.append(f"{qid}: re-rank score of {doc_id} differs")
            break
    error = ref.check_order(final.doc_ids(), rix, original, f"{qid} re-rank")
    if error:
        errors.append(error)
    return errors, tgt


def check_mmr(output, rix, labels, subgroups, judged):
    qid, text, pool, _, final = output
    tgt = ref.target([d for d, g in judged.items() if g > 0], labels, subgroups)
    scores = rix.scores(text)
    errors = []
    error = ref.check_top(_pairs(pool), rix, scores, MMR_POOL, f"{qid} pool")
    if error:
        errors.append(error)
    error = ref.mmr_check(_pairs(final), pool.doc_ids(), rix, scores, MMR_LAMBDA, K)
    if error:
        errors.append(f"{qid}: {error}")
    return errors, tgt


def run_workload(args) -> dict:
    lexicon_wl = args.workload == "refine-lexicon"
    directory = prepare(args.workload, args.size, args.seed)
    queries, qrels, lexicon = read_queries(directory)
    order = query_order(queries, args.seed)
    make_op = lexicon_op if lexicon_wl else _mmr_op

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    # The set-up imports fairqr's functions, so it is made after install.
    if lexicon_wl:
        setup = lexicon_setup(directory, directory / "index.json", queries)
    else:
        setup = _mmr_setup(directory)
    state, setup_times = repeated_setups(setup, SETUPS[args.workload])
    if tracer is not None:
        tracing.uninstall()
    outputs: list = []

    extra = {}
    if tracer is None:
        latencies, cals, failed, wall = timed_loop(args.seconds, order,
                                                   make_op(state, outputs))
    else:
        # Half the time untraced, then half traced, for the tracing overhead.
        plain, plain_cals, _, _ = timed_loop(args.seconds / 2, order,
                                             make_op(state, []))
        tracing.install(tracer)
        tracer.phase = "query"
        latencies, cals, failed, wall = timed_loop(
            args.seconds / 2, order, make_op(state, outputs), tracer)
        tracing.uninstall()
    # Every operation's time, in calibrated seconds (see calib.py).
    op_times = calibrated_each(latencies, cals)
    if tracer is not None:
        untraced = calibrated_each(plain, plain_cals)
        extra["trace.overhead_pct"] = 100.0 * (
            (sum(op_times) / len(op_times)) / (sum(untraced) / len(untraced))
            - 1.0)
    attempted = len(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if lexicon_wl:
        index_bytes = (directory / "index.json").stat().st_size
    else:
        index_bytes = int((directory / "index_bytes.txt").read_text())

    # Checks, against the reference code, once per distinct query; repeats
    # must reproduce the first output exactly.
    labels, subgroups, texts = read_corpus(directory)
    rix = ref.RefIndex(texts)
    errors, seen, awrfs, ndcgs = [], {}, [], []
    for output in outputs:
        qid = output[0]
        if qid in seen:
            if _fingerprint(output) != seen[qid]:
                errors.append(f"{qid}: a repeated query gave another output")
            continue
        seen[qid] = _fingerprint(output)
        if lexicon_wl:
            tgt_prog = state[2][qid].target.probabilities
            errs, tgt = check_lexicon(output, rix, labels, subgroups, lexicon,
                                      qrels[qid], tgt_prog)
        else:
            errs, tgt = check_mmr(output, rix, labels, subgroups, qrels[qid])
        errors += errs
        final_ids = output[4].doc_ids()
        awrfs.append(ref.awrf(final_ids, labels, subgroups, tgt, K))
        ndcgs.append(ref.ndcg(final_ids, qrels[qid], K))

    result = {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median(setup_times),
            "queries_per_s": len(op_times) / sum(op_times),
            "query_p50_ms": 1000.0 * median(op_times),
            "query_p90_ms": 1000.0 * p90(op_times),
            "peak_rss_mb": peak_rss_mb,
            "index_file_mb": index_bytes / 1e6,
            "awrf_mean": sum(awrfs) / len(awrfs),
            "ndcg_mean": sum(ndcgs) / len(ndcgs),
        },
    }
    if tracer is not None:
        if lexicon_wl:
            traces = [o[3] for o in outputs]
            extra["refine.iterations_per_query"] = (
                sum(len(t.records) - 1 for t in traces) / len(traces))
            extra["refine.accepted_per_query"] = sum(
                sum(r.accepted for r in t.records[1:]) for t in traces) / len(traces)
            extra["refine.repeat_retrieves"] = sum(
                sum(r.query in {p.query for p in t.records[:i]}
                    for i, r in enumerate(t.records)) for t in traces) / len(traces)
        result["layers"] = tracing.layer_metrics(tracer, len(setup_times),
                                                 attempted, wall, extra)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-s{args.seed}.json")
    return result
