"""Command-line experiment driver.

Subcommands: `gen` (synthetic corpus), `index`, `run` (bm25 | fairqr |
fairqr-norerank | mmr), `eval` (`--run-b` adds a paired randomization test).
Configuration is a JSON document holding any of CONFIG_FIELDS; a subcommand
takes a flag for each field it reads (COMMAND_FIELDS), which overrides the
file. Exit codes: 0 success, 1 usage error, 2 data error, 3 refiner/transport
failure after degradation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from . import synthetic
from .corpus import load_corpus, open_utf8
from .errors import (
    FairQRError,
    IndexBuildError,
    NoTargetError,
    SchemaError,
    UsageError,
)
from .evaluation import (
    compare_runs,
    evaluate_run,
    report_to_dict,
    report_to_text,
)
from .fairness import (
    ExposureDistribution,
    FairnessTarget,
    target_from_qrels,
)
from .index import build_index, load_index, retrieve, save_index
from .llm import ChatCompletionClient
from .refine import (
    LLMRefiner,
    LexiconRefiner,
    RefinementTrace,
    RefinerConfig,
    fair_qr,
)
from .rerank import mmr_rerank, semantic_rerank
from .trec import parse_qrels, parse_queries, parse_run, write_qrels, write_run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REFINER = 3

CONFIG_FIELDS = {
    "corpus": str,
    "schema": str,
    "queries": str,
    "qrels": str,
    "category": str,
    "k": int,
    "pool_size": int,
    "max_iterations": int,
    "refiner": str,          # lexicon | llm
    "lexicon": str,
    "template": str,
    "base_url": str,
    "model": str,
    "temperature": float,
    "targets": str,          # explicit target file (optional)
    "out": str,
    "index_file": str,
    "seed": int,
    "jobs": int,
    "mmr_lambda": float,
}

DEFAULTS = {
    "category": "gender",
    "k": 20,
    "pool_size": 100,
    "max_iterations": 5,
    "refiner": "lexicon",
    "temperature": 0.3,
    "seed": 42,
    "jobs": 1,
    "mmr_lambda": 0.5,
}

# The fields each subcommand reads, and so the flags it accepts.
COMMAND_FIELDS = {
    "gen": ("out", "seed", "category"),
    "index": ("corpus", "schema", "index_file"),
    "run": tuple(name for name in CONFIG_FIELDS if name != "seed"),
    "eval": ("corpus", "schema", "qrels", "category", "k", "targets", "out"),
}


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", help="JSON config file")
    for name in COMMAND_FIELDS[command]:
        parser.add_argument(f"--{name.replace('_', '-')}",
                            type=CONFIG_FIELDS[name], dest=name, default=None)


def _merge_config(args: argparse.Namespace) -> dict:
    config = dict(DEFAULTS)
    flags = vars(args)
    if flags["config"]:
        with open_utf8(flags["config"]) as fh:  # a UsageError names the file
            loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise UsageError("config file must hold a JSON object")
            unknown = set(loaded) - set(CONFIG_FIELDS)
            if unknown:
                raise UsageError(f"unknown config fields: {sorted(unknown)}")
            for name, value in loaded.items():
                typ = CONFIG_FIELDS[name]
                allowed = (int, float) if typ is float else typ
                if isinstance(value, bool) or not isinstance(value, allowed):
                    raise UsageError(f"config field {name!r} must be "
                                     f"{typ.__name__}, got {value!r}")
        config.update(loaded)
    for name in CONFIG_FIELDS:
        if flags.get(name) is not None:
            config[name] = flags[name]
    return config


def _require(config: dict, *names: str) -> None:
    missing = [n for n in names if not config.get(n)]
    if missing:
        raise UsageError(f"missing required config fields: {missing}")


def _load_store_and_index(config):
    _require(config, "corpus", "schema")
    store = load_corpus(config["corpus"], config["schema"])
    path = config.get("index_file")
    if not (path and os.path.exists(path)):
        return store, build_index(store)
    index = load_index(path)
    if index.digest != store.digest:
        raise IndexBuildError(f"index file {path} was not built from corpus "
                              f"{config['corpus']}; rerun `fairqr index`")
    return store, index


def _targets_for(config, store, qrels, qids) -> dict[str, FairnessTarget]:
    category = config["category"]
    schema = store.schema(category)
    targets: dict[str, FairnessTarget] = {}
    if not config.get("targets"):
        for query_id in qids:
            try:
                targets[query_id] = target_from_qrels(
                    qrels, store, query_id, category
                )
            except NoTargetError:
                pass  # queries without relevant docs are skipped downstream
        return targets
    with open_utf8(config["targets"]) as fh:  # its errors name the file
        explicit = json.load(fh)
        if not isinstance(explicit, dict):
            raise FairQRError("targets file is not an object keyed by query "
                              "id")
        for query_id, per_cat in explicit.items():
            if not (isinstance(per_cat, dict)
                    and isinstance(per_cat.get(category, {}), dict)):
                raise FairQRError(f"target for query {query_id!r} is not of "
                                  f"the form {{category: {{subgroup: mass}}}}")
            if category not in per_cat:
                continue
            masses = per_cat[category]
            outside = sorted(set(masses) - set(schema.subgroups))
            if outside:
                raise SchemaError(f"target for query {query_id!r} names "
                                  f"{outside}, not in category {category!r}")
            for subgroup, mass in masses.items():
                if type(mass) not in (int, float):  # a bool is no number
                    raise FairQRError(f"target for query {query_id!r}: mass "
                                      f"{mass!r} of {subgroup!r} is not a "
                                      f"number")
            probs = [masses.get(s, 0.0) for s in schema.subgroups]
            try:
                dist = ExposureDistribution(category, probs)
            except ValueError as exc:
                raise FairQRError(
                    f"target for query {query_id!r}: {exc}") from None
            targets[query_id] = FairnessTarget(
                query_id, category, dist, provenance="explicit")
    return targets


def _check_run_options(config) -> None:
    """Every `run` option value in range, whichever of them the mode reads."""
    refiner = config["refiner"]
    for ok, message in (
        (config["k"] >= 1, "k must be >= 1"),
        (config["pool_size"] >= 1, "pool_size must be >= 1"),
        (config["max_iterations"] >= 1, "max_iterations must be >= 1"),
        (refiner in ("lexicon", "llm"), f"unknown refiner kind {refiner!r}"),
        (0.0 <= config["mmr_lambda"] <= 1.0, "mmr_lambda must be in [0, 1]"),
        (0.0 <= config["temperature"] <= 2.0, "temperature must be in [0, 2]"),
        (config["jobs"] >= 1, "jobs must be >= 1"),
    ):
        if not ok:
            raise UsageError(message)


def _make_refiner(config, store):
    if config["refiner"] == "lexicon":
        _require(config, "lexicon")
        with open_utf8(config["lexicon"]) as fh:  # a LexiconError names it
            return LexiconRefiner(json.load(fh))
    _require(config, "base_url", "model")
    client = ChatCompletionClient(config["base_url"], config["model"])
    subgroups = store.schema(config["category"]).subgroups
    refiner = partial(LLMRefiner, client, subgroups,
                      temperature=config["temperature"])
    if not config.get("template"):
        return refiner()
    with open_utf8(config["template"]) as fh:  # a TemplateError names it
        return refiner(template=fh.read())


def cmd_gen(args) -> int:
    config = _merge_config(args)
    _require(config, "out")
    spec = synthetic.SkewSpec(
        seed=config["seed"],
        doc_count=args.docs,
        topic_count=args.topics,
        skew=args.skew,
        category=config["category"],
    )
    records, queries, qrels_rows, lexicon = synthetic.generate(spec)
    outdir = config["out"]
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "corpus.jsonl"), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    with open(os.path.join(outdir, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump({spec.category: list(spec.subgroups)}, fh, indent=2)
    with open(os.path.join(outdir, "queries.tsv"), "w", encoding="utf-8") as fh:
        for query_id, text in queries:
            fh.write(f"{query_id}\t{text}\n")
    qrels = {}
    for query_id, doc_id, grade in qrels_rows:
        qrels.setdefault(query_id, {})[doc_id] = grade
    write_qrels(qrels, os.path.join(outdir, "qrels.txt"))
    with open(os.path.join(outdir, "lexicon.json"), "w", encoding="utf-8") as fh:
        json.dump(lexicon, fh, indent=2, sort_keys=True)
    print(f"generated {len(records)} documents, {len(queries)} queries "
          f"in {outdir}")
    return EXIT_OK


def cmd_index(args) -> int:
    config = _merge_config(args)
    _require(config, "corpus", "schema", "index_file")
    store = load_corpus(config["corpus"], config["schema"])
    index = build_index(store)
    save_index(index, config["index_file"])
    print(f"N={index.n_documents} avgdl={index.avgdl:.4f} "
          f"vocabulary={len(index.vocabulary)}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _merge_config(args)
    mode = args.mode
    _require(config, "queries", "out")
    _check_run_options(config)
    pool, k = config["pool_size"], config["k"]
    fair_modes = mode in ("fairqr", "fairqr-norerank")
    if fair_modes:
        if not (config.get("qrels") or config.get("targets")):
            raise UsageError(f"run {mode} needs fairness targets: give "
                             f"--qrels or --targets")
        rcfg = RefinerConfig(
            category=config["category"],
            max_iterations=config["max_iterations"],
            pool_size=pool,
            k=k,
        )
    store, index = _load_store_and_index(config)
    queries = parse_queries(config["queries"])
    qrels = parse_qrels(config["qrels"]) if config.get("qrels") else {}
    if fair_modes:
        targets = _targets_for(config, store, qrels, [q for q, _ in queries])
        refiner = _make_refiner(config, store)

    def work(item):
        """(query id, (ranked list, trace dict or None)) for one query."""
        qid, qtext = item
        if mode == "mmr":
            candidates = retrieve(index, qtext, pool, qid)
            return qid, (mmr_rerank(candidates, qtext, store, index,
                                    config["mmr_lambda"], k), None)
        if mode == "bm25":
            return qid, (retrieve(index, qtext, pool, qid), None)
        target = targets.get(qid)
        if target is None:  # nothing to refine towards: the query as given
            fair_set = retrieve(index, qtext, pool, qid)
            trace = RefinementTrace(qid, rcfg.category,
                                    terminal_reason="no-target")
        else:
            fair_set, trace = fair_qr(index, store, qtext, target, rcfg,
                                      refiner, qid)
        if mode == "fairqr":  # re-rank the k documents measured for fairness
            fair_set = semantic_rerank(fair_set.top(k), qtext, index, qid)
        return qid, (fair_set, trace.to_dict())

    # Threads overlap LLM calls only; the GIL serialises the scoring.
    with ThreadPoolExecutor(max_workers=config["jobs"]) as executor:
        results = dict(executor.map(work, queries))

    run = {qid: ranked for qid, (ranked, _) in results.items()}
    outdir = config["out"]
    os.makedirs(outdir, exist_ok=True)
    run_path = os.path.join(outdir, f"run-{mode}.txt")
    write_run(run, run_path, tag=mode)
    traces = {qid: trace for qid, (_, trace) in results.items() if trace}
    if fair_modes:
        trace_dir = os.path.join(outdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        for qid, trace in sorted(traces.items()):
            with open(os.path.join(trace_dir, f"{qid}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(trace, fh, indent=2, sort_keys=True)
    empty = sorted(qid for qid, ranked in run.items() if not len(ranked))
    summary = (f"wrote {run_path} ({len(run) - len(empty)} queries, "
               f"{len(traces)} traces)")
    if empty:  # a query without lines is absent from the run file
        summary += f"; nothing retrieved for {len(empty)}: {', '.join(empty)}"
    print(summary)
    # a loop that measured no query (nothing retrieved) is named above
    failed = sorted(qid for qid, trace in traces.items()
                    if trace["error"] and trace["iterations"])
    if failed:
        print(f"refiner failure: {len(failed)} queries' loops ended on an "
              f"error, e.g. {failed[0]}: {traces[failed[0]]['error']}",
              file=sys.stderr)
        return EXIT_REFINER
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _merge_config(args)
    _require(config, "qrels", "corpus", "schema")
    store = load_corpus(config["corpus"], config["schema"])
    qrels = parse_qrels(config["qrels"])
    run_a = parse_run(args.run)
    targets = _targets_for(config, store, qrels, sorted(run_a))
    k = config["k"]
    report = evaluate_run(run_a, qrels, targets, store, k)
    if args.run_b:
        run_b = parse_run(args.run_b)
        report_b = evaluate_run(run_b, qrels, targets, store, k)
        report.significance = compare_runs(report, report_b, args.run_b)
        if report.significance is None:
            shared = len({r.query_id for r in report.rows}
                         & {r.query_id for r in report_b.rows})
            print(f"note: the runs share {shared} scored "
                  f"{'query' if shared == 1 else 'queries'}; no randomization "
                  f"test was run (it needs 2)", file=sys.stderr)
    text = report_to_text(report)
    if config.get("out"):
        os.makedirs(config["out"], exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.run))[0]
        json_path = os.path.join(config["out"], f"report-{stem}.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        with open(os.path.join(config["out"], f"report-{stem}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairqr",
        description="Fairness-aware retrieval by recursive query refinement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic collection")
    p_gen.add_argument("--docs", type=int, default=200)
    p_gen.add_argument("--topics", type=int, default=10)
    p_gen.add_argument("--skew", type=float, default=0.8)
    _add_config_flags(p_gen, "gen")
    p_gen.set_defaults(func=cmd_gen)

    p_index = sub.add_parser("index", help="build and persist the index")
    _add_config_flags(p_index, "index")
    p_index.set_defaults(func=cmd_index)

    p_run = sub.add_parser("run", help="produce a TREC run file")
    p_run.add_argument(
        "mode", choices=["bm25", "fairqr", "fairqr-norerank", "mmr"]
    )
    _add_config_flags(p_run, "run")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate one or two run files")
    p_eval.add_argument("run", help="TREC run file to evaluate")
    p_eval.add_argument("--run-b", help="second run for a randomization test")
    _add_config_flags(p_eval, "eval")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FairQRError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
