"""The cli-llm-eval workload: the paper's experiment as a user types it.

Set-up is `fairqr index`. One round is three commands, each a child process:
`fairqr run fairqr --refiner llm` against the loopback stub, `fairqr run
bm25`, and `fairqr eval` of the first run against the second. Rounds repeat
until the run's time is up; every command is an operation.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import ref
from common import (SETUPS, WINDOW, calibrated, calibrated_call, median, p90,
                    read_corpus, read_queries)
from inproc import K, LEXICON_POOL as POOL, lexicon_op, lexicon_setup
from inputs import ROOT, WORK, child_env, prepare
from stub import ChatStub, parse_prompt

COMMAND_TIMEOUT_S = 150
PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy")


def cli_env() -> dict:
    env = child_env()
    for name in list(env):
        if name.lower() in PROXY_VARS:
            del env[name]
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


class Commands:
    """Starts fairqr CLI commands and keeps what each one cost."""

    def __init__(self, env: dict, work: Path, span_dir: Path, tracer, stub):
        self.env, self.work, self.tracer, self.stub = env, work, tracer, stub
        self.span_dir = span_dir
        self.max_rss_mb = 0.0
        self.failures: list[str] = []
        self.count = 0

    def run(self, name: str, argv: list[str], traced: bool) -> float:
        """Run one command to its end; returns its calibrated seconds. The
        stub's calibration runs during the command count towards its speed,
        and their time is taken out."""
        self.count += 1
        spans = self.span_dir / f"command-{self.count}.json"
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                   str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "fairqr.cli", *argv]
        stderr_path = self.work / "stderr.txt"

        def command():
            frame = self.tracer.enter("proc.command", "proc") if traced else None
            stub_before = (self.stub.busy_s, len(self.stub.pairs))
            with open(stderr_path, "wb") as err:
                proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT,
                                        stdout=subprocess.DEVNULL, stderr=err)
                timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
            if traced:
                self._merge(frame, spans, stub_before)
            return os.waitstatus_to_exitcode(status), usage

        first = len(self.stub.calibrations)
        (returncode, usage), seconds, calibrations = calibrated_call(command)
        during = self.stub.calibrations[first:]
        seconds = calibrated(seconds - sum(during), calibrations + during)
        self.max_rss_mb = max(self.max_rss_mb, usage.ru_maxrss / 1024.0)
        if returncode != 0:
            message = stderr_path.read_text(errors="replace").strip()[-500:]
            self.failures.append(f"{name} exited {returncode}: {message}")
        return seconds

    def _merge(self, frame, spans: Path, stub_before) -> None:
        """Fold a traced child's aggregates into this process's tracer."""
        tracer = self.tracer
        if spans.exists():
            payload = json.loads(spans.read_text())
            for row in payload["aggregates"]:
                tracer.add(row["name"], row["self_s"], row["layer_s"], row["calls"])
            frame[3] += payload["end"] - payload["start"]
        # The stub answered inside the child's llm client calls: move that
        # time from the client to the stub, and the stub's calibration runs
        # out of the layers (into bench.self_s).
        stub_s = self.stub.busy_s - stub_before[0]
        calls = len(self.stub.pairs) - stub_before[1]
        if calls:
            cal_s = sum(self.stub.calibrations[stub_before[1]:])
            tracer.add("llm.ChatCompletionClient.complete", -stub_s - cal_s,
                       -stub_s - cal_s, 0)
            tracer.add("llm.stub", stub_s, stub_s, calls)
        tracer.leave(frame, keep=True)


def _read_run(path: Path):
    """{query: [(doc_id, score)]} in rank order, or an error message."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, _, doc_id, rank, score, _ = line.split()
        rows.setdefault(qid, []).append((int(rank), doc_id, float(score)))
    run = {}
    for qid, entries in rows.items():
        entries.sort()
        if [r for r, _, _ in entries] != list(range(1, len(entries) + 1)):
            return None, f"{path.name}: ranks of {qid} are not contiguous"
        run[qid] = [(d, s) for _, d, s in entries]
    return run, None


def _in_process_lexicon(directory: Path, index_file: Path, queries):
    """What the lexicon refiner gives on the same inputs, in this process."""
    outputs: list = []
    op = lexicon_op(lexicon_setup(directory, index_file, queries)(), outputs)
    for qid, text in queries:
        op(qid, text)
    return {qid: final.doc_ids() for qid, _, _, _, final in outputs}


def check_outputs(directory, work, queries, qrels, labels, subgroups, texts,
                  stub):
    """Errors in the last round's outputs, and the reference AWRF/nDCG means."""
    errors = []
    runs = {}
    for mode in ("fairqr", "bm25"):
        run, error = _read_run(work / "runs" / f"run-{mode}.txt")
        if error:
            return [error], 0.0, 0.0
        missing = [q for q, _ in queries if q not in run]
        if missing:
            errors.append(f"run-{mode} lacks queries {missing[:5]}")
        runs[mode] = run

    replies = {parse_prompt(p): r for p, r in stub.pairs}
    for qid, _ in queries:
        trace = json.loads((work / "runs" / "traces" / f"{qid}.json").read_text())
        its = trace["iterations"]
        for prev, it in zip(its, its[1:]):
            want = replies.get((prev["query"], it["subgroup"]))
            if want is None or it["raw_response"] != want:
                errors.append(f"{qid}: trace raw_response is not the stub's "
                              f"reply to its prompt")
                break

    rix = ref.RefIndex(texts)
    for qid, text in queries:
        error = ref.check_top(runs["bm25"].get(qid, []), rix, rix.scores(text),
                              POOL, f"run-bm25 {qid}")
        if error:
            errors.append(error)
            break

    lexicon_run = _in_process_lexicon(directory, work / "index.json", queries)
    for qid, _ in queries:
        if [d for d, _ in runs["fairqr"].get(qid, [])] != lexicon_run[qid]:
            errors.append(f"run-fairqr {qid} differs from the in-process "
                          f"lexicon loop")

    awrfs, ndcgs = [], []
    for qid, _ in queries:
        ids = [d for d, _ in runs["fairqr"].get(qid, [])]
        judged = qrels[qid]
        tgt = ref.target([d for d, g in judged.items() if g > 0], labels, subgroups)
        awrfs.append(ref.awrf(ids, labels, subgroups, tgt, K))
        ndcgs.append(ref.ndcg(ids, judged, K))
    awrf_mean, ndcg_mean = sum(awrfs) / len(awrfs), sum(ndcgs) / len(ndcgs)
    report = json.loads((work / "reports" / "report-run-fairqr.json").read_text())
    agg = report["aggregates"]
    category = next(k[5:] for k in agg if k.startswith("awrf."))
    if not ref.close(agg["ndcg"], ndcg_mean, ref.DIV_TOL):
        errors.append(f"eval MEAN nDCG@{K} {agg['ndcg']!r}, reference {ndcg_mean!r}")
    if not ref.close(agg[f"awrf.{category}"], awrf_mean, ref.DIV_TOL):
        errors.append(f"eval MEAN AWRF@{K} {agg[f'awrf.{category}']!r}, "
                      f"reference {awrf_mean!r}")
    return errors, awrf_mean, ndcg_mean


def _query_latencies(stub, first: int, queries) -> list[float]:
    """Per-query latencies of one `run fairqr` command, as the LLM endpoint
    sees them: the time from each query's first request to the next
    query's, less the stub's calibration runs in between, calibrated by the
    WINDOW calibration runs nearest to the query's first request. The
    command runs the queries in file order, one at a time, and a query's
    first prompt names its original text."""
    starts = {}
    for i, (prompt, _) in enumerate(stub.pairs[first:], first):
        parsed = parse_prompt(prompt)
        if parsed is not None:
            starts.setdefault(parsed[0], i)
    ordered = [starts[text] for _, text in queries if text in starts]
    took = stub.calibrations
    latencies = []
    for a, b in zip(ordered, ordered[1:]):
        raw = stub.arrivals[b] - stub.arrivals[a] - sum(took[a:b])
        window = took[max(first, a - WINDOW // 2):a + WINDOW // 2 + 1]
        latencies.append(calibrated(raw, window))
    return latencies


def _round(per_command: dict) -> float:
    """A round made of each command's median time."""
    return sum(median(times) for times in per_command.values())


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(args) -> dict:
    directory = prepare(args.workload, args.size, args.seed)
    queries, qrels, lexicon = read_queries(directory)
    work = WORK / f"cli-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    span_dir = WORK / "traces" / f"{args.workload}-s{args.seed}-commands"
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)

    corpus = ["--corpus", str(directory / "corpus.jsonl"),
              "--schema", str(directory / "schema.json")]
    index_file = str(work / "index.json")
    runs, reports = str(work / "runs"), str(work / "reports")
    try:
        with ChatStub(lexicon) as stub:
            commands = Commands(cli_env(), work, span_dir, tracer, stub)
            round_cmds = [
                ("run_fairqr", ["run", "fairqr", *corpus,
                                "--queries", str(directory / "queries.tsv"),
                                "--qrels", str(directory / "qrels.txt"),
                                "--refiner", "llm", "--base-url", stub.url,
                                "--model", "stub", "--index-file", index_file,
                                "--pool-size", str(POOL), "--k", str(K),
                                "--jobs", "1", "--out", runs]),
                ("run_bm25", ["run", "bm25", *corpus,
                              "--queries", str(directory / "queries.tsv"),
                              "--index-file", index_file,
                              "--pool-size", str(POOL), "--out", runs]),
                ("eval", ["eval", f"{runs}/run-fairqr.txt",
                          "--run-b", f"{runs}/run-bm25.txt", *corpus,
                          "--qrels", str(directory / "qrels.txt"),
                          "--k", str(K), "--out", reports]),
            ]
            index_cmd = ["index", *corpus, "--index-file", index_file]
            setup_times = [commands.run("index", index_cmd, bool(tracer))
                           for _ in range(SETUPS[args.workload])]
            if commands.failures:
                raise RuntimeError(commands.failures[0])

            def rounds(seconds: float, traced: bool):
                """Rounds until `seconds`: (each command's calibrated times,
                the query latencies of run fairqr, output digests, wall)."""
                per_command = {name: [] for name, _ in round_cmds}
                latencies, outputs = [], set()
                start = perf_counter()
                while True:
                    for name, argv in round_cmds:
                        first = len(stub.pairs)
                        per_command[name].append(commands.run(name, argv, traced))
                        if name == "run_fairqr":
                            latencies += _query_latencies(stub, first, queries)
                    outputs.add(_digest(sorted(Path(runs).rglob("*.*")) +
                                        [Path(reports) / "report-run-fairqr.json"]))
                    if perf_counter() - start >= seconds:
                        return (per_command, latencies, outputs,
                                perf_counter() - start)

            extra = {}
            if tracer is None:
                per_command, latencies, outputs, wall = rounds(args.seconds, False)
                failed_before = 0
            else:
                plain, _, outputs, _ = rounds(args.seconds / 2, False)
                failed_before = len(commands.failures)
                tracer.phase = "query"
                per_command, latencies, traced_out, wall = rounds(
                    args.seconds / 2, True)
                outputs |= traced_out
                extra["trace.overhead_pct"] = 100.0 * (
                    _round(per_command) / _round(plain) - 1.0)
            rss_mb = commands.max_rss_mb
            failed = len(commands.failures) - failed_before
            errors = list(commands.failures)
            if len(outputs) != 1:
                errors.append("rounds wrote different run, trace or report files")
            if not errors:
                labels, subgroups, texts = read_corpus(directory)
                more, awrf_mean, ndcg_mean = check_outputs(
                    directory, work, queries, qrels, labels, subgroups, texts,
                    stub)
                errors += more
            else:
                awrf_mean = ndcg_mean = 0.0
        index_mb = Path(index_file).stat().st_size / 1e6
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(queries)
    result = {
        "errors": errors,
        "attempted": sum(len(v) for v in per_command.values()),
        "failed": failed,
        "metrics": {
            "setup_s": median(setup_times),
            "queries_per_s": n / _round(per_command),
            "query_p50_ms": 1000.0 * median(latencies),
            "query_p90_ms": 1000.0 * p90(latencies),
            "peak_rss_mb": rss_mb,
            "index_file_mb": index_mb,
            "awrf_mean": awrf_mean,
            "ndcg_mean": ndcg_mean,
        },
    }
    if tracer is not None:
        for name, times in per_command.items():
            extra[f"cli.{name}_s"] = median(times)
        result["layers"] = tracing.layer_metrics(
            tracer, len(setup_times), len(per_command["eval"]), wall, extra)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-s{args.seed}.json")
    return result
