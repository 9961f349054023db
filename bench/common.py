"""Pieces shared by the workloads: inputs on disk, the timed loop, results."""
from __future__ import annotations

import gc
import json
import random
import statistics
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from calib import NOMINAL_S, calibrate

# Set-ups per run (setup_s is their median): three for the 200k-document
# index build, which takes about 5 s, and more where a set-up takes 1 s or less.
SETUPS = {"refine-lexicon": 11, "mmr-large": 3, "cli-llm-eval": 7}
# Operations per block: an in-process run checks the clock only between
# blocks, so it always attempts a whole number of blocks.
BLOCK = 40
# Calibration runs before and after each set-up or CLI command.
CALIBRATIONS = 10
# An operation's time is calibrated by the median of the WINDOW calibration
# runs nearest to it: the one right after it and WINDOW // 2 on either side.
WINDOW = 21


def read_queries(directory: Path):
    """(queries, qrels, lexicon): the small inputs, read before any timing."""
    queries = []
    with open(directory / "queries.tsv", encoding="utf-8") as fh:
        for line in fh:
            qid, _, text = line.rstrip("\n").partition("\t")
            queries.append((qid, text))
    qrels: dict[str, dict[str, int]] = {}
    with open(directory / "qrels.txt", encoding="utf-8") as fh:
        for line in fh:
            qid, _, doc_id, grade = line.split()
            qrels.setdefault(qid, {})[doc_id] = int(grade)
    with open(directory / "lexicon.json", encoding="utf-8") as fh:
        lexicon = json.load(fh)
    return queries, qrels, lexicon


def read_corpus(directory: Path):
    """(labels, subgroups, texts) for the checks, read after the timed loop
    so that the benchmark's copy of the corpus stays out of peak_rss_mb."""
    with open(directory / "schema.json", encoding="utf-8") as fh:
        category, subgroups = next(iter(json.load(fh).items()))
    labels, texts = {}, []
    with open(directory / "corpus.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            labels[record["id"]] = record["groups"].get(category) or ["Unknown"]
            texts.append((record["id"], record["text"]))
    return labels, list(subgroups), texts


def query_order(queries, seed: int) -> list[tuple[str, str]]:
    """Every query, shuffled by the seed: the order an in-process run uses."""
    order = list(queries)
    random.Random(seed).shuffle(order)
    return order


def timed_loop(seconds: float, order, op, tracer=None):
    """Closed loop, one client: the queries of `order`, starting again at
    the first after the last, in blocks of BLOCK until `seconds` have passed.

    Returns (latencies, calibrations, failed count, wall), with one latency
    per operation; the calibration loop runs after every operation. An
    operation that raises counts as failed.
    """
    latencies = []
    calibrations = []
    failed = 0
    position = 0
    start = perf_counter()
    while True:
        for _ in range(BLOCK):
            qid, text = order[position % len(order)]
            position += 1
            t0 = perf_counter()
            try:
                if tracer is None:
                    op(qid, text)
                else:
                    tracer.query_id = qid
                    with tracer.span("bench.op"):
                        op(qid, text)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"operation {qid} failed: {exc!r}", file=sys.stderr)
            latencies.append(perf_counter() - t0)
            calibrations.append(calibrate())
        now = perf_counter()
        if now - start >= seconds:
            return latencies, calibrations, failed, now - start


def calibrated_call(fn):
    """(fn's result, its seconds, the calibration runs that give the speed):
    CALIBRATIONS runs of the calibration loop before the call and as many
    after it."""
    before = [calibrate() for _ in range(CALIBRATIONS)]
    t0 = perf_counter()
    result = fn()
    elapsed = perf_counter() - t0
    after = [calibrate() for _ in range(CALIBRATIONS)]
    return result, elapsed, before + after


def repeated_setups(setup, n: int):
    """Run `setup` n times, keeping only the last state.

    Returns (state, calibrated seconds of each set-up).
    """
    times, state = [], None
    for _ in range(n):
        state = None
        gc.collect()
        state, seconds, calibrations = calibrated_call(setup)
        times.append(calibrated(seconds, calibrations))
    return state, times


def calibrated(seconds: float, calibrations) -> float:
    """A timing in seconds of the reference machine (see calib.py)."""
    return seconds * NOMINAL_S / median(calibrations)


def calibrated_each(latencies, calibrations) -> list[float]:
    """timed_loop's latencies, each calibrated by the WINDOW calibration
    runs nearest to it (calibrations[i] ran right after latencies[i])."""
    half = WINDOW // 2
    return [calibrated(t, calibrations[max(0, i - half):i + half + 1])
            for i, t in enumerate(latencies)]


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


