"""Self-test of the benchmark's reference code, plus a smoke run of every workload.

    python3 bench/selftest.py           # reference code on hand-worked values
    python3 bench/selftest.py --smoke   # also every workload on tiny inputs,
                                        # traced and untraced, all checks on

Exits 0 when everything passes and prints one line per failure otherwise.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ref  # noqa: E402
from stub import stub_reply  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, got, want, tol: float = 1e-12) -> None:
    if isinstance(want, (list, tuple)) and not isinstance(want[0], float):
        ok = list(got) == list(want)
    else:
        ok = np.allclose(np.asarray(got, float), np.asarray(want, float),
                         rtol=0, atol=tol)
    if not ok:
        FAILURES.append(f"{name}: got {got!r}, want {want!r}")


def test_bm25() -> None:
    # Three documents of lengths 2, 3, 3: avgdl 8/3. "a" is in d1 and d2.
    rix = ref.RefIndex([("d1", "a b"), ("d2", "A a c"), ("d3", "b c d")])
    idf_a = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))       # ln 1.6
    idf_d = math.log(1 + (3 - 1 + 0.5) / (1 + 0.5))       # ln (8/3)
    norm2 = 1.2 * (0.25 + 0.75 * 2 / (8 / 3))             # 0.975
    norm3 = 1.2 * (0.25 + 0.75 * 3 / (8 / 3))             # 1.3125
    expect("idf", [rix.idf("a"), rix.idf("d"), rix.idf("zzz")],
           [idf_a, idf_d, 0.0])
    want = [idf_a * 2.2 / (1 + norm2), idf_a * 2 * 2.2 / (2 + norm3), 0.0]
    expect("bm25 a", rix.scores("a"), want)
    expect("bm25 repeated term counts once", rix.scores("a a"), want)
    expect("bm25 a d", rix.scores("a d"),
           [want[0], want[1], idf_d * 2.2 / (1 + norm3)])
    expect("top a", rix.top("a", 5), ["d2", "d1"])
    expect("top excludes zero scores", rix.top("d", 5), ["d3"])
    # Equal scores (identical texts) break by doc id.
    ties = ref.RefIndex([("x2", "t u"), ("x1", "t u"), ("x3", "u")])
    expect("tie order", ties.top("t", 5), ["x1", "x2"])
    scores = ties.scores("t")
    s = float(scores[0])
    if ref.check_top([("x2", s), ("x1", s)], ties, scores, 5, "t") is not None:
        FAILURES.append("check_top rejected a tie in another order")
    if ref.check_top([("x1", s)], ties, scores, 5, "t") is None:
        FAILURES.append("check_top accepted a list missing a document")
    if ref.check_top([("x1", s), ("x2", s * 1.01)], ties, scores, 5, "t") is None:
        FAILURES.append("check_top accepted a wrong score")


def test_fairness() -> None:
    subgroups = ["female", "male", "Unknown"]
    labels = {"d1": ["female"], "d2": ["male"], "d3": ["female", "male"]}
    expect("exposure", ref.exposure(["d1", "d2", "d3"], labels, subgroups, 3),
           [0.5, 0.5, 0.0])
    expect("exposure cut at k", ref.exposure(["d1", "d2", "d3"], labels,
                                             subgroups, 1), [1.0, 0.0, 0.0])
    expect("unknown id", ref.exposure(["zz"], labels, subgroups, 1), [0, 0, 1.0])
    expect("target", ref.target(["d1", "d3"], labels, subgroups), [0.75, 0.25, 0])
    expect("kl of equal", ref.kl([0.5, 0.5], [0.5, 0.5]), 0.0)
    expect("kl", ref.kl([1.0, 0.0], [0.5, 0.5]), math.log(2), tol=1e-4)
    expect("js disjoint", ref.js([1.0, 0.0], [0.0, 1.0]), 1.0)
    expect("js equal", ref.js([0.3, 0.7], [0.3, 0.7]), 0.0)
    # JS([1,0],[.5,.5]) = 1/2 log2(1/.75) + 1/2 (1/2 log2(.5/.75) + 1/2 log2(.5/.25))
    want = 0.5 * math.log2(4 / 3) + 0.25 * math.log2(2 / 3) + 0.25 * 1.0
    expect("js", ref.js([1.0, 0.0], [0.5, 0.5]), want)
    expect("awrf", ref.awrf(["d1"], labels, subgroups, [0.0, 1.0, 0.0], 1), 0.0)
    expect("most underrepresented",
           [ref.most_underrepresented([0.5, 0.5, 0], [0.2, 0.8, 0], subgroups)],
           ["male"])


def test_ndcg() -> None:
    judged = {"d1": 1, "d2": 0, "d3": 1}
    expect("ndcg perfect", ref.ndcg(["d1", "d3"], judged, 2), 1.0)
    expect("ndcg", ref.ndcg(["d2", "d1"], judged, 2),
           (1 / math.log2(3)) / (1 + 1 / math.log2(3)))
    expect("ndcg none relevant", ref.ndcg(["d1"], {"d1": 0}, 5), 0.0)


def test_mmr() -> None:
    # d1, d2 and d3 are equally relevant, so all have rel 1. d2 duplicates
    # d1 (similarity 1) and d3 shares one of five terms with it (1/5), so
    # with lambda 0.5 the order is d1 (first by doc id), d3 at 0.5 - 0.1,
    # then d2 at 0.5 - 0.5.
    rix = ref.RefIndex([("d1", "q q x y"), ("d2", "q q x y"),
                        ("d3", "q q z w"), ("d4", "n m")])
    scores = rix.scores("q")
    pool = ["d1", "d2", "d3"]
    good = [("d1", 1.0), ("d3", 0.4), ("d2", 0.0)]
    error = ref.mmr_check(good, pool, rix, scores, 0.5, 3)
    if error:
        FAILURES.append(f"mmr_check rejected the greedy order: {error}")
    bad = [("d1", 1.0), ("d2", 0.0), ("d3", 0.4)]
    if ref.mmr_check(bad, pool, rix, scores, 0.5, 3) is None:
        FAILURES.append("mmr_check accepted a non-greedy order")
    expect("jaccard", ref.jaccard(frozenset("ab"), frozenset("bc")), 1 / 3)


def test_stub() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from fairqr.fairness import ExposureDistribution, FairnessTarget
    from fairqr.refine import DEFAULT_PROMPT_TEMPLATE, parse_refinement, render_prompt
    subgroups = ("female", "male", "Unknown")
    target = FairnessTarget("q1", "gender",
                            ExposureDistribution("gender", [0.5, 0.5, 0.0]), "x")
    current = ExposureDistribution("gender", [0.9, 0.1, 0.0])
    prompt = render_prompt(DEFAULT_PROMPT_TEMPLATE, "topic07 markerfemale",
                           target, current, 20, "male", subgroups)
    reply = stub_reply(prompt, {"male": ["markermale"]})
    expect("stub refined query", [parse_refinement(reply, "")],
           ["topic07 markerfemale markermale"])


def smoke() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            name = f"smoke {workload} trace={trace}"
            if proc.returncode != 0:
                FAILURES.append(f"{name}: exit {proc.returncode}: {proc.stderr[-800:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            wanted = bench["per_layer" if trace else "end_to_end"]
            missing = {m["name"] for m in wanted} - set(line["metrics"])
            if not line["correct"] or line["failed"] or missing:
                FAILURES.append(f"{name}: {line} missing={sorted(missing)}")
            else:
                print(f"{name}: ok, {line['attempted']} operations")


def main() -> int:
    for test in (test_bm25, test_fairness, test_ndcg, test_mmr, test_stub):
        test()
    print(f"reference code: {'ok' if not FAILURES else 'FAILED'}")
    if "--smoke" in sys.argv[1:]:
        smoke()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
