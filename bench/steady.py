"""Steadiness mode: two interleaved sets of runs per workload, then their spread.

    python3 bench/steady.py

For each of the seeds 1 to 10 it runs every workload in BENCHMARK.json for
its run_seconds, once for set A and then once for set B, so the two runs of
one workload and seed are never back to back and the two sets span the same
stretch of time. It prints, per workload
and end-to-end metric, each set's median and quartiles, the spread (quartile
distance over the median) and the drift between the set medians, against the
bound in BENCHMARK.json, and writes everything to .bench_work/steady.json.
The bounds in BENCHMARK.json were set from this output (see README.md).
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: {"A": [], "B": []} for w in workloads}
    for seed in SEEDS:
        for set_name in ("A", "B"):
            for workload in workloads:
                r = run_once(workload, seed, bench["run_seconds"])
                results[workload][set_name].append(r)
                print(f"set {set_name} {workload} seed {seed}: "
                      f"{r['wall_s']:.1f} s, correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)

    report = {}
    worst_ok = True
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':16} {'bound':>6} {'median A':>12} {'median B':>12} "
              f"{'spread A':>9} {'spread B':>9} {'drift':>8}")
        report[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = {s: summary([r["metrics"][name]["value"]
                                for r in results[workload][s]])
                    for s in ("A", "B")}
            drift = (sets["B"]["median"] - sets["A"]["median"]) / sets["A"]["median"]
            worse = drift if metric["better"] == "lower" else -drift
            ok = (worse <= bound / 3
                  and max(sets["A"]["spread"], sets["B"]["spread"]) <= bound / 3)
            worst_ok &= ok
            report[workload][name] = {"A": sets["A"], "B": sets["B"],
                                      "drift": drift, "bound": bound, "ok": ok}
            print(f"  {name:16} {bound:6.3f} {sets['A']['median']:12.5g} "
                  f"{sets['B']['median']:12.5g} {sets['A']['spread']:9.4f} "
                  f"{sets['B']['spread']:9.4f} {drift:+8.4f}"
                  f"{'' if ok else '  <-- over a third of the bound'}")
        shares = {s: sum(r["failed"] for r in results[workload][s]) /
                  sum(r["attempted"] for r in results[workload][s])
                  for s in ("A", "B")}
        walls = [r["wall_s"] for s in ("A", "B") for r in results[workload][s]]
        print(f"  failed share A {shares['A']:.6f} B {shares['B']:.6f}; "
              f"run wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        report[workload]["failed_share"] = shares
        report[workload]["wall_s"] = walls
    out = ROOT / ".bench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"results": results, "report": report}, indent=1))
    print(f"\n{'every' if worst_ok else 'NOT every'} spread and drift is within "
          f"a third of its bound; details in {out.relative_to(ROOT)}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
