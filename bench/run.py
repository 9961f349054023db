"""FAIR-QR benchmark: one workload per run, a JSON result on the last line.

    python3 bench/run.py --workload refine-lexicon --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ./src and the
CLI is started as `python3 -m fairqr.cli`. With --trace 0 the result holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run, and the spans are written to .bench_work/traces/. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("refine-lexicon", "mmr-large", "cli-llm-eval")

END_TO_END_UNITS = {
    "setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
    "query_p90_ms": "ms", "peak_rss_mb": "MB", "index_file_mb": "MB",
    "awrf_mean": "1", "ndcg_mean": "1",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fairqr" / "__init__.py").is_file():
        print(f"fairqr sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fairqr  # noqa: F401  (fails loudly if the package is broken)

    if args.workload == "cli-llm-eval":
        from cli_llm import run_workload
    else:
        from inproc import run_workload
    result = run_workload(args)

    for error in result["errors"][:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if args.trace:
        from tracer import layer_unit
        units = {name: layer_unit(name) for name in result["layers"]}
        values = result["layers"]
    else:
        units = END_TO_END_UNITS
        values = result["metrics"]
    line = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
