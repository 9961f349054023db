"""The benchmark's own checks, run as tests.

`bench/selftest.py` checks the benchmark's reference code on hand-worked
values. A tiny mmr-large run then checks every output of the index and MMR
against `bench/ref.py`, which tokenises and scores the corpus on its own, so
an index build that changes a ranking fails here. Both write only under the
ignored `.bench_work/`.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [
    ["bench/selftest.py"],
    ["bench/run.py", "--workload", "mmr-large", "--size", "tiny",
     "--seed", "3", "--seconds", "1"],
], ids=["selftest", "mmr-large-tiny"])
def test_benchmark_checks_pass(args):
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, timeout=300,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    if args[0] == "bench/run.py":
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
