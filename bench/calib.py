"""A fixed calibration loop that tracks the speed of a shared machine.

The machine these figures come from runs the same code at speeds up to 25%
apart from one second to the next and up to 40% apart from one run to the
next, because its vCPUs are shared with other tenants. The benchmark runs
`calibrate()` after every timed operation. It divides each timing by the
run's median calibration time, then multiplies by NOMINAL_S. A timing is then
given in seconds of a machine on which this loop takes NOMINAL_S.

The loop does what fairqr's hot paths do: it tokenises with a regex,
accumulates BM25-like float scores in a dict keyed by document id, sorts,
and computes Jaccard similarities of small sets. It never calls fairqr, so
a change to the program cannot change it.
"""
from __future__ import annotations

import random
import re
from time import perf_counter

# Median calibration time on the reference machine (2 vCPU Xeon, 2.1 GHz,
# Python 3.11). It is a unit of measure and must never change.
NOMINAL_S = 0.002

_rng = random.Random(7)
_WORDS = [f"w{_rng.randrange(3000)}" for _ in range(300)]
_TEXT = " ".join(_WORDS)
_TOKEN = re.compile(r"[a-z0-9]+")
_POSTINGS = [(f"d{_rng.randrange(200000):06d}", _rng.randrange(1, 4))
             for _ in range(1500)]
_LENGTHS = {d: _rng.randrange(5, 30) for d, _ in _POSTINGS}
_SETS = [frozenset(_rng.sample(_WORDS, 12)) for _ in range(40)]


def calibrate() -> float:
    """Run the loop once; returns its wall time in seconds."""
    start = perf_counter()
    _TOKEN.findall(_TEXT.lower())
    acc: dict[str, float] = {}
    for doc_id, tf in _POSTINGS:
        norm = 1.2 * (0.25 + 0.75 * _LENGTHS[doc_id] / 12.0)
        acc[doc_id] = acc.get(doc_id, 0.0) + 1.3 * tf * 2.2 / (tf + norm)
    sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
    for a in _SETS:
        for b in _SETS[:8]:
            len(a & b) / len(a | b)
    return perf_counter() - start
