"""A fixed task that measures how fast the machine runs Python right now.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes, so the wall time of one ``pipeline.run``
depends on when it was taken as much as on the program.  ``sample()`` times
a fixed task with the same profile as the program's hot paths -- CSV
parsing, float conversion, numpy arrays from lists, hashing, dict grouping
and a pure-Python scan loop -- and the benchmark times it just before
and just after every timed span (each iteration, each set-up).
``normalised(wall, before, after)`` scales the span's wall time to a machine
on which the task takes ``REFERENCE_S``.

The task never touches topowin, so a change to the program moves the
normalised time in the same proportion as the wall time.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import random
import time

import numpy as np

REFERENCE_S = 0.030  # about the task's time on the 2-core machine the benchmark was built on

_rng = random.Random(12345)
# Small enough that the task adds nothing to the worker's peak RSS; it is
# parsed several times instead.
_TEXT = "\n".join(",".join(repr(_rng.gauss(0.0, 1.0)) for _ in range(6)) for _ in range(1000))
# Parsing and the scan loop take about equal shares of the task: the two
# kinds of work drift only partly together, and the sum tracks both the
# parse-bound warm path and the loop-bound assignment solver.
_PASSES = 4
_SCANS = 400


def _task() -> float:
    total = 0.0
    for _ in range(_PASSES):
        rows = list(csv.reader(io.StringIO(_TEXT)))
        values = np.asarray([[float(v) for v in r] for r in rows])
        hashlib.sha256(_TEXT.encode("utf-8")).hexdigest()
        groups: dict[str, list[int]] = {}
        for i, r in enumerate(rows):
            groups.setdefault(r[0][:4], []).append(i)
        total += float(values.sum())
    a = values[:400, 0].tolist()
    b = values[:400, 1].tolist()
    for _ in range(_SCANS):
        best, arg = float("inf"), -1
        for j in range(len(a)):
            c = abs(a[j] - b[j]) - a[j]
            if c < best:
                best, arg = c, j
        a[arg] += 1.0
    return total


def sample() -> float:
    """Wall seconds of one run of the task, with the garbage collector off
    so the program's live objects do not add to it."""
    gc.disable()
    try:
        start = time.perf_counter()
        _task()
        return time.perf_counter() - start
    finally:
        gc.enable()


def normalised(wall: float, before: float, after: float) -> float:
    """``wall`` scaled to the reference machine, by the task's mean time
    just before and just after the timed span."""
    return wall * REFERENCE_S / ((before + after) / 2.0)
