"""Host-speed calibration: scale measured times to a reference host speed.

The machine the benchmark runs on is shared, and its speed drifts by up to
1.7x over tens of seconds; process CPU time drifts with wall time, so the
slowdown is not scheduling.  A time measured in a slow stretch says more
about the neighbours than about dbasim.  Each timed operation is therefore
bracketed by a fixed calibration job that is independent of dbasim, and
its time is scaled by ``reference / calibration``, the calibration taken
as the mean of the jobs just before and just after it.  The result reads as
the operation's time on a host where the calibration job takes its
reference time.

Two jobs, because the two kinds of operation slow down differently:

* ``kernel`` runs in-process and brackets ``run_batch`` calls.  It shuffles,
  copies and scans small integer lists and tuples through comprehensions,
  sets and dicts, as dbasim's list generation and claim checks do.
* ``CHILD_ARGS`` is a fresh interpreter importing a fixed set of standard
  modules, and brackets every child process (CLI invocations and set-up
  probes), whose time is interpreter start-up and imports.

On the 2-vCPU VM the benchmark was built on, the medians of 15-second
stretches of raw ``run_batch`` times moved by 53-86% over two and a half
minutes, and of scaled times by 8-19%; for CLI wall times, 33% raw and 10%
scaled.
"""

from __future__ import annotations

import random
import time
from typing import Callable

#: seconds ``kernel`` takes on the reference host
KERNEL_REF_S = 0.01
#: seconds a ``CHILD_ARGS`` process takes on the reference host
CHILD_REF_S = 0.16
CHILD_ARGS = [
    "-c",
    "import json, decimal, argparse, dataclasses, fractions, statistics, email.parser, "
    "http.client, xml.dom.minidom, unittest, asyncio, logging.handlers, tarfile, inspect",
]


def kernel() -> int:
    """A fixed, deterministic pure-Python job of about 10 ms."""
    rng = random.Random(2)
    hits = 0
    for _ in range(120):
        trits = [0] * 20 + [1] * 20 + [2] * 20
        rng.shuffle(trits)
        marked = [j for j, v in enumerate(trits) if v == 2]
        rows = {}
        for k in range(6):
            bits = list(trits)
            for pos, coin in zip(marked, rng.sample(range(2), 2) * 10):
                bits[pos] = coin
            rows[k] = tuple(bits)
        for row in rows.values():
            pos = [j for j, v in enumerate(row) if v == 1][:20]
            if len(set(pos)) == len(pos) and all(rows[0][x] in (0, 1) for x in pos):
                hits += 1
    return hits


class Calibrator:
    """Times one calibration job between operations and scales the operations' times.

    ``before()`` is called right before an operation and ``scale(wall)``
    right after it: it times the job once more and scales ``wall`` by the
    mean of that time and the one before the operation.  The job after one
    operation is the job before the next, so consecutive operations share
    it; ``forget`` drops it when other work came in between.
    """

    def __init__(self, job: Callable[[], float], reference_s: float) -> None:
        self.job, self.reference_s = job, reference_s
        self.last: float | None = None
        self.times: list[float] = []

    def _time(self) -> float:
        t = self.job()
        self.times.append(t)
        return t

    def before(self) -> None:
        """Time the job now unless the last operation just did."""
        if self.last is None:
            self.last = self._time()

    def scale(self, wall: float) -> float:
        """``wall`` of an operation that ran since ``before``, scaled."""
        assert self.last is not None, "call before() ahead of the operation"
        before, self.last = self.last, self._time()
        return wall * self.reference_s * 2 / (before + self.last)

    def forget(self) -> None:
        self.last = None


def timed(fn: Callable[[], object]) -> Callable[[], float]:
    """Wall seconds of one call of ``fn``."""

    def run() -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    return run
