"""Machine-speed calibration for a shared, noisy sandbox.

The sandbox's two cores are shared with other tenants: the same op runs
10-25 % slower for tens of seconds at a time, longer than one run, so
no statistic taken inside a run can remove it.  A fixed reference loop
(interpreter arithmetic, dict inserts, a numpy sort: the instruction mix
of the program under test) is therefore timed between ops, and every
CPU-bound timing of a round is scaled by ``NOMINAL_S / median reference
time of that round``.  A change to the program moves its own time and
not the reference's, so it shows in full; a slow phase of the machine
moves both and cancels.  Timings are thus "milliseconds at nominal
machine speed"; the raw figures and the speed factor are reported
per-layer (``bench.round_raw_ms``, ``bench.machine_speed``).

The two cores are not alike either: the reference-to-op ratio differs by
~6 % between them and is steady to ~1 % on each.  Single-client
workloads are therefore pinned to one core for the whole run, and the
reference loop always runs on that core, also for the workloads that
need both (``sharded_fanout``).

Sleep-bound timings (``service_jobs``: worker polls) are left as they are.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List

import numpy as np

#: What the reference loop takes on this sandbox in a quiet phase.
NOMINAL_S = 0.010
#: Least time between two samples: the loop then costs under a tenth of
#: the run.
EVERY_S = 0.1
_SORT_INPUT = np.random.default_rng(0).uniform(size=100_000)


def reference_loop() -> float:
    total = 0.0
    for i in range(150_000):
        total += i * 0.5
    table = {}
    for i in range(30_000):
        table[i] = i
    return total + float(np.sort(_SORT_INPUT).sum()) + len(table)


def home_cpu() -> int:
    """The core pinned workloads and the reference loop run on."""
    return max(os.sched_getaffinity(0))


class MachineSpeed:
    """Samples the reference loop on ``cpu``, at most once per ``EVERY_S``."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: List[float] = []
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < EVERY_S:
            return
        allowed = os.sched_getaffinity(0)
        if allowed != {self.cpu}:
            os.sched_setaffinity(0, {self.cpu})
        try:
            started = time.perf_counter()
            reference_loop()
            self._last = time.perf_counter()
        finally:
            if allowed != {self.cpu}:
                os.sched_setaffinity(0, allowed)
        self.samples.append(self._last - started)

    def factor(self, since: int = 0) -> float:
        """Scale for timings taken since sample ``since`` (1.0 = nominal)."""
        taken = self.samples[since:]
        return NOMINAL_S / statistics.median(taken) if taken else 1.0
