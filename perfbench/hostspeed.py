"""Host speed probe for untraced passes.

The benchmark runs on a few shared cores whose speed drifts: on a 2-vCPU
host, the same pass took anywhere from 0.75x to 1.3x its median within a
few minutes, the two vCPUs drifted independently of each other, and CPU
time stayed equal to wall time, so neither CPU time nor a probe in another
process or between passes tracks the drift.

``Probe`` samples the speed of the CPU the pass runs on, during the pass:
a SIGALRM timer interrupts the pass every ``PERIOD_S`` and runs ``kernel``,
a fixed piece of work of the kinds the workloads spend their time on
(a Python loop over numpy int64 scalars, dict updates, big-integer
products), about 3 ms long.  The kernel's mean time over a pass, the
*tick*, measures how fast the CPU ran during that pass.  On that host, the
tick and the pass's own time (ticks excluded) had a correlation of 0.95
over 33 passes of hom-sweep, and scaling each pass by
``REFERENCE_TICK_S / tick`` cut the spread of 30-second medians from
0.15 to 0.05 of the median.

The kernel is this file's code only, so a change to the library does not
move the tick, and a change that makes a pass slower makes ``report_s``
larger by the same factor.  ``setup_s`` is scaled the same way, by the
mean tick measured right after set-up.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
# The tick on an idle core of the 2-vCPU host the bounds were set on; it
# only fixes the scale of report_s, which reads as seconds at that speed.
REFERENCE_TICK_S = 0.003

_N = 4096
_NEIGHBOURS = np.stack([(np.arange(_N, dtype=np.int64) + k) % _N for k in (1, -1, 64, -64)], 1).ravel()
_VALUES = np.zeros(_N, dtype=np.int64)
_BIG = 3**20000


def kernel() -> int:
    nbr, vals = _NEIGHBOURS, _VALUES
    for i in range(3000):
        v = nbr[(i * 37) % nbr.shape[0]]
        x = vals[nbr[v]]
        if x > vals[v]:
            vals[v] = x
    d = {}
    for i in range(3000):
        d[i * 31 % 1009] = i
    return (_BIG * (_BIG + 7)) % 1_000_003 + len(d)


def mean_tick(n: int = 20) -> float:
    """Mean time of ``n`` kernels run back to back."""
    t0 = time.perf_counter()
    for _ in range(n):
        kernel()
    return (time.perf_counter() - t0) / n


class Probe:
    """Ticks during ``start``..``stop``; ``spent`` is their total time, so
    a caller subtracts the ticks that fell inside an interval it timed."""

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.spent = 0.0

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.ticks.append(dt)
        self.spent += dt

    def start(self) -> None:
        self._tick()  # at least one tick, also for passes shorter than PERIOD_S
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Disarm the timer; return the mean tick."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.spent / len(self.ticks)
