"""Host-speed probe: the benchmark reports times in reference seconds.

The benchmark's host is a shared virtual machine whose cores switch, every
few hundred milliseconds, between their uncontended speed and one about 1.7
times slower.  Wall times of identical runs then spread by 20-40%, more than
any bound a regression gate can use.  The probe measures that speed while a
sample runs: a SIGALRM timer interrupts the main thread every ``INTERVAL_S``
and times a fixed pure-Python loop (objects with integer arithmetic, a
tuple-keyed dict and scattered reads of a 4 MB list, like the library).  A stretch of wall time is converted to reference seconds
by removing the probes that ran inside it and multiplying the rest by the
mean speed, ``REF_PROBE_S / probe time``, of the probes near it.

``REF_PROBE_S`` is the loop's time on an uncontended core of the 2-vCPU Intel
Xeon virtual machine the baseline was measured on, so a reference second is
about an uncontended second there.  The constant never changes between
commits; the program under test never runs the probe loop.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from statistics import fmean
from time import perf_counter

INTERVAL_S = 0.01
PROBE_ITERATIONS = 500
REF_PROBE_S = 0.0004
# probes this far outside a timed stretch still count towards its speed, so a
# query shorter than the interval gets the speed measured next to it
WINDOW_S = 0.015


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def mul(self, other: _Pair) -> _Pair:
        return _Pair(self.x * other.x - self.y * other.y, self.x * other.y + self.y * other.x)


# 4 MB of list slots read at scattered places: the probe's speed then also
# reflects contention for the caches, which the library's larger orbit graphs
# and tables feel, and not only contention for the core
_SLOTS = [0] * (1 << 19)


def _probe_loop(n: int = PROBE_ITERATIONS) -> int:
    """Gaussian-integer powers, a tuple-keyed dict and scattered list reads."""
    base = _Pair(3, 1)
    z = _Pair(1, 0)
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for _ in range(n):
        z = z.mul(base)
        z = _Pair(z.x % 1000003, z.y % 1000003)
        key = (z.x & 255, z.y & 255)
        seen[key] = seen.get(key, 0) + 1
        acc += _SLOTS[(z.x * 1000003 + z.y) & 0x7FFFF]
    return acc


class Probe:
    """Timed probe loops at a fixed wall-clock interval, kept in memory."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def start(self) -> None:
        for _ in range(3):  # let the interpreter specialise the loop first
            _probe_loop()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe_loop()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed, relative to the reference, around [t0, t1]."""
        lo = bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:  # none near: the closest probe on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        if lo == hi:
            raise RuntimeError("the host-speed probe never ran")
        return fmean(REF_PROBE_S / (self.ends[i] - self.starts[i]) for i in range(lo, hi))

    def net(self, t0: float, t1: float) -> float:
        """Wall seconds from t0 to t1 that no probe took."""
        lo = max(bisect_left(self.starts, t0) - 1, 0)
        hi = bisect_right(self.starts, t1)
        covered = sum(
            max(0.0, min(self.ends[i], t1) - max(self.starts[i], t0)) for i in range(lo, hi)
        )
        return t1 - t0 - covered

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The wall stretch [t0, t1], net of probes, in reference seconds."""
        return self.net(t0, t1) * self.speed(t0, t1)
