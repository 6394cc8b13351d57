"""Host-speed calibration for a shared, noisy machine.

The host this benchmark runs on shares its cores with other tenants, and
its speed drifts by a third over minutes: the same simulation takes
0.30 s in one minute and 0.42 s in the next.  Medians inside one run
cannot remove drift that outlasts the run, so every run also times a
fixed pure-Python kernel, interleaved with its measurements, and scales
its host times by ``REFERENCE_S / median(kernel time)``.  The kernel
lives here and never calls the simulator, so a change to ``src/`` moves
the scaled times exactly as it moves the raw ones.

The kernel imitates the simulator's profile: a heap of timestamped
events, slotted unit objects reserving busy time, string-keyed counter
dicts, a bounded deque and float arithmetic.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import perf_counter

#: Kernel time (s) that scaled times are expressed against: the median
#: kernel time on a 2-vCPU x86-64 VM with CPython 3.11 in a quiet minute.
REFERENCE_S = 0.05


class _Unit:
    __slots__ = ("busy", "stats", "recent")

    def __init__(self) -> None:
        self.busy = 0.0
        self.stats: dict[str, float] = {}
        self.recent: deque = deque()

    def occupy(self, now: float, duration: float) -> float:
        start = now if now > self.busy else self.busy
        self.busy = start + duration
        stats = self.stats
        stats["requests"] = stats.get("requests", 0.0) + 1.0
        stats["busy_ns"] = stats.get("busy_ns", 0.0) + duration
        self.recent.append(self.busy)
        if len(self.recent) > 32:
            self.recent.popleft()
        return self.busy


def speed(repeats: int = 3) -> float:
    """Median host seconds of ``repeats`` kernel runs: the calibration
    taken on each side of a measurement."""
    return sorted(kernel() for _ in range(repeats))[repeats // 2]


def kernel(events: int = 40_000) -> float:
    """Host seconds of one fixed run of the calibration kernel."""
    start = perf_counter()
    units = [_Unit() for _ in range(64)]
    queue = [(0.0, i, i % 64) for i in range(512)]
    heapq.heapify(queue)
    seq = len(queue)
    for _ in range(events):
        now, ident, unit = heapq.heappop(queue)
        done = units[unit].occupy(now, 1.5 + (ident % 7) * 0.25)
        heapq.heappush(queue, (done, seq, (unit * 5 + 3) % 64))
        seq += 1
    return perf_counter() - start
