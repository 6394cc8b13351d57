"""Bandwidth-latency memory controller model (paper Section V).

"For the memory controllers, we implement a simple bandwidth-latency model
that enqueues up to 32 requests and services them in order according to
the latency and bandwidth configuration.  Each memory module is capable of
servicing 68GBps ... We assume a memory access granularity of 64B, and
requests which are not integer multiples of 64B and properly aligned will
result in wasted DRAM bandwidth."
"""

from __future__ import annotations

import math
from collections import deque

from repro.accel.config import MemoryConfig
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.sim.module import Module
from repro.sim.stats import BusyTracker, StatSet

#: Counters derived from the size tallies, per request kind, in the
#: order the first request of that kind inserts them.
_READ_KEYS = ("requests", "reads", "bytes_requested", "bytes_serviced",
              "bytes_wasted")
_WRITE_KEYS = ("requests", "writes", "bytes_requested", "bytes_serviced",
               "bytes_wasted")


class MemoryController(Module):
    """One memory node servicing aligned 64B bursts in order."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: MemoryConfig = MemoryConfig(),
    ) -> None:
        # The DRAM channel timing is independent of the tile clock; a
        # 1 GHz bookkeeping clock keeps cycle reports meaningful.
        super().__init__(sim, name, Clock(1.0))
        self.config = config
        self.channel = BusyTracker()
        # Completion times of the last ``queue_depth`` requests: the
        # in-order queue's slots (the deque drops the oldest itself).
        self._completions: deque[float] = deque(maxlen=config.queue_depth)
        # Request sizes repeat heavily (a layer issues the same feature /
        # block / burst sizes for every task), so the alignment and
        # serialization arithmetic is memoized per size, one memo per
        # request kind.  Each entry is ``[aligned_size, transfer_ns,
        # requests]``: the exact results of the original expressions —
        # same operations, computed once — plus a tally of the requests
        # of that size, from which the request counters are derived.
        self._reads: dict[int, list] = {}
        self._writes: dict[int, list] = {}
        self.stats = StatSet(self._tallies)

    def aligned_size(self, size_bytes: int) -> int:
        """Request size rounded up to the access granularity."""
        if size_bytes < 0:
            raise ValueError("request size cannot be negative")
        gran = self.config.access_granularity_bytes
        return max(gran, math.ceil(size_bytes / gran) * gran)

    def _new_size(self, size_bytes: int, write: bool) -> list:
        """Create the memo entry of a request size not seen for its kind."""
        aligned = self.aligned_size(size_bytes)
        entry = [aligned, aligned / self.config.bandwidth_gbps, 0]
        (self._writes if write else self._reads)[size_bytes] = entry
        return entry

    def _tallies(self) -> dict[str, int]:
        """The request counters, derived from the per-size tallies."""
        totals = dict.fromkeys(
            ("requests", "reads", "writes", "bytes_requested",
             "bytes_serviced", "bytes_wasted"), 0
        )
        for kind, memo in (("reads", self._reads), ("writes", self._writes)):
            for size_bytes, (aligned, _, count) in memo.items():
                totals["requests"] += count
                totals[kind] += count
                totals["bytes_requested"] += count * size_bytes
                totals["bytes_serviced"] += count * aligned
                totals["bytes_wasted"] += count * (aligned - size_bytes)
        return totals

    def request(self, size_bytes: int, now: float, write: bool = False) -> float:
        """Issue a request; returns the completion time in ns.

        The request is accepted once a slot in the 32-entry queue frees,
        serialized on the channel at the configured bandwidth (after
        alignment), and completes one fixed DRAM latency later.
        """
        entry = (self._writes if write else self._reads).get(size_bytes)
        if entry is None:
            entry = self._new_size(size_bytes, write)
        completions = self._completions
        accept = now
        if len(completions) == completions.maxlen:
            # In-order queue: the oldest outstanding request must finish
            # before this one can occupy its slot.
            oldest = completions[0]
            if oldest > accept:
                accept = oldest
                counters = self.stats._counters
                counters["queue_stalls"] = (
                    counters.get("queue_stalls", 0.0) + 1.0
                )
        if not entry[2]:
            # First request of this size and kind: its counters exist
            # from here on, in the order live counting inserted them.
            self.stats.declare(_WRITE_KEYS if write else _READ_KEYS)
        entry[2] += 1
        completion = (
            self.channel.occupy_until(accept, entry[1])
            + self.config.latency_ns
        )
        completions.append(completion)
        return completion

    def request_scatter(
        self, count: int, size_each_bytes: int, now: float, write: bool = False
    ) -> float:
        """Issue ``count`` independent small requests as one batch.

        Used for gather/scatter phases (per-neighbour feature reads,
        traversal visits) where the per-request alignment waste and
        aggregate serialization matter but simulating every request as a
        separate event would be prohibitive.  Each request is aligned
        individually, so a 4B traversal read still costs a full 64B burst
        of DRAM bandwidth.  Returns the completion time of the last
        request.
        """
        if count < 0:
            raise ValueError("request count cannot be negative")
        if count == 0:
            return now
        entry = (self._writes if write else self._reads).get(size_each_bytes)
        if entry is None:
            entry = self._new_size(size_each_bytes, write)
        completions = self._completions
        accept = now
        if len(completions) == completions.maxlen:
            oldest = completions[0]
            if oldest > accept:
                accept = oldest
                counters = self.stats._counters
                counters["queue_stalls"] = (
                    counters.get("queue_stalls", 0.0) + 1.0
                )
        if not entry[2]:
            self.stats.declare(_WRITE_KEYS if write else _READ_KEYS)
        entry[2] += count
        transfer_ns = count * entry[0] / self.config.bandwidth_gbps
        completion = (
            self.channel.occupy_until(accept, transfer_ns)
            + self.config.latency_ns
        )
        completions.append(completion)
        return completion

    # -- reporting ---------------------------------------------------------

    def bytes_serviced(self) -> float:
        """Total DRAM traffic including alignment waste."""
        return self.stats.get("bytes_serviced")

    def bandwidth_utilization(self, elapsed_ns: float) -> float:
        """Fraction of peak bandwidth sustained over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        peak_bytes = self.config.bandwidth_gbps * elapsed_ns
        return min(1.0, self.bytes_serviced() / peak_bytes)
