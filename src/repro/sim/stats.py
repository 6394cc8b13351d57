"""Statistics helpers shared by simulation modules.

Three pieces:

* :class:`StatSet` — a named bag of additive counters, some of which
  may be derived from per-shape tallies (below).
* :class:`BusyTracker` — accumulates busy time so modules can report
  utilization (e.g. the DNA utilization plotted in the paper's Figure 10).
* :func:`reserve_path` — :meth:`BusyTracker.occupy` over a chain of
  trackers, the packet NoC's per-message route walk.

Tally-derived counters
----------------------

The NoC's message counters (``packets``, ``flits``, ``bytes``,
``flit_hops``) and the memory controller's request counters
(``requests``, ``reads``, ``writes``, ``bytes_requested``,
``bytes_serviced``, ``bytes_wasted``) are pure functions of how often
each message or request *shape* occurred, and both units already memo
per shape.  So instead of four to six dict updates per message, each
memo entry carries a hit count, and the :class:`StatSet` derives the
counters from those tallies whenever it is read (``get``, ``as_dict``,
``merge``).  A counter's key is inserted, with value 0.0, the first time
a shape that feeds it is used — exactly when the per-message update
would first have inserted it — so key presence (``in``) and key order
are those of live counting.

This is exact, not approximate: every increment is an integer-valued
float (message and request sizes are whole bytes), and a sum of
integers below 2**53 is exact in any order, so ``count * size`` summed
per shape equals the running per-message float sum bit for bit.
Counters that are not a function of the shape — ``queue_stalls`` and
the fault counters — stay live.
"""

from __future__ import annotations

from typing import Callable


class StatSet:
    """A named collection of additive counters.

    Slotted, plain-dict storage: ``add`` is called millions of times per
    simulation (every issue/request/contribution accounts through one),
    so it avoids ``defaultdict.__missing__`` dispatch and keeps the
    counter dict reachable for hot callers that fold several increments
    into one dict transaction.

    ``tallied`` returns the tally-derived part of the counters (see the
    module docstring); a counter's value is its live part plus its
    derived part, and only keys present in the live dict exist.
    """

    __slots__ = ("_counters", "_tallied")

    def __init__(
        self, tallied: Callable[[], dict[str, int]] | None = None
    ) -> None:
        self._counters: dict[str, float] = {}
        self._tallied = tallied

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        counters = self._counters
        counters[name] = counters.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never incremented)."""
        value = self._counters.get(name, 0.0)
        if self._tallied is not None and name in self._counters:
            value += self._tallied().get(name, 0)
        return value

    def as_dict(self) -> dict[str, float]:
        """Snapshot of all counters."""
        counters = dict(self._counters)
        if self._tallied is not None:
            for name, value in self._tallied().items():
                if name in counters:
                    counters[name] += value
        return counters

    def merge(self, other: "StatSet") -> None:
        """Add all counters from ``other`` into this set."""
        counters = self._counters
        for name, value in other.as_dict().items():
            counters[name] = counters.get(name, 0.0) + value

    def declare(self, names: tuple[str, ...]) -> None:
        """Insert ``names`` at 0.0 unless present (tally-derived keys)."""
        counters = self._counters
        for name in names:
            if name not in counters:
                counters[name] = 0.0

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self.as_dict().items()))
        return f"StatSet({body})"


class BusyTracker:
    """Accumulates non-overlapping busy intervals for utilization reporting.

    Callers mark work with :meth:`occupy`, which extends the busy horizon;
    overlapping requests serialize, which is exactly the behaviour of a
    single shared resource (a DNA array, a memory channel, a NoC link).

    An optional *span sink* (:meth:`attach_span_sink`) receives one
    ``(request_ns, start_ns, finish_ns)`` record per grant, which is how
    the observability layer (:mod:`repro.obs`) reconstructs busy- and
    stall-spans for timeline export.  With no sink attached the tracker
    does no extra work beyond one ``is not None`` check per grant.
    """

    __slots__ = ("_busy_until", "_busy_time", "_first_use", "_last_use",
                 "_span_sink")

    def __init__(self) -> None:
        self._busy_until = 0.0
        self._busy_time = 0.0
        self._first_use: float | None = None
        self._last_use = 0.0
        self._span_sink: list[tuple[float, float, float]] | None = None

    def attach_span_sink(
        self, sink: list[tuple[float, float, float]]
    ) -> None:
        """Record every future grant as ``(request, start, finish)`` into
        ``sink`` (any object with ``append``)."""
        self._span_sink = sink

    @property
    def busy_until(self) -> float:
        """Time at which the resource next becomes free."""
        return self._busy_until

    @property
    def busy_time(self) -> float:
        """Total accumulated busy time."""
        return self._busy_time

    def occupy(self, now: float, duration: float) -> tuple[float, float]:
        """Reserve the resource for ``duration`` starting no earlier than ``now``.

        Returns ``(start, finish)`` of the granted interval.  If the
        resource is still busy at ``now`` the interval starts when it
        frees up (FIFO serialization).
        """
        busy_until = self._busy_until
        finish = self.occupy_until(now, duration)
        return (now if busy_until <= now else busy_until), finish

    def occupy_until(self, now: float, duration: float) -> float:
        """:meth:`occupy`, returning only the finish time.

        The hot callers (GPE issue, memory channel, AGG ALU bank)
        discard the start, so this form allocates no tuple.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        start = self._busy_until
        if start <= now:  # max(now, busy_until), now on a tie
            start = now
        finish = start + duration
        self._busy_until = finish
        self._busy_time += duration
        if self._first_use is None:
            self._first_use = start
        self._last_use = finish
        if self._span_sink is not None:
            self._span_sink.append((now, start, finish))
        return finish

    def record_span(self, now: float, start: float, finish: float) -> None:
        """Account a busy span without serializing behind it.

        Unlike :meth:`occupy`, the busy horizon (``busy_until``) does not
        advance, so later callers are never queued behind the span — the
        contention-free bookkeeping the analytical NoC backend needs to
        report utilization and feed the observability timeline while
        keeping its zero-contention delivery model.  ``busy_until`` still
        moves only through :meth:`occupy` (e.g. fault blackouts), which
        keeps :func:`stalled_links`-style wedge detection meaningful.
        """
        if finish < start:
            raise ValueError("span cannot end before it starts")
        self._busy_time += finish - start
        if self._first_use is None:
            self._first_use = start
        self._last_use = max(self._last_use, finish)
        if self._span_sink is not None:
            self._span_sink.append((now, start, finish))

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the resource spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_time / elapsed)


def reserve_path(
    trackers: tuple[BusyTracker, ...],
    head: float,
    duration: float,
    hop: float,
) -> float:
    """Reserve ``duration`` on each tracker in turn, like a packet's head
    walking a route; returns the head time one ``hop`` past the last grant.

    Each tracker gets exactly what ``tracker.occupy(head, duration)``
    would do, span sink included, with ``head`` moving to the granted
    start plus ``hop`` before the next one.  Inlined because the packet
    NoC walks a route once per message — hundreds of thousands of times
    per simulation.
    """
    if duration < 0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    for tracker in trackers:
        start = tracker._busy_until
        if start <= head:  # max(head, busy_until), head on a tie
            start = head
        finish = start + duration
        tracker._busy_until = finish
        tracker._busy_time += duration
        if tracker._first_use is None:
            tracker._first_use = start
        tracker._last_use = finish
        if tracker._span_sink is not None:
            tracker._span_sink.append((head, start, finish))
        head = start + hop
    return head
