"""Execution watchdogs for the discrete-event kernel.

The simulator itself has no opinion about how long a run should take: a
malformed configuration or an injected hardware fault can schedule events
arbitrarily far into the future, or spin through millions of events
without advancing simulated time.  A :class:`Watchdog` bounds a
``Simulator.run`` call along four independent axes:

* ``max_events`` — total events fired by this run;
* ``max_time_ms`` — simulated-time ceiling (checked against the *next*
  event's timestamp, so a single far-future event trips the budget
  before time jumps);
* ``max_wall_s`` — host wall-clock ceiling;
* ``stall_events`` — forward-progress window: consecutive events at one
  simulated timestamp before the run is declared stalled.

On any trip the watchdog raises :class:`WatchdogTrip`, a
:class:`~repro.sim.kernel.SimulationError` carrying a structured
:class:`WatchdogDiagnosis` — current time, queue depth, and pending-event
counts grouped by owning module — instead of letting the kernel spin.

The budgets cost almost nothing on a healthy run: the kernel's fast loop
tracks the watchdog's counters in locals and calls
:meth:`Watchdog.before_event` only on an event where a budget could
trip (every event when a wall-clock budget is set), so each trip and
its diagnosis come from the same code, at the same event, as in a loop
that calls it before every event.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.sim.kernel import Event, SimulationError, Simulator


@dataclass(frozen=True)
class WatchdogConfig:
    """Budgets for one :class:`~repro.sim.kernel.Simulator` run.

    The defaults are deliberately generous — two to three orders of
    magnitude above anything a paper benchmark needs (a Pubmed-scale run
    is ~1e5 events and a few milliseconds of simulated time) — so healthy
    workloads never notice the watchdog while a wedged one is still
    diagnosed in bounded time.  ``None`` disables an axis; all-``None``
    disables the watchdog entirely.
    """

    max_events: int | None = 50_000_000
    max_time_ms: float | None = 60_000.0  # one minute of simulated time
    max_wall_s: float | None = None
    stall_events: int | None = 1_000_000

    def __post_init__(self) -> None:
        for name in ("max_events", "stall_events"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive or None")
        for name in ("max_time_ms", "max_wall_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None")

    @property
    def enabled(self) -> bool:
        return any(
            getattr(self, name) is not None
            for name in ("max_events", "max_time_ms", "max_wall_s",
                         "stall_events")
        )

    def build(self) -> "Watchdog | None":
        """A fresh runtime checker, or None when every axis is off."""
        return Watchdog(self) if self.enabled else None


@dataclass
class WatchdogDiagnosis:
    """Everything known about the kernel at the moment a budget tripped."""

    reason: str  # "max_events" | "max_time" | "max_wall" | "stall"
    budget: float
    events_fired: int
    now_ns: float
    next_event_ns: float
    queue_depth: int
    pending_by_owner: dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        detail = {
            "max_events": f"event budget of {self.budget:g} exhausted",
            "max_time": (
                f"next event at {self.next_event_ns:g} ns exceeds the "
                f"{self.budget:g} ms simulated-time budget"
            ),
            "max_wall": f"wall-clock budget of {self.budget:g} s exhausted",
            "stall": (
                f"no forward progress over {self.budget:g} events at "
                f"t={self.now_ns:g} ns"
            ),
        }[self.reason]
        owners = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(
                self.pending_by_owner.items(), key=lambda kv: -kv[1]
            )[:6]
        ) or "none"
        return (
            f"simulation watchdog tripped ({self.reason}): {detail} "
            f"[t={self.now_ns:g} ns, {self.events_fired} events fired, "
            f"{self.queue_depth} queued; pending: {owners}]"
        )


class WatchdogTrip(SimulationError):
    """A watchdog budget was exceeded; carries the full diagnosis.

    Taxonomy: a wall-clock trip (``reason == "max_wall"``) is the host
    running out of patience — ``status="timeout"`` — while every other
    budget (events, simulated time, stall window) is the deterministic
    simulation itself misbehaving, so it stays ``"diverged"``.  Neither
    is retryable: re-running a bit-deterministic simulation reproduces
    the same trajectory.
    """

    def __init__(self, diagnosis: WatchdogDiagnosis) -> None:
        super().__init__(diagnosis.format())
        self.diagnosis = diagnosis
        if diagnosis.reason == "max_wall":
            self.status = "timeout"


class Watchdog:
    """Runtime state of one budget check; pass to ``Simulator.run``.

    ``fired``, ``stall_run`` and ``last_time`` are the run state: events
    checked, the current run of events at a non-advancing timestamp, and
    the last checked timestamp.  :meth:`before_event` is the one place a
    budget trips, but the kernel's fast loop does not call it per event:
    it keeps this state in locals, advances it inline, and calls
    :meth:`before_event` (writing the state back first) only on an event
    where one of the :meth:`inline_budgets` could trip.
    """

    def __init__(self, config: WatchdogConfig) -> None:
        self.config = config
        self.fired = 0
        self.stall_run = 0
        self.last_time = -math.inf
        self._wall_start: float | None = None
        # Budgets as floats, infinite when the axis is off.
        self._max_time_ns = (
            math.inf if config.max_time_ms is None
            else config.max_time_ms * 1e6
        )
        self._max_events = (
            math.inf if config.max_events is None else config.max_events
        )
        self._stall_events = (
            math.inf if config.stall_events is None else config.stall_events
        )

    @property
    def events_fired(self) -> int:
        return self.fired

    def inline_budgets(self) -> tuple[float, float, float]:
        """``(max_time_ns, max_events, stall_events)``, infinite when off.

        A budget can trip on an event only when its timestamp exceeds
        ``max_time_ns``, when ``fired`` has reached ``max_events``, or
        when the event at a non-advancing timestamp brings ``stall_run``
        to ``stall_events``; the kernel checks exactly that inline.
        With a wall-clock budget set, every event meets the returned
        limits: host time moves on every event, so :meth:`before_event`
        must see each one.
        """
        if self.config.max_wall_s is not None:
            return -math.inf, 0, 0
        return self._max_time_ns, self._max_events, self._stall_events

    def before_event(self, sim: Simulator, event: Event) -> None:
        """Check every budget; raises :class:`WatchdogTrip` on the first hit.

        Called by the kernel with the next non-cancelled event *before*
        executing it, so a far-future timestamp is caught while ``sim.now``
        still reflects the last healthy event.  A trip leaves the run
        state as it was, so the offending event trips again if re-run.
        """
        cfg = self.config
        if self._wall_start is None:
            self._wall_start = time.monotonic()
        at = event.time
        if at > self._max_time_ns:
            self._trip("max_time", cfg.max_time_ms, sim, event)
        if self.fired >= self._max_events:
            self._trip("max_events", cfg.max_events, sim, event)
        stalled = at <= self.last_time
        if stalled and self.stall_run + 1 >= self._stall_events:
            self._trip("stall", cfg.stall_events, sim, event)
        if cfg.max_wall_s is not None:
            if time.monotonic() - self._wall_start > cfg.max_wall_s:
                self._trip("max_wall", cfg.max_wall_s, sim, event)
        self.stall_run = self.stall_run + 1 if stalled else 0
        self.last_time = at
        self.fired += 1

    def _trip(
        self, reason: str, budget: float, sim: Simulator, event: Event
    ) -> None:
        raise WatchdogTrip(
            WatchdogDiagnosis(
                reason=reason,
                budget=budget,
                events_fired=self.fired,
                now_ns=sim.now,
                next_event_ns=event.time,
                queue_depth=sim.pending,
                pending_by_owner=sim.pending_by_owner(),
            )
        )
