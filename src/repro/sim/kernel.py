"""Discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of scheduled callbacks.
Events scheduled for the same timestamp fire in scheduling order, which
makes runs deterministic for a fixed workload (a property the test suite
relies on).

Tuple-entry contract: every heap entry is a ``(time, seq, callback,
args)`` tuple.  ``seq`` is unique, so ``heapq`` orders entries by
comparing floats and ints in C and never looks past it.

* :meth:`Simulator.post` / :meth:`Simulator.post_at` push
  ``(time, seq, callback, args)`` — one tuple, no :class:`Event`;
* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  cancellable :class:`Event` and push ``(time, seq, None, event)``; the
  run loops check ``event.cancelled`` when such an entry reaches the
  head and skip it if set;
* :meth:`Simulator.post_bulk` pushes ``(time, seq, marker, items)``
  with the simulator's batch marker as the callback.

The production loop builds a probe :class:`Event` only on the rare
path that hands one to outside code (a watchdog's ``before_event``
where a budget could trip); the general loop, which serves the
reference path, ``until``/``max_events`` and profilers, builds one per
event.  Every timestamp check is written ``not time >= now``, which
also rejects NaN.

Fast path
---------

The kernel has two mechanically different but observably identical
execution modes:

* the **fast path** (default) — same-timestamp bulk schedules
  (:meth:`Simulator.post_bulk`) stored as one heap entry and drained in
  one dispatch, and a run loop specialised for the common flag
  combinations, which checks watchdog budgets inline and calls the
  watchdog only on an event where one could trip;
* the **reference path** (``Simulator(fastpath=False)`` or
  ``$REPRO_SIM_FASTPATH=0``) — the seed per-event loop: one heap entry
  per event, no batching, the watchdog called before every event.

Both paths fire the same callbacks in the same order at the same
simulated timestamps (``tests/sim/test_fastpath_identity.py`` proves
reports field-for-field identical; ``tests/sim/test_event_queue_properties.py``
property-tests the ordering on adversarial schedules).
"""

from __future__ import annotations

import heapq
import os
from time import perf_counter
from typing import Any, Callable, Protocol

from repro.errors import ReproError

#: Environment variable selecting the kernel execution mode for newly
#: created simulators: any value other than ``"0"`` (or unset) enables
#: the fast path.  The differential test tier flips this to pit the two
#: implementations against each other.
FASTPATH_ENV = "REPRO_SIM_FASTPATH"

_INF = float("inf")


def default_fastpath() -> bool:
    """Fast path unless ``$REPRO_SIM_FASTPATH`` is exactly ``"0"``."""
    return os.environ.get(FASTPATH_ENV, "1") != "0"


class SimulationError(ReproError):
    """Raised for invalid simulator operations (e.g. scheduling in the past).

    Part of the :mod:`repro.exp.errors` taxonomy: a bit-deterministic
    simulator fails the same way every time, so the whole family is
    ``status="diverged"`` and never retryable.
    """

    status = "diverged"
    retryable = False


class SupportsWatchdog(Protocol):
    """Budget checker accepted by :meth:`Simulator.run`.

    The fast loop calls ``before_event`` before every event unless the
    checker also offers ``inline_budgets()`` and the run-state
    attributes ``fired``/``stall_run``/``last_time``, as
    :class:`repro.sim.watchdog.Watchdog` does; then it is called only on
    an event where a budget could trip.
    """

    def before_event(self, sim: "Simulator", event: "Event") -> None: ...


class SupportsProfiler(Protocol):
    """Wall-clock sampler accepted by :meth:`Simulator.run`.

    Normally a :class:`repro.obs.profiler.KernelProfiler`.  The hooks see
    *host* time only — attaching a profiler can never change simulated
    timestamps, and when none is attached the run loop pays one
    ``is not None`` check up front and nothing per event.
    """

    def after_event(
        self, event: "Event", wall_s: float, queue_depth: int
    ) -> None: ...

    def add_run_wall(self, wall_s: float) -> None: ...


def describe_callback(callback: Callable[..., None]) -> str:
    """Human-readable owner label for a scheduled callback.

    Bound methods of named components (``callback.__self__.name``) label
    as ``<component>.<method>``; plain functions and closures fall back to
    their qualified name.
    """
    owner = getattr(callback, "__self__", None)
    name = getattr(owner, "name", None)
    if isinstance(name, str):
        return f"{name}.{callback.__name__}"
    return getattr(callback, "__qualname__", repr(callback))


class Event:
    """A single scheduled callback, as handed to outside code.

    Events order by ``(time, seq)``; ``seq`` is a monotonically increasing
    tie-breaker assigned by the simulator so same-time events fire in the
    order they were scheduled.  Only cancellable events
    (:meth:`Simulator.schedule_at`) live on the heap, inside a
    ``(time, seq, None, event)`` entry; watchdogs and profilers receive
    probe events built from plain entries.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when it is popped.

        Only meaningful for *pending* events: cancelling an event after
        it fired is a silent no-op.  Events are never reused, so a held
        reference stays valid for this call forever.
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (
            f"Event(t={self.time:g}, seq={self.seq}, "
            f"{describe_callback(self.callback)}{state})"
        )


class Simulator:
    """Event queue and simulated clock.

    Time is in nanoseconds.  Typical use::

        sim = Simulator()
        sim.schedule(10.0, handler, arg1, arg2)   # fire 10 ns from now
        sim.run()

    ``fastpath`` selects the execution mode (see the module docstring);
    ``None`` reads ``$REPRO_SIM_FASTPATH``.
    """

    def __init__(self, fastpath: bool | None = None) -> None:
        self._queue: list[tuple[float, int, Any, Any]] = []
        self._now = 0.0
        self._seq = 0
        self._events_fired = 0
        self._running = False
        self.fastpath = default_fastpath() if fastpath is None else fastpath
        # The currently-draining bulk dispatch and how many of its items
        # have not started: while an item's callback runs that excludes
        # it (see :attr:`pending`); while its watchdog check runs it is
        # still counted, as a queued event would be.
        self._batch_items: list[tuple[Callable[..., None], tuple[Any, ...]]] = []
        self._batch_pending = 0
        # Single bound-method instance marking bulk-post heap entries
        # (the callback slot of ``(time, seq, marker, items)``): accessing
        # ``self._run_batch`` creates a fresh bound object each time, so
        # identity checks must go through this stable reference.
        self._batch_marker = self._run_batch

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (batch items count singly)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones).

        Cancelled events stay queued until their timestamp is reached and
        the kernel pops (and skips) them, so this counts them too; use
        :meth:`pending_active` to exclude them.  A bulk schedule counts
        once per undispatched item.
        """
        return self._batch_pending + sum(
            self._entry_weight(callback, args)
            for _, _, callback, args in self._queue
        )

    def pending_active(self) -> int:
        """Number of queued events that will actually fire."""
        return self._batch_pending + sum(
            self._entry_weight(callback, args)
            for _, _, callback, args in self._queue
            if callback is not None or not args.cancelled
        )

    def _entry_weight(self, callback: Any, args: Any) -> int:
        if callback is self._batch_marker:
            return len(args)
        return 1

    def pending_by_owner(self) -> dict[str, int]:
        """Non-cancelled queued events grouped by owning component.

        Callbacks that are bound methods of a named component (anything
        with a ``name`` attribute, e.g. a :class:`~repro.sim.module.Module`)
        group under ``<name>.<method>``; everything else groups under the
        callback's qualified name.  This is the kernel-side half of a
        watchdog diagnosis: when a run is aborted, it names who was still
        waiting for events.
        """
        callbacks = [
            callback
            for callback, _args in self._batch_items[
                len(self._batch_items) - self._batch_pending:
            ]
        ]
        for _, _, callback, args in self._queue:
            if callback is None:
                if args.cancelled:
                    continue
                callback = args.callback
            if callback is self._batch_marker:
                callbacks.extend(item for item, _args in args)
            else:
                callbacks.append(callback)
        counts: dict[str, int] = {}
        for callback in callbacks:
            owner = describe_callback(callback)
            counts[owner] = counts.get(owner, 0) + 1
        return counts

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute time ``time`` ns.

        The returned :class:`Event` stays valid (for :meth:`Event.cancel`)
        indefinitely — events are never reused.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time} ns; current time is {self._now} ns"
            )
        seq = self._seq
        event = Event(time, seq, callback, args)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, None, event))
        return event

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no :class:`Event`."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.post_at(self._now + delay, callback, *args)

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: one heap tuple, no handle.

        Hot callers (the runtime engine, module-internal continuations)
        use this to allocate one ``(time, seq, callback, args)`` tuple per
        event and nothing else; anything that might need to cancel must
        use :meth:`schedule_at`.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time} ns; current time is {self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def post_bulk(
        self,
        time: float,
        items: list[tuple[Callable[..., None], tuple[Any, ...]]],
    ) -> None:
        """Schedule many ``callback(*args)`` items at one timestamp.

        Semantically identical to ``post_at(time, cb, *args)`` per item in
        list order.  On the fast path the whole run is stored as a single
        heap entry and drained in one dispatch: because any event
        scheduled *after* this call receives a larger ``seq``, every item
        of the batch is ordered before it, so draining the batch without
        consulting the heap between items preserves the global
        (time, seq) order exactly.
        """
        if not items:
            return
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time} ns; current time is {self._now} ns"
            )
        if not self.fastpath:
            for callback, args in items:
                self.post_at(time, callback, *args)
            return
        seq = self._seq
        # One seq per item keeps later individually-scheduled events
        # ordered after the whole batch, exactly as per-item posts would.
        self._seq = seq + len(items)
        heapq.heappush(self._queue, (time, seq, self._batch_marker, items))

    # -- run loops ----------------------------------------------------------

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        watchdog: "SupportsWatchdog | None" = None,
        profiler: "SupportsProfiler | None" = None,
    ) -> float:
        """Run events until the queue drains, ``until`` ns, or ``max_events``.

        ``until`` and ``max_events`` are cooperative stop conditions (the
        run returns quietly; an ``until`` earlier than :attr:`now` raises
        :class:`SimulationError`, since the clock never moves backwards);
        ``watchdog`` — any object with a
        ``before_event(sim, event)`` method, normally a
        :class:`repro.sim.watchdog.Watchdog` — enforces hard budgets by
        raising on a trip, leaving the offending event queued so the
        failure can be diagnosed.  ``profiler`` — normally a
        :class:`repro.obs.profiler.KernelProfiler` — samples handler
        wall-clock time and queue depth to show where the *Python
        simulator itself* spends time; it observes host time only and
        cannot perturb simulated results.

        Returns the simulated time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"cannot run until {until} ns; current time is {self._now} ns"
            )
        if watchdog is not None and not hasattr(watchdog, "inline_budgets"):
            watchdog = _EveryEvent(watchdog)
        self._running = True
        run_start = perf_counter() if profiler is not None else 0.0
        try:
            if (
                self.fastpath
                and profiler is None
                and until is None
                and max_events is None
            ):
                self._run_fast(watchdog)
            else:
                self._run_general(until, max_events, watchdog, profiler)
        finally:
            self._running = False
            if profiler is not None:
                profiler.add_run_wall(perf_counter() - run_start)
        return self._now

    def _run_fast(self, watchdog: "_InlineWatchdog | None") -> None:
        """Tight dispatch loop for the dominant flag combination.

        No ``until``/``max_events`` bookkeeping and hoisted locals.  A
        watchdog's run state lives in locals and its budgets are checked
        inline; ``before_event`` runs (state written back first, a probe
        :class:`Event` built for it) only on an event where a budget
        could trip, so each trip and its diagnosis come from the
        watchdog's own code at the same event as in the reference loop.
        """
        queue = self._queue
        pop = heapq.heappop
        batch = self._batch_marker
        fired = 0
        if watchdog is None:
            try:
                while queue:
                    time, seq, callback, args = pop(queue)
                    if callback is None:
                        if args.cancelled:
                            continue
                        callback = args.callback
                        args = args.args
                    self._now = time
                    if callback is batch:
                        self._dispatch_batch(args, seq, None)
                    else:
                        callback(*args)
                        fired += 1
            finally:
                self._events_fired += fired
            return
        before_event = watchdog.before_event
        max_time, max_fired, stall_events = watchdog.inline_budgets()
        stall_edge = stall_events - 1
        wd_fired = watchdog.fired
        stall_run = watchdog.stall_run
        last_time = watchdog.last_time
        try:
            while queue:
                time, seq, callback, args = queue[0]
                if callback is None:
                    if args.cancelled:
                        pop(queue)
                        continue
                    event = args
                    callback = event.callback
                    args = event.args
                else:
                    event = None
                if (time > max_time or wd_fired >= max_fired
                        or (time <= last_time and stall_run >= stall_edge)):
                    # A budget could trip here: the watchdog decides.
                    watchdog.fired = wd_fired
                    watchdog.stall_run = stall_run
                    watchdog.last_time = last_time
                    before_event(
                        self, event or Event(time, seq, callback, args)
                    )
                    wd_fired = watchdog.fired
                    stall_run = watchdog.stall_run
                    last_time = watchdog.last_time
                elif time > last_time:
                    stall_run = 0
                    last_time = time
                    wd_fired += 1
                else:
                    stall_run += 1
                    wd_fired += 1
                pop(queue)
                self._now = time
                if callback is batch:
                    # The first item's budget check just ran; the batch
                    # checks the rest against the watchdog's own state.
                    watchdog.fired = wd_fired
                    watchdog.stall_run = stall_run
                    watchdog.last_time = last_time
                    try:
                        self._dispatch_batch(args, seq, watchdog,
                                             first_checked=True)
                    finally:
                        wd_fired = watchdog.fired
                        stall_run = watchdog.stall_run
                else:
                    callback(*args)
                    fired += 1
        finally:
            self._events_fired += fired
            watchdog.fired = wd_fired
            watchdog.stall_run = stall_run
            watchdog.last_time = last_time

    def _run_general(
        self,
        until: float | None,
        max_events: int | None,
        watchdog: "_InlineWatchdog | None",
        profiler: "SupportsProfiler | None",
    ) -> None:
        """Reference-shaped loop covering every flag combination.

        With ``fastpath=False`` this *is* the seed event loop (bulk posts
        degrade to per-item events, so the watchdog sees every event),
        which is what the differential identity tier runs against.  Every
        event it hands to a watchdog or profiler is an :class:`Event`
        (a probe, for plain entries).
        """
        queue = self._queue
        stop_at = _INF if until is None else until
        limit = _INF if max_events is None else self._events_fired + max_events
        batch = self._batch_marker
        while queue:
            time, seq, callback, args = queue[0]
            if time > stop_at:
                self._now = stop_at
                return
            if callback is None:
                if args.cancelled:
                    heapq.heappop(queue)
                    continue
                event = args
                callback = event.callback
                args = event.args
            else:
                event = Event(time, seq, callback, args)
            if watchdog is not None:
                watchdog.before_event(self, event)
            heapq.heappop(queue)
            self._now = time
            if callback is batch:
                self._dispatch_batch(
                    args, seq, watchdog,
                    first_checked=watchdog is not None,
                    profiler=profiler,
                )
            elif profiler is None:
                callback(*args)
                self._events_fired += 1
            else:
                handler_start = perf_counter()
                callback(*args)
                profiler.after_event(
                    event, perf_counter() - handler_start, len(queue)
                )
                self._events_fired += 1
            if self._events_fired >= limit:
                return
        if until is not None and until > self._now:
            self._now = until

    def _run_batch(
        self,
        items: list[tuple[Callable[..., None], tuple[Any, ...]]],
    ) -> None:  # pragma: no cover - dispatched via _dispatch_batch
        """Marker callback identifying a bulk-post heap entry.

        Never invoked directly: the run loops compare an entry's callback
        against this bound method and hand the item list to
        :meth:`_dispatch_batch` so per-item watchdog/profiler bookkeeping
        matches the per-event loops.
        """
        raise SimulationError("batch events are dispatched by the run loop")

    def _dispatch_batch(
        self,
        items: list[tuple[Callable[..., None], tuple[Any, ...]]],
        seq: int,
        watchdog: "_InlineWatchdog | None",
        first_checked: bool = False,
        profiler: "SupportsProfiler | None" = None,
    ) -> None:
        """Drain one same-timestamp batch.

        Items were scheduled before anything currently in the heap with
        the same timestamp (monotone ``seq``), so running them back to
        back without re-consulting the heap preserves event order.  The
        watchdog's budgets cover each item exactly like a loose event's
        (checked inline, ``before_event`` only where one could trip); the
        items fired are added to :attr:`events_fired` here, even when an
        item raises.  Items that have not started when a check trips or
        a callback raises go back on the heap as one entry with their
        own ``(time, seq)`` — left queued, as loose events would be.
        """
        now = self._now
        self._batch_items = items
        self._batch_pending = len(items)
        fired = 0
        probe: Event | None = None
        if watchdog is not None:
            before_event = watchdog.before_event
            max_time, max_fired, stall_events = watchdog.inline_budgets()
            stall_edge = stall_events - 1
            wd_fired = watchdog.fired
            stall_run = watchdog.stall_run
        try:
            for callback, args in items:
                if first_checked:
                    first_checked = False
                elif watchdog is not None:
                    # Every item after the first repeats the timestamp.
                    if (now > max_time or wd_fired >= max_fired
                            or stall_run >= stall_edge):
                        probe = probe or Event(now, seq, callback, args)
                        probe.seq = seq + len(items) - self._batch_pending
                        probe.callback = callback
                        probe.args = args
                        watchdog.fired = wd_fired
                        watchdog.stall_run = stall_run
                        before_event(self, probe)
                        wd_fired = watchdog.fired
                        stall_run = watchdog.stall_run
                    else:
                        stall_run += 1
                        wd_fired += 1
                self._batch_pending -= 1
                if profiler is None:
                    callback(*args)
                else:
                    probe = probe or Event(now, seq, callback, args)
                    probe.callback = callback
                    probe.args = args
                    handler_start = perf_counter()
                    callback(*args)
                    profiler.after_event(
                        probe, perf_counter() - handler_start, len(self._queue)
                    )
                fired += 1
        finally:
            self._events_fired += fired
            unstarted = self._batch_pending
            self._batch_items = []
            self._batch_pending = 0
            if watchdog is not None:
                watchdog.fired = wd_fired
                watchdog.stall_run = stall_run
            if unstarted:
                rest = len(items) - unstarted
                heapq.heappush(self._queue, (
                    now, seq + rest, self._batch_marker, items[rest:]
                ))

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns True if an event fired, False if the queue was empty.
        Bulk posts are not steppable item-by-item; the whole batch counts
        as the next event and drains in one step.  Cancelled events are
        skipped exactly as the run loops skip them: checked at the head,
        before any dispatch.
        """
        queue = self._queue
        while queue:
            time, seq, callback, args = heapq.heappop(queue)
            if callback is None:
                if args.cancelled:
                    continue
                callback = args.callback
                args = args.args
            self._now = time
            if callback is self._batch_marker:
                self._dispatch_batch(args, seq, None)
            else:
                callback(*args)
                self._events_fired += 1
            return True
        return False


class _InlineWatchdog(SupportsWatchdog, Protocol):
    """What the run loops use of a watchdog (see :class:`SupportsWatchdog`)."""

    fired: int
    stall_run: int
    last_time: float

    def inline_budgets(self) -> tuple[float, float, float]: ...


class _EveryEvent:
    """A plain ``before_event`` checker behind the inline-budget interface.

    Its budgets are met by every event, so the fast loop calls it before
    each one; its run-state attributes are placeholders the loop ignores.
    """

    def __init__(self, watchdog: SupportsWatchdog) -> None:
        self.before_event = watchdog.before_event
        self.fired = 0
        self.stall_run = 0
        self.last_time = -_INF

    def inline_budgets(self) -> tuple[float, float, float]:
        return -_INF, 0, 0
