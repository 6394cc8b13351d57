"""Watchdog budget tests: every axis trips with a usable diagnosis."""

import dataclasses
import time

import pytest

from repro.sim import (
    SimulationError,
    Simulator,
    Watchdog,
    WatchdogConfig,
    WatchdogTrip,
)


def run_with(sim: Simulator, config: WatchdogConfig) -> None:
    sim.run(watchdog=config.build())


class TestConfig:
    def test_defaults_are_enabled(self):
        assert WatchdogConfig().enabled
        assert isinstance(WatchdogConfig().build(), Watchdog)

    def test_all_none_disables(self):
        config = WatchdogConfig(
            max_events=None, max_time_ms=None, max_wall_s=None,
            stall_events=None,
        )
        assert not config.enabled
        assert config.build() is None

    @pytest.mark.parametrize("field,value", [
        ("max_events", 0),
        ("max_events", -1),
        ("stall_events", 0),
        ("max_time_ms", 0.0),
        ("max_time_ms", -5.0),
        ("max_wall_s", 0.0),
    ])
    def test_invalid_budgets_rejected(self, field, value):
        with pytest.raises(ValueError):
            WatchdogConfig(**{field: value})


class TestTrips:
    def test_max_events_trips(self):
        sim = Simulator()

        def chain(n):
            sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(max_events=25, stall_events=None))
        diagnosis = exc.value.diagnosis
        assert diagnosis.reason == "max_events"
        assert diagnosis.budget == 25
        assert diagnosis.events_fired == 25
        assert "max_events" in str(exc.value)

    def test_max_time_trips_before_time_jumps(self):
        """A single far-future event trips the simulated-time budget while
        `now` still reflects the last healthy event."""
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        sim.schedule(5e9, lambda: None)  # 5 s of simulated time
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(max_time_ms=1.0))
        diagnosis = exc.value.diagnosis
        assert diagnosis.reason == "max_time"
        assert diagnosis.next_event_ns == 5e9
        assert sim.now == 100.0  # never jumped to the bad timestamp
        assert sim.pending == 1  # offending event left queued for forensics

    def test_stall_trips_without_forward_progress(self):
        sim = Simulator()

        def spin():
            sim.schedule(0.0, spin)

        sim.schedule(1.0, spin)
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(stall_events=500))
        diagnosis = exc.value.diagnosis
        assert diagnosis.reason == "stall"
        assert diagnosis.now_ns == 1.0

    def test_stall_counter_resets_on_progress(self):
        """Bursts of same-time events below the window never trip."""
        sim = Simulator()

        def burst(t):
            for _ in range(50):
                sim.schedule(0.0, lambda: None)
            if t < 20:
                sim.schedule(1.0, burst, t + 1)

        sim.schedule(0.0, burst, 0)
        run_with(sim, WatchdogConfig(stall_events=60))

    def test_max_wall_trips(self):
        sim = Simulator()

        def sleepy():
            time.sleep(0.005)
            sim.schedule(1.0, sleepy)

        sim.schedule(1.0, sleepy)
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(
                max_wall_s=0.02, stall_events=None,
            ))
        assert exc.value.diagnosis.reason == "max_wall"

    def test_trip_is_a_simulation_error(self):
        sim = Simulator()
        sim.schedule(5e9, lambda: None)
        with pytest.raises(SimulationError):
            run_with(sim, WatchdogConfig(max_time_ms=1.0))

    def test_healthy_run_unaffected_by_defaults(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 200:
                sim.schedule(10.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        run_with(sim, WatchdogConfig())
        assert len(fired) == 201


class TestDiagnosis:
    def test_names_pending_owners(self):
        class NamedUnit:
            name = "mem(1, 0)"

            def complete(self):
                pass

        sim = Simulator()
        unit = NamedUnit()
        sim.schedule(10.0, unit.complete)
        sim.schedule(11.0, unit.complete)
        sim.schedule(5e9, lambda: None)
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(max_events=1, stall_events=None,
                                         max_time_ms=None))
        diagnosis = exc.value.diagnosis
        assert diagnosis.pending_by_owner["mem(1, 0).complete"] == 1
        assert "mem(1, 0).complete" in diagnosis.format()
        assert "watchdog tripped" in diagnosis.format()

    def test_format_mentions_queue_state(self):
        sim = Simulator()
        sim.schedule(5e9, lambda: None)
        with pytest.raises(WatchdogTrip) as exc:
            run_with(sim, WatchdogConfig(max_time_ms=1.0))
        text = exc.value.diagnosis.format()
        assert "1 queued" in text
        assert "t=0 ns" in text


class _Unit:
    """A named component, so diagnoses group its pending events."""

    def __init__(self, name: str, trace: list) -> None:
        self.name = name
        self.trace = trace

    def tick(self, tag) -> None:
        self.trace.append((self.name, tag))


def _schedule(sim: Simulator, trace: list) -> None:
    """Loose events, a 20-item bulk post at t=5, more loose events, and
    one far-future event."""
    a, b = _Unit("a", trace), _Unit("b", trace)
    for i in range(5):
        sim.schedule_at(float(i), a.tick, i)
    sim.post_bulk(5.0, [(b.tick, (k,)) for k in range(20)])
    sim.post_at(5.0, a.tick, "after-bulk")
    for i in range(6, 10):
        sim.post_at(float(i), a.tick, i)
    sim.schedule_at(5e9, a.tick, "far")


class TestFastLoopMatchesReference:
    """The fast loop checks budgets inline and calls ``before_event``
    only where one could trip; every trip must still match the reference
    loop (one ``before_event`` per event) field for field, including the
    kernel state it leaves behind."""

    @pytest.mark.parametrize("config,reason", [
        # 5 loose events, then the 8th item of the bulk post.
        (WatchdogConfig(max_events=12, stall_events=None), "max_events"),
        # Before the bulk post.
        (WatchdogConfig(max_events=3), "max_events"),
        # The bulk post's 8th same-time item.
        (WatchdogConfig(stall_events=8), "stall"),
        # The loose event queued behind the bulk post at t=5.
        (WatchdogConfig(stall_events=20), "stall"),
        # All 21 events at t=5 pass one short of the stall budget.
        (WatchdogConfig(stall_events=21, max_time_ms=1.0), "max_time"),
        (WatchdogConfig(max_time_ms=1.0), "max_time"),
        (WatchdogConfig(max_time_ms=1e-6, stall_events=None), "max_time"),
    ])
    def test_same_trip_on_both_loops(self, config, reason):
        outcomes = []
        for fastpath in (True, False):
            sim = Simulator(fastpath=fastpath)
            trace: list = []
            _schedule(sim, trace)
            with pytest.raises(WatchdogTrip) as exc:
                sim.run(watchdog=config.build())
            diagnosis = dataclasses.asdict(exc.value.diagnosis)
            state = (trace[:], sim.now, sim.pending, sim.pending_active(),
                     sim.events_fired)
            sim.run()  # the offending event was left queued
            outcomes.append((diagnosis, state, trace, sim.now))
        fast, reference = outcomes
        assert fast[0]["reason"] == reason
        assert fast == reference

    def test_trip_inside_a_bulk_post_names_its_items(self):
        sim = Simulator()
        trace: list = []
        _schedule(sim, trace)
        with pytest.raises(WatchdogTrip) as exc:
            sim.run(watchdog=Watchdog(WatchdogConfig(max_events=12)))
        diagnosis = exc.value.diagnosis
        assert diagnosis.events_fired == 12
        assert trace[-1] == ("b", 6)
        # Items 7..19 of the bulk post are still pending.
        assert diagnosis.pending_by_owner["b.tick"] == 13
        assert diagnosis.queue_depth == 13 + 6

    def test_watchdog_counts_every_event_it_was_not_called_for(self):
        sim = Simulator()
        trace: list = []
        _schedule(sim, trace)
        watchdog = Watchdog(WatchdogConfig(max_time_ms=None))
        sim.run(watchdog=watchdog)
        assert watchdog.events_fired == sim.events_fired == len(trace) == 31
