"""Exact activity counters of gcn-cora on every NoC backend.

Reports do not carry the per-unit activity counters (``StatSet``s), yet
the energy model and the observability snapshot are priced from them,
and the NoC and memory counters are derived from per-shape tallies
rather than updated per message.  ``counter_golden.json`` pins, for
gcn-cora on CPU iso-BW at 2.4 GHz over the packet, analytical and flit
backends:

* every unit's ``stats.as_dict()`` — values *and* key order — per tile
  (GPE, DNA, AGG, DNQ), then each memory controller, then the NoC;
* :func:`repro.accel.energy.estimate_energy` of the bare run;
* the ``counters`` of every entry of an observed run's ``snapshot()``.

A scripted controller-and-mesh scenario (:func:`scripted_counters`)
adds what gcn-cora on one memory node never does: queue stalls, a first
write that coincides with a first stall, scatter batches, fault
counters, repeated and zero-byte messages.

Regenerate only for a deliberate behaviour change (and say why):

    PYTHONPATH=src python -m tests.golden.test_counter_golden

The observed flit run is marked ``slow``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.accel.config import MemoryConfig
from repro.accel.energy import estimate_energy
from repro.accel.memory import MemoryController
from repro.eval.accelerator import _compiled_program, resolve_benchmark_config
from repro.noc.backends import create_backend
from repro.noc.config import NOC_CONFIG
from repro.noc.topology import Mesh
from repro.obs import Observer
from repro.runtime.engine import simulate_detailed
from repro.sim.kernel import Simulator
from repro.sim.stats import StatSet

GOLDEN_PATH = Path(__file__).with_name("counter_golden.json")

BENCHMARK = "gcn-cora"
CONFIG_NAME = "CPU iso-BW"
CLOCK_GHZ = 2.4
NOC_BACKENDS = ("packet", "analytical", "flit")


def _config(backend):
    return resolve_benchmark_config(BENCHMARK, CONFIG_NAME, CLOCK_GHZ,
                                    backend)[1]


def unit_stats(accel):
    """``[name, [[key, value], ...]]`` for every unit, in a fixed order."""
    units = []
    for tile in accel.tiles:
        x, y = tile.coord
        for kind in ("gpe", "dna", "agg", "dnq"):
            units.append((f"tile.{x}.{y}/{kind}", getattr(tile, kind).stats))
    for memory in accel.memories:
        units.append((memory.name, memory.stats))
    units.append(("noc", accel.noc.stats))
    return [[name, [list(item) for item in stats.as_dict().items()]]
            for name, stats in units]


def snapshot_counters(observer):
    return [[name, [list(item) for item in entry["counters"].items()]]
            for name, entry in observer.snapshot().items()
            if "counters" in entry]


def scripted_counters():
    """Counters of a fixed request/message script, key order included."""
    memory = MemoryController(Simulator(), "mem", MemoryConfig(queue_depth=4))
    memory.stats.add("injected_faults")
    for size in (64, 100, 64, 0):
        memory.request(size, now=0.0)
    memory.request(96, now=0.0, write=True)  # first write, first stall
    memory.request_scatter(7, 4, now=1.0)
    memory.request_scatter(0, 4, now=1.0)
    memory.request(100, now=500.0, write=True)
    memory.request_scatter(3, 100, now=500.0, write=True)
    result = [["memory", [list(i) for i in memory.stats.as_dict().items()]]]
    for backend in NOC_BACKENDS:
        noc = create_backend(backend, Mesh(3, 3), NOC_CONFIG)
        for src, dst, size, start in (
            ((0, 0), (2, 1), 200, 0.0), ((0, 0), (2, 1), 200, 0.0),
            ((1, 1), (1, 1), 64, 1.0), ((2, 2), (0, 0), 0, 2.0),
        ):
            noc.delivery_time(src, dst, size, start)
        noc.stats.add("injected_faults")
        noc.delivery_time((0, 0), (2, 1), 64, 3.0)
        result.append(
            [backend, [list(i) for i in noc.stats.as_dict().items()]]
        )
    return result


def bare_run(backend):
    _, accel = simulate_detailed(_compiled_program(BENCHMARK),
                                 _config(backend))
    return accel


def observed_run(backend):
    observer = Observer()
    simulate_detailed(_compiled_program(BENCHMARK), _config(backend),
                      observer=observer)
    return observer


def capture_bare(backend):
    accel = bare_run(backend)
    return {
        "units": unit_stats(accel),
        "energy": dataclasses.asdict(estimate_energy(accel)),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module", params=NOC_BACKENDS)
def bare(request):
    return request.param, bare_run(request.param)


def test_golden_covers_every_backend(golden):
    assert set(golden) == {*NOC_BACKENDS, "scripted"}


def test_unit_counters_match(golden, bare):
    backend, accel = bare
    assert unit_stats(accel) == golden[backend]["units"]


def test_energy_matches(golden, bare):
    backend, accel = bare
    assert dataclasses.asdict(estimate_energy(accel)) == (
        golden[backend]["energy"]
    )


def test_scripted_counters_match(golden):
    assert scripted_counters() == golden["scripted"]


def test_tallied_counters_are_present_and_merge(golden, bare):
    backend, accel = bare
    noc = accel.noc.stats
    assert "packets" in noc and "flit_hops" in noc
    assert "queue_stalls" not in StatSet()
    memory = accel.memories[0].stats
    merged = StatSet()
    merged.merge(memory)
    merged.merge(noc)
    expected = dict(golden[backend]["units"][-len(accel.memories) - 1][1])
    for key, value in dict(golden[backend]["units"][-1][1]).items():
        expected[key] = expected.get(key, 0.0) + value
    assert list(merged.as_dict().items()) == list(expected.items())
    assert merged.get("bytes_serviced") == memory.get("bytes_serviced")
    assert merged.get("packets") == noc.get("packets")


@pytest.mark.parametrize("backend", [
    pytest.param(backend, marks=pytest.mark.slow if backend == "flit" else ())
    for backend in NOC_BACKENDS
])
def test_observed_snapshot_counters_match(golden, backend):
    assert snapshot_counters(observed_run(backend)) == (
        golden[backend]["snapshot"]
    )


def main() -> None:
    document = {
        backend: {
            **capture_bare(backend),
            "snapshot": snapshot_counters(observed_run(backend)),
        }
        for backend in NOC_BACKENDS
    }
    document["scripted"] = scripted_counters()
    GOLDEN_PATH.write_text(json.dumps(document, indent=1) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    main()
