"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``
(under a minute).  They use gcn-cora, the smallest pinned benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = "gcn-cora"


def test_declared_metrics_are_valid_and_match_the_command():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [n for n, _ in end_to_end + per_layer]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def cora():
    from probe import setup
    from repro.exp.cache import point_key

    config = run.base_config("analytical")
    return setup(BENCHMARK), config, point_key(BENCHMARK, config)


def test_perturbed_report_fails_the_digest_check(cora, tmp_path):
    from repro.runtime.engine import simulate_detailed

    program, config, key = cora
    bench = run.Run("dse-cora", 0, 1.0, False, tmp_path)
    report = simulate_detailed(program, config)[0]
    bench.check(key, report, "as simulated")
    assert (bench.attempted, bench.failed) == (1, 0)
    layer = dataclasses.replace(report.layers[-1],
                                end_ns=report.layers[-1].end_ns + 1e-6)
    perturbed = dataclasses.replace(report,
                                    layers=report.layers[:-1] + [layer])
    bench.check(key, perturbed, "perturbed")
    assert (bench.attempted, bench.failed) == (2, 1)
    assert bench.problems


def test_traced_run_keeps_reports_and_the_production_loop(
        cora, tmp_path, monkeypatch):
    from repro.sim.kernel import Simulator

    loops = {"_run_fast": 0, "_run_general": 0}
    for name in loops:
        original = getattr(Simulator, name)

        def counted(self, *args, _original=original, _name=name):
            loops[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Simulator, name, counted)
    patched_run = Simulator.run

    program, config, key = cora
    bench = run.Run("dse-cora", 0, 1.0, True, tmp_path)
    untraced = bench.simulate(program, config, key)[0]
    traced = bench.simulate(program, config, key, traced=True)[0]
    assert run.digest(traced) == run.digest(untraced)
    assert loops == {"_run_fast": 2 * len(program.layers), "_run_general": 0}
    assert Simulator.run is patched_run  # the tracer restored everything

    metrics = run.per_layer(bench)
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    assert 0.99 <= metrics["trace.accounted"] <= 1.01
    assert metrics["noc.delivery_calls"] > 0
    assert bench.failed == 0 and not bench.problems


def test_traced_dse_points_match_untraced(tmp_path):
    from repro.dse.drivers import run_dse
    from repro.exp.cache import clear_memo, lookup, point_key
    from spans import Tracer

    def search():
        clear_memo()
        result = run_dse(BENCHMARK, driver="random", points=3, seed=0,
                         jobs=1, cache=None, noc_backend="analytical")
        return [run.digest(lookup(point_key(BENCHMARK, e.config), None))
                for e in result.evaluations]

    untraced = search()
    tracer = Tracer()
    with tracer.phase("cold"):
        traced = search()
    assert traced == untraced
    assert len(tracer.named("sweep", "cold")) == 1
    assert len(tracer.named("simulate")) == 3
