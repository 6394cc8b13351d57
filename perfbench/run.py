"""Benchmark of the simulator stack: host time end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pubmed-packet --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped,
scaled to a reference host speed (``calibrate.py``).
``--trace 1`` is the separate traced run: it wraps the stack's public
boundaries (``spans.py``), reports the per-layer metrics, and writes its
spans to ``.perfbench/trace-<workload>-<seed>.json``.  Every simulated
report is checked against the digest pinned in ``pins.json``; a
mismatch, a failed point or an exception counts as a failed operation
and makes the command exit 1.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

All times are host seconds of a deterministic model; simulated
statistics are pinned, not measured.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
PINS = HERE / "pins.json"

#: Set-up probes (fresh processes) per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Fewest timed simulations per run, whatever ``--seconds`` says.
MIN_SIMS = 3
#: The DSE workload's searches take DSE seeds ``(seed + i) % DSE_SEEDS``;
#: every point of those searches is pinned.  Many small searches, each
#: timed between calibration kernels, scale better than one long one.
DSE_SEEDS = 16
DSE_POINTS = 4
#: Fewest cold searches per run, each into a fresh cache directory.
MIN_COLD_SEARCHES = 5
#: Shares of ``--seconds`` spent on direct simulations and on cold
#: searches in the DSE workload.
DSE_SIM_SHARE = 0.15
COLD_SHARE = 0.5
#: Share of ``--seconds`` spent on warm-cache reads or passes.
WARM_SHARE = 0.1
#: Warm reads, or warm searches in the DSE workload, per calibrated
#: chunk.
WARM_CHUNK = 100
DSE_WARM_CHUNK = 25

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("simulate_s", "s"),
    ("points_per_s", "points/s"),
    ("warm_points_per_s", "points/s"),
    ("peak_rss_mb", "MB"),
)

#: GNN layers of the workloads' benchmarks, as the compiler names them.
GNN_LAYERS = ("gcn0.project", "gcn0.propagate", "gcn1.project",
              "gcn1.propagate")


#: (name, unit) of the per-layer metrics, printed with ``--trace 1``.
PER_LAYER = (
    ("graphs.load_s", "s"),
    ("models.ir_s", "s"),
    ("runtime.compile_s", "s"),
    ("runtime.tasks", "count"),
    *((f"sim.run_s.{layer}", "s") for layer in GNN_LAYERS),
    *((f"sim.events.{layer}", "count") for layer in GNN_LAYERS),
    ("sim.events_per_s", "events/s"),
    ("runtime.engine_other_s", "s"),
    ("noc.delivery_calls", "count"),
    ("noc.delivery_s", "s"),
    ("noc.reserve_calls", "count"),
    ("noc.reserve_s", "s"),
    ("accel.memory.request_calls", "count"),
    ("accel.memory.request_s", "s"),
    ("exp.cache.lookups", "count"),
    ("exp.cache.hit_ratio", "ratio"),
    ("exp.cache.get_s", "s"),
    ("exp.cache.stores", "count"),
    ("exp.cache.put_s", "s"),
    ("exp.runner.points", "count"),
    ("exp.runner.attempts", "count"),
    ("exp.runner.sweep_s", "s"),
    ("dse.driver_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.simulate_s", "s"),
    ("trace.untraced_simulate_s", "s"),
    ("trace.accounted", "ratio"),
)

#: workload -> (benchmark, NoC backend, kind)
WORKLOADS = {
    "pubmed-packet": ("gcn-pubmed", "packet", "simulate"),
    "dse-cora": ("gcn-cora", "analytical", "dse"),
}


def base_config(noc_backend: str):
    """CPU iso-BW at 2.4 GHz on the given NoC backend."""
    from repro.space import resolve_config

    return resolve_config("CPU iso-BW").with_clock(2.4).with_noc_backend(
        noc_backend
    )


def digest(report) -> str:
    """sha256 of the canonical ``report_to_dict`` of a report."""
    from repro.exp.cache import content_key
    from repro.runtime.serialize import report_to_dict

    return content_key(report_to_dict(report))


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples
    beyond it, with its value; None if there are fewer than 20."""
    ordered = sorted(samples)
    best = None
    for p in (50, 90, 99, 99.9):
        index = int(len(ordered) * p / 100)
        if len(ordered) - index - 1 >= 10:
            best = (p, ordered[index])
    return best


class Run:
    """State of one benchmark run: pins, counts, samples, tracer.

    ``samples`` maps each timed quantity to ``(host seconds, kernel
    seconds)`` pairs: the measurement and the mean of the calibration
    kernels timed just before and just after it (``calibrate.py``).
    """

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, cache_dir: Path) -> None:
        from repro.exp.cache import SCHEMA_VERSION, ResultCache

        self.seed = seed
        self.seconds = seconds
        self.cache = ResultCache(cache_dir)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        self.pins = pins["reports"].get(workload, {})
        if pins["schema_version"] != SCHEMA_VERSION:
            self.problem(f"pins.json is for schema {pins['schema_version']}, "
                         f"the simulator is at {SCHEMA_VERSION}")
            self.pins = {}
        self.tracer = None
        if trace:
            from spans import Tracer

            self.tracer = Tracer()
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.traced: list[float] = []  # simulate_s samples, tracing on

    def record(self, quantity: str, seconds: float, kernel: float) -> None:
        self.samples.setdefault(quantity, []).append((seconds, kernel))

    def count(self, quantity: str) -> int:
        return len(self.samples.get(quantity, ()))

    def raw(self, quantity: str) -> list[float]:
        return [seconds for seconds, _ in self.samples[quantity]]

    def scaled(self, quantity: str) -> float:
        """Median host seconds of one ``quantity`` at the reference
        speed: the median ratio to the adjacent kernels, times
        ``REFERENCE_S``."""
        ratios = [s / k for s, k in self.samples[quantity]]
        return statistics.median(ratios) * calibrate.REFERENCE_S

    def problem(self, message: str) -> None:
        """Anything that makes the run incorrect."""
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def fail(self, message: str) -> None:
        """A failed operation."""
        self.failed += 1
        self.problem(message)

    def check(self, key: str, report, what: str) -> None:
        """One attempted operation whose report must match its pin."""
        self.attempted += 1
        if report is None:
            self.fail(f"{what}: no report")
        elif self.pins.get(key) != digest(report):
            self.fail(f"{what}: report digest differs from pins.json")

    def phase(self, name: str):
        """A traced phase (see ``Tracer.phase``) when tracing, else
        nothing."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.phase(name)

    def simulate(self, program, config, key: str, traced: bool = False):
        """One timed, uncached ``simulate_detailed`` call; returns the
        report, its host seconds and the calibration kernel's."""
        from repro.runtime import engine

        gc.collect()
        before = calibrate.speed()
        with self.phase("measure") if traced else contextlib.nullcontext():
            start = time.perf_counter()
            report = engine.simulate_detailed(program, config)[0]
            elapsed = time.perf_counter() - start
        kernel = (before + calibrate.speed()) / 2
        if traced:
            self.traced.append(elapsed)
        else:
            self.record("simulate_s", elapsed, kernel)
        self.check(key, report, f"simulate {program.name}")
        return report, elapsed, kernel


# -- set-up ----------------------------------------------------------------


def setup_probes(run: Run, benchmark: str) -> None:
    """Time cold starts, each in a fresh process."""
    for _ in range(SETUP_PROBES):
        before = calibrate.speed()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), benchmark],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        kernel = (before + calibrate.speed()) / 2
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        run.record("setup_s", float(done.stdout.strip().splitlines()[-1]),
                   kernel)


def setup(run: Run, benchmark: str):
    from probe import setup as compile_benchmark

    with run.phase("setup"):
        return compile_benchmark(benchmark)


# -- workloads -------------------------------------------------------------


def simulate_workload(run: Run, benchmark: str, noc: str) -> None:
    """Repeated uncached simulation of one benchmark.

    Each simulated report is stored as a cold point (simulate + store).
    The first stored entry is then read back with the in-process memo
    cleared, so the warm reads come from disk; reading it before the
    other simulations gives every run the same process state there.
    """
    from repro.exp.cache import clear_memo, lookup, point_key, store

    program = setup(run, benchmark)
    config = base_config(noc)
    key = point_key(benchmark, config)

    def cold_point() -> None:
        report, elapsed, kernel = run.simulate(program, config, key)
        if run.tracer is not None:
            run.simulate(program, config, key, traced=True)
        with run.phase("cold"):
            began = time.perf_counter()
            store(key, report, run.cache)
            run.record("cold", elapsed + time.perf_counter() - began, kernel)

    def read() -> float:
        clear_memo()
        began = time.perf_counter()
        report = lookup(key, run.cache)
        elapsed = time.perf_counter() - began
        run.check(key, report, "warm read")
        return elapsed

    start = time.perf_counter()
    cold_point()
    began = time.perf_counter()
    while time.perf_counter() - began < max(0.5, WARM_SHARE * run.seconds):
        before = calibrate.speed()
        with run.phase("warm"):
            reads = [read() for _ in range(WARM_CHUNK)]
        run.record("warm", statistics.median(reads),
                   (before + calibrate.speed()) / 2)
    while (run.count("simulate_s") < MIN_SIMS
           or time.perf_counter() - start < run.seconds):
        cold_point()


def dse_workload(run: Run, benchmark: str, noc: str) -> None:
    """A seeded random DSE search, cold (every point simulated and
    stored, each time into a fresh cache) and then warm (every point
    read from disk), plus direct simulations of the base point for
    ``simulate_s``."""
    from repro.dse import drivers
    from repro.exp.cache import ResultCache, clear_memo, lookup, point_key

    program = setup(run, benchmark)
    config = base_config(noc)
    key = point_key(benchmark, config)
    start = time.perf_counter()
    while (run.count("simulate_s") < MIN_SIMS
           or time.perf_counter() - start < DSE_SIM_SHARE * run.seconds):
        run.simulate(program, config, key)
        if run.tracer is not None:
            run.simulate(program, config, key, traced=True)

    def search(dse_seed: int, cache, status: str, phase: str) -> float:
        """One search; checks every point; returns host seconds per
        point."""
        clear_memo()
        gc.collect()
        with run.phase(phase):
            began = time.perf_counter()
            # Through the module, so that the traced run's wrapper is
            # the one called.
            result = drivers.run_dse(
                benchmark, driver="random", points=DSE_POINTS,
                seed=dse_seed % DSE_SEEDS, jobs=1, cache=cache,
                noc_backend=noc,
            )
            elapsed = time.perf_counter() - began
        for evaluation in result.evaluations:
            point = point_key(benchmark, evaluation.config)
            what = f"dse point {evaluation.point.config_name}"
            if evaluation.status == status:
                run.check(point, lookup(point, None), what)
            else:
                run.attempted += 1
                run.fail(f"{what}: {evaluation.status} "
                         f"({evaluation.error}), expected {status}")
        return elapsed / len(result.evaluations)

    start = time.perf_counter()
    while (run.count("cold") < MIN_COLD_SEARCHES
           or time.perf_counter() - start < COLD_SHARE * run.seconds):
        dse_seed = run.seed + run.count("cold")
        cache = ResultCache(run.cache.root / f"cold-{dse_seed}")
        before = calibrate.speed()
        per_point = search(dse_seed, cache, "ok", "cold")
        run.record("cold", per_point, (before + calibrate.speed()) / 2)

    budget = max(0.5, WARM_SHARE * run.seconds)
    began = time.perf_counter()
    while time.perf_counter() - began < budget:
        before = calibrate.speed()
        passes = [search(dse_seed, cache, "cached", "warm")
                  for _ in range(DSE_WARM_CHUNK)]
        run.record("warm", statistics.median(passes),
                   (before + calibrate.speed()) / 2)


# -- metrics ---------------------------------------------------------------


def end_to_end(run: Run, benchmark: str) -> dict:
    """End-to-end metrics at the reference host speed (``Run.scaled``);
    the raw medians are printed beside them."""
    setup_probes(run, benchmark)
    values = {
        "setup_s": run.scaled("setup_s"),
        "simulate_s": run.scaled("simulate_s"),
        "points_per_s": 1.0 / run.scaled("cold"),
        "warm_points_per_s": 1.0 / run.scaled("warm"),
    }
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values["peak_rss_mb"] = rss_kb / 1024.0
    for quantity in ("setup_s", "simulate_s", "cold", "warm"):
        raw = run.raw(quantity)
        high = tail(raw)
        extra = f", p{high[0]:g} {high[1]:.6g}" if high else ""
        kernels = [k for _, k in run.samples[quantity]]
        print(f"# raw {quantity} s/point: median {statistics.median(raw):.6g}"
              f" over {len(raw)} samples{extra}; calibration kernel "
              f"median {statistics.median(kernels):.6g} s")
    return values


def per_layer(run: Run) -> dict:
    """Per-layer metrics from the traced run's spans and counters.

    Set-up metrics come from the ``setup`` phase.  Simulation metrics
    are per direct simulation (the ``measure`` phases, the calls that
    ``simulate_s`` times); cache, runner and DSE metrics cover the run.
    """
    tracer = run.tracer
    values = {name: 0.0 for name, _ in PER_LAYER}

    values["graphs.load_s"] = tracer.duration(tracer.named("load", "setup"))
    irs = tracer.named("ir", "setup")
    values["models.ir_s"] = tracer.duration(irs) - sum(
        tracer.duration(tracer.children(s, "load")) for s in irs
    )
    compiles = tracer.named("compile", "setup")
    values["runtime.compile_s"] = tracer.duration(compiles)
    values["runtime.tasks"] = sum(s["tasks"] for s in compiles)

    sims = tracer.named("simulate", "measure")
    events = run_s = 0.0
    for sim in sims:
        runs = tracer.children(sim, "sim.run")
        if len(runs) != len(sim["layers"]):
            run.problem(f"{len(runs)} Simulator.run calls for "
                        f"{len(sim['layers'])} GNN layers")
            continue
        for layer, span in zip(sim["layers"], runs):
            seconds = span["end"] - span["start"]
            values[f"sim.run_s.{layer}"] += seconds / len(sims)
            values[f"sim.events.{layer}"] += (
                span["events"] / len(sims)
            )
            events += span["events"]
            run_s += seconds
    values["sim.events_per_s"] = events / run_s
    values["runtime.engine_other_s"] = (
        tracer.duration(sims) - run_s
    ) / len(sims)
    measure = tracer.named("measure")
    for prefix in ("noc.delivery", "noc.reserve", "accel.memory.request"):
        calls, seconds = tracer.counter(measure, prefix)
        values[f"{prefix}_calls"] = calls / len(sims)
        values[f"{prefix}_s"] = seconds / len(sims)
    if tracer.counters.get("sim.general_loop", (0,))[0]:
        run.problem("the traced run selected Simulator._run_general")

    gets, puts = tracer.named("cache.get"), tracer.named("cache.put")
    values["exp.cache.lookups"] = len(gets)
    values["exp.cache.stores"] = len(puts)
    if gets:
        values["exp.cache.hit_ratio"] = sum(s["hit"] for s in gets) / len(gets)
        values["exp.cache.get_s"] = tracer.duration(gets) / len(gets)
    if puts:
        values["exp.cache.put_s"] = tracer.duration(puts) / len(puts)
    sweeps = tracer.named("sweep")
    values["exp.runner.points"] = sum(s["points"] for s in sweeps)
    values["exp.runner.attempts"] = sum(s["attempts"] for s in sweeps)
    colds = tracer.named("cold")
    if colds:
        values["exp.runner.sweep_s"] = tracer.duration(
            tracer.named("sweep", "cold")
        ) / len(colds)
    searches = tracer.named("dse")
    if searches:
        values["dse.driver_s"] = (
            tracer.duration(searches) - tracer.duration(sweeps)
        ) / len(searches)

    traced = statistics.median(run.traced)
    untraced = statistics.median(run.raw("simulate_s"))
    values["trace.simulate_s"] = traced
    values["trace.untraced_simulate_s"] = untraced
    values["trace.overhead"] = traced / untraced
    # Per-GNN-layer Simulator.run time plus the engine's other time must
    # account for the benchmark's own timing of the same calls.
    layers_s = sum(values[f"sim.run_s.{layer}"]
                   for layer in GNN_LAYERS)
    accounted = (layers_s + values["runtime.engine_other_s"]) / (
        sum(run.traced) / len(run.traced)
    )
    values["trace.accounted"] = accounted
    if not 0.99 <= accounted <= 1.01:
        run.problem(f"per-layer spans account for {accounted:.4f} of "
                    f"traced simulate_s")
    return values


# -- entry point -------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # The production configuration: no environment overrides of the
    # event loop, NoC backend, cache or sweep policy.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_NO_CACHE"] = "1"
    # The host slows each virtual CPU independently, so the calibration
    # kernel and what it calibrates (set-up probes included) must share
    # one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.cli
    except ImportError as exc:
        print(f"cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.cli.__file__).resolve().parents:
        print(f"the simulator was imported from {repro.cli.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    benchmark, noc, kind = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="cache-") as cache_dir:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
                  Path(cache_dir))
        workload = simulate_workload if kind == "simulate" else dse_workload
        try:
            workload(run, benchmark, noc)
            if run.tracer is None:
                metrics = end_to_end(run, benchmark)
                units = dict(END_TO_END)
            else:
                metrics = per_layer(run)
                units = dict(PER_LAYER)
                run.tracer.write(
                    OUT / f"trace-{args.workload}-{args.seed}.json"
                )
        except Exception:
            traceback.print_exc()
            print("FAILED: the run raised; no result", file=sys.stderr)
            return 1
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
