"""Regenerate ``pins.json``: the report digest of every simulation the
benchmark runs, next to the cache ``SCHEMA_VERSION`` that produced it.

Run ``python3 perfbench/repin.py`` from the repository root only after a
deliberate change of simulated behaviour (which also bumps
``SCHEMA_VERSION``); a speed-only change must leave the pins as they are.
It simulates every pinned point once, about five minutes on one core.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.dse.drivers import run_dse
    from repro.exp.cache import SCHEMA_VERSION, clear_memo, lookup, point_key
    from repro.runtime.engine import simulate_detailed

    from probe import setup

    reports: dict[str, dict[str, str]] = {}
    for workload, (benchmark, noc, kind) in run.WORKLOADS.items():
        config = run.base_config(noc)
        report = simulate_detailed(setup(benchmark), config)[0]
        pins = {point_key(benchmark, config): run.digest(report)}
        if kind == "dse":
            clear_memo()
            for seed in range(run.DSE_SEEDS):
                result = run_dse(benchmark, driver="random",
                                 points=run.DSE_POINTS, seed=seed, jobs=1,
                                 cache=None, noc_backend=noc)
                for evaluation in result.evaluations:
                    if not evaluation.ok:
                        raise SystemExit(f"{evaluation.point.describe()}: "
                                         f"{evaluation.error}")
                    key = point_key(benchmark, evaluation.config)
                    pins[key] = run.digest(lookup(key, None))
        reports[workload] = dict(sorted(pins.items()))
        print(f"{workload}: {len(pins)} pinned reports")
    document = {"schema_version": SCHEMA_VERSION, "reports": reports}
    run.PINS.write_text(json.dumps(document, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
