"""Behaviour lock: exact report digests tied to the cache schema.

``behavior_lock.json`` holds the sha256 of the canonical
``report_to_dict`` output (:func:`repro.exp.cache.content_key`, the one
hashing convention every cache key uses) for each of the six paper
benchmarks on CPU and GPU iso-BW at 2.4 GHz, over the packet and the
analytical NoC, together with the ``SCHEMA_VERSION`` that produced them.

Every other report check is either pairwise (fast path vs reference,
observed vs bare) or banded at 1% (the headline golden), so a hot-path
edit that shifts one report by 0.1% passes all of them while warm
caches keep serving the old numbers.  This test does not: any change to
any field of any locked report fails it.  A deliberate behaviour change
must regenerate the lock *and* bump ``SCHEMA_VERSION`` (so stale cache
entries are invalidated) in the same commit:

    PYTHONPATH=src python -m tests.golden.test_behavior_lock

The gcn-pubmed and mpnn-qm9_1000 cells are marked ``slow``.
"""

import json
from pathlib import Path

import pytest

from repro.eval.accelerator import run_benchmark
from repro.exp import cache as result_cache
from repro.exp.cache import SCHEMA_VERSION, content_key
from repro.models.registry import BENCHMARKS
from repro.runtime.serialize import report_to_dict

LOCK_PATH = Path(__file__).with_name("behavior_lock.json")

CONFIG_NAMES = ("CPU iso-BW", "GPU iso-BW")
NOC_BACKENDS = ("packet", "analytical")
CLOCK_GHZ = 2.4
SLOW_BENCHMARKS = frozenset({"gcn-pubmed", "mpnn-qm9_1000"})

CELLS = [
    (benchmark.key, config_name, backend)
    for benchmark in BENCHMARKS
    for config_name in CONFIG_NAMES
    for backend in NOC_BACKENDS
]


def cell_name(benchmark_key: str, config_name: str, backend: str) -> str:
    return f"{benchmark_key} | {config_name} | {backend}"


def cell_digest(benchmark_key: str, config_name: str, backend: str) -> str:
    """Digest of one cell's report, through the memo/cache layers."""
    report = run_benchmark(
        benchmark_key, config_name, CLOCK_GHZ, noc_backend=backend
    )
    return content_key(report_to_dict(report))


@pytest.fixture(scope="module")
def lock():
    return json.loads(LOCK_PATH.read_text())


def test_lock_records_the_current_schema(lock):
    assert lock["schema_version"] == SCHEMA_VERSION, (
        "behavior_lock.json was produced under another SCHEMA_VERSION; "
        "regenerate it together with the schema bump"
    )


def test_lock_covers_every_cell(lock):
    assert set(lock["cells"]) == {cell_name(*cell) for cell in CELLS}


@pytest.mark.parametrize(
    "benchmark_key,config_name,backend",
    [
        pytest.param(
            *cell,
            id=cell_name(*cell).replace(" | ", "-").replace(" ", ""),
            marks=pytest.mark.slow if cell[0] in SLOW_BENCHMARKS else (),
        )
        for cell in CELLS
    ],
)
def test_report_matches_lock(lock, benchmark_key, config_name, backend):
    name = cell_name(benchmark_key, config_name, backend)
    assert cell_digest(benchmark_key, config_name, backend) == (
        lock["cells"][name]
    ), (
        f"{name}: the report moved; if that is deliberate, bump "
        "SCHEMA_VERSION and regenerate behavior_lock.json (see module "
        "docstring)"
    )


def main() -> None:
    """Simulate every cell (no persistent cache) and rewrite the lock."""
    result_cache.set_default_cache(None)
    document = {
        "schema_version": SCHEMA_VERSION,
        "cells": {cell_name(*cell): cell_digest(*cell) for cell in CELLS},
    }
    LOCK_PATH.write_text(json.dumps(document, indent=1) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    main()
