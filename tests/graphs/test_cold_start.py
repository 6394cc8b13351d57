"""Cold start: dataset features are drawn on first read, scipy on demand.

The simulator prices features by width only, so loading, lowering,
compiling and simulating a benchmark must neither draw the Table V
feature matrices nor import scipy.  Every matrix a caller does read must
equal the eager draw bitwise.
"""

import copy
import functools
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graphs import datasets, relabel
from repro.graphs.graph import FeatureDraw, Graph
from repro.models.registry import benchmark_ir_digest
from repro.partition.core import induced_subgraph
from repro.systems.base import resolve_workload


def _pending(graph):
    return graph._feature_draw is not None


@pytest.fixture(scope="module")
def fresh_pubmed():
    """An uncached, never-read Pubmed (callers copy it before reading)."""
    graph = datasets.pubmed.__wrapped__()
    assert _pending(graph)
    return graph


def _pending_cora():
    graph = datasets.cora.__wrapped__()
    assert _pending(graph)
    return graph


class TestPendingDraw:
    def test_width_does_not_draw(self):
        graph = _pending_cora()
        assert graph.num_node_features == 1433
        assert _pending(graph)

    def test_first_read_keeps_the_draw(self):
        graph = _pending_cora()
        first = graph.node_features
        assert not _pending(graph)
        assert graph.node_features is first

    def test_assignment_replaces_pending_draw(self):
        graph = _pending_cora()
        replacement = np.ones((graph.num_nodes, 2), dtype=np.float32)
        graph.node_features = replacement
        assert graph.num_node_features == 2
        assert np.array_equal(graph.node_features, replacement)
        graph.node_features = None
        assert graph.node_features is None
        assert graph.num_node_features == 0

    def test_draw_with_wrong_row_count_is_rejected(self):
        graph = Graph.from_edge_list(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="4 rows, expected 3"):
            graph.node_features = FeatureDraw(seed=1, num_rows=4, width=2)
        with pytest.raises(ValueError, match="2 rows, expected 3"):
            Graph.from_edge_list(
                3, [(0, 1)], node_features=FeatureDraw(1, 4, 2).take([0, 1])
            )


class TestFeatureSetter:
    def test_row_mismatch_raises(self):
        graph = Graph.from_edge_list(50, [(i, i + 1) for i in range(49)])
        with pytest.raises(ValueError, match="3 rows, expected 50"):
            graph.node_features = np.zeros((3, 4))
        assert graph.node_features is None

    def test_assignment_casts_to_float32(self):
        graph = Graph.from_edge_list(3, [(0, 1)])
        graph.node_features = np.arange(6, dtype=np.float64).reshape(3, 2)
        assert graph.node_features.dtype == np.float32
        assert graph.num_node_features == 2


class TestCopies:
    @pytest.mark.parametrize(
        "duplicate",
        [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_pending_pubmed_copies_bitwise(self, fresh_pubmed, duplicate):
        original = copy.copy(fresh_pubmed)
        clone = duplicate(original)
        assert _pending(clone)
        assert clone.num_node_features == 500
        assert np.array_equal(clone.node_features, original.node_features)
        assert np.array_equal(clone.indices, original.indices)


def _sources(fresh_pubmed):
    """The same Pubmed twice: one draw still pending, one materialized."""
    pending = copy.copy(fresh_pubmed)
    materialized = copy.copy(fresh_pubmed)
    materialized.node_features  # noqa: B018  (forces the draw)
    return {"pending": pending, "materialized": materialized}


@pytest.mark.parametrize("state", ["pending", "materialized"])
class TestSlicingKeepsDrawsPending:
    def test_induced_subgraph(self, fresh_pubmed, state):
        source = _sources(fresh_pubmed)[state]
        nodes = np.arange(5, source.num_nodes, 7)
        sub = induced_subgraph(source, nodes, name="shard")
        assert _pending(sub) == (state == "pending")
        assert sub.num_node_features == 500
        expected = source.node_features[nodes]
        assert sub.node_features.dtype == np.float32
        assert np.array_equal(sub.node_features, expected)

    def test_relabel(self, fresh_pubmed, state):
        source = _sources(fresh_pubmed)[state]
        order = np.random.default_rng(0).permutation(source.num_nodes)
        new = relabel(source, order)
        assert _pending(new) == (state == "pending")
        assert np.array_equal(new.node_features, source.node_features[order])

    def test_slice_of_a_slice(self, fresh_pubmed, state):
        source = _sources(fresh_pubmed)[state]
        nodes = np.arange(0, source.num_nodes, 3)
        sub = induced_subgraph(source, nodes, name="shard")
        inner = np.arange(1, sub.num_nodes, 2)
        subsub = induced_subgraph(sub, inner, name="shard.half")
        assert np.array_equal(
            subsub.node_features, source.node_features[nodes][inner]
        )


def test_workload_fingerprint_does_not_draw(monkeypatch):
    graph = _pending_cora()
    monkeypatch.setitem(datasets._LOADERS, "cora", lambda: graph)
    benchmark_ir_digest.cache_clear()
    try:
        before = resolve_workload("gcn-cora").fingerprint()
        assert _pending(graph)
        graph.node_features  # noqa: B018  (forces the draw)
        benchmark_ir_digest.cache_clear()
        after = resolve_workload("gcn-cora").fingerprint()
    finally:
        benchmark_ir_digest.cache_clear()
    assert json.dumps(before, sort_keys=True) == json.dumps(after, sort_keys=True)


def test_pubmed_setup_memory_peak(monkeypatch):
    """Load + IR + compile of gcn-pubmed allocate far less than the
    39 MB float32 feature matrix (118 MB with its float64 draw)."""
    from repro.models.registry import benchmark_by_key, benchmark_ir, load_benchmark
    from repro.runtime.compiler import compile_model

    # A fresh memoized loader, so the traced window covers a cold load.
    fresh = functools.cache(datasets.pubmed.__wrapped__)
    monkeypatch.setitem(datasets._LOADERS, "pubmed", fresh)
    benchmark = benchmark_by_key("gcn-pubmed")
    tracemalloc.start()
    try:
        model, data = load_benchmark(benchmark)
        benchmark_ir(benchmark)
        compile_model(model, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6, f"setup peaked at {peak / 1e6:.1f} MB"


_SIMULATE_THEN_FORWARD = """
import sys

import repro.cli
from repro.models.registry import benchmark_by_key, load_benchmark
from repro.runtime.compiler import compile_model
from repro.runtime.engine import simulate
from repro.space import resolve_config

model, data = load_benchmark(benchmark_by_key("gcn-cora"))
config = resolve_config("CPU iso-BW").with_noc_backend("analytical")
report = simulate(compile_model(model, data), config)
assert report.latency_ns > 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
out = model.forward(data)
assert out.shape == (2708, 7), out.shape
assert "scipy.sparse" in sys.modules
print("ok")
"""


def test_cli_to_simulate_imports_no_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", _SIMULATE_THEN_FORWARD],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
