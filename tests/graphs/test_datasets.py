"""Tests that the generated datasets reproduce Table V exactly."""

import numpy as np
import pytest

from repro.graphs import (
    DATASETS,
    dataset_statistics,
    dblp_1,
    load_dataset,
)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_table5_row_matches_spec(name):
    spec = DATASETS[name]
    measured = dataset_statistics(name)
    assert measured == spec


def test_load_dataset_unknown_name_raises():
    with pytest.raises(KeyError):
        load_dataset("imaginary")


def test_load_dataset_is_case_insensitive():
    assert load_dataset("Cora") is load_dataset("cora")


def test_datasets_are_cached():
    assert load_dataset("cora") is load_dataset("cora")


@pytest.mark.parametrize(
    "name, seed", [("cora", 1), ("citeseer", 2), ("pubmed", 3)]
)
def test_citation_features_equal_the_eager_draw(name, seed):
    spec = DATASETS[name]
    graph = load_dataset(name)
    assert graph.num_node_features == spec.vertex_features
    expected = np.random.default_rng(seed).standard_normal(
        (spec.total_nodes, spec.vertex_features)
    ).astype(np.float32)
    features = graph.node_features
    assert features.dtype == np.float32
    assert features.shape == (spec.total_nodes, spec.vertex_features)
    assert np.array_equal(features, expected)
    assert dataset_statistics(name) == spec


def test_dblp_vertex_state_is_degree():
    g = dblp_1()
    assert g.num_node_features == 1
    assert np.array_equal(g.node_features.ravel(), g.degrees().astype(np.float32))


def test_citation_sparsity_regime():
    # Section II: adjacency matrices of the citation inputs are >= 99.8%
    # sparse, with Pubmed the sparsest.
    cora_s = load_dataset("cora").sparsity(with_self_loops=True)
    cite_s = load_dataset("citeseer").sparsity(with_self_loops=True)
    pub_s = load_dataset("pubmed").sparsity(with_self_loops=True)
    assert cora_s > 0.998
    assert cite_s > 0.998
    assert pub_s > max(cora_s, cite_s)


def test_qm9_molecules_are_small():
    gs = load_dataset("qm9_1000")
    sizes = [g.num_nodes for g in gs]
    assert 10 <= np.mean(sizes) <= 14  # ~12.3 atoms per molecule
