"""The paper's evaluation datasets (Table V), built synthetically.

Each constructor returns a graph (or :class:`~repro.graphs.graph.GraphSet`)
whose node count, undirected edge count, and vertex / edge / output feature
widths match Table V exactly:

=========  ======  ===========  ===========  ========  =====  ======
Dataset    Graphs  Total Nodes  Total Edges  V. Feat.  E. F.  O. F.
=========  ======  ===========  ===========  ========  =====  ======
Cora       1       2708         5429         1433      0      7
Citeseer   1       3327         4732         3703      0      6
Pubmed     1       19717        44338        500       0      3
QM9_1000   1000    12314        12080        13        5      73
DBLP_1     1       547          2654         1         0      3
=========  ======  ===========  ===========  ========  =====  ======

Results are cached per process, so repeated calls are cheap and return the
same object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.graphs.generators import (
    citation_graph,
    collaboration_graph,
    molecule_graph_set,
)
from repro.graphs.graph import FeatureDraw, Graph, GraphSet


@dataclass(frozen=True)
class DatasetStats:
    """One Table V row."""

    name: str
    graphs: int
    total_nodes: int
    total_edges: int
    vertex_features: int
    edge_features: int
    output_features: int


#: Table V, keyed by dataset name.
DATASETS: dict[str, DatasetStats] = {
    "cora": DatasetStats("Cora", 1, 2708, 5429, 1433, 0, 7),
    "citeseer": DatasetStats("Citeseer", 1, 3327, 4732, 3703, 0, 6),
    "pubmed": DatasetStats("Pubmed", 1, 19717, 44338, 500, 0, 3),
    "qm9_1000": DatasetStats("QM9_1000", 1000, 12314, 12080, 13, 5, 73),
    "dblp_1": DatasetStats("DBLP_1", 1, 547, 2654, 1, 0, 3),
}


def _attach_features(graph: Graph, width: int, seed: int) -> Graph:
    # The draw is deferred to the first read of ``node_features``: the
    # simulator prices features by width only, so most runs never draw.
    # Only a draw with its own RNG can be deferred. ``molecule_graph_set``
    # interleaves features and edges on one stream and ``stress_graph``
    # draws features after its edges on the same stream, so both stay eager.
    graph.node_features = FeatureDraw(seed, graph.num_nodes, width)
    return graph


@functools.lru_cache(maxsize=None)
def cora() -> Graph:
    """Synthetic stand-in for the Cora citation network."""
    stats = DATASETS["cora"]
    graph = citation_graph(
        stats.total_nodes, stats.total_edges, seed=0xC04A, name="Cora"
    )
    return _attach_features(graph, stats.vertex_features, seed=1)


@functools.lru_cache(maxsize=None)
def citeseer() -> Graph:
    """Synthetic stand-in for the Citeseer citation network."""
    stats = DATASETS["citeseer"]
    graph = citation_graph(
        stats.total_nodes, stats.total_edges, seed=0xC17E, name="Citeseer"
    )
    return _attach_features(graph, stats.vertex_features, seed=2)


@functools.lru_cache(maxsize=None)
def pubmed() -> Graph:
    """Synthetic stand-in for the Pubmed citation network."""
    stats = DATASETS["pubmed"]
    graph = citation_graph(
        stats.total_nodes, stats.total_edges, seed=0x9B8D, name="Pubmed"
    )
    return _attach_features(graph, stats.vertex_features, seed=3)


@functools.lru_cache(maxsize=None)
def qm9_1000() -> GraphSet:
    """Synthetic stand-in for the first 1000 molecules of QM9."""
    stats = DATASETS["qm9_1000"]
    return molecule_graph_set(
        num_graphs=stats.graphs,
        total_nodes=stats.total_nodes,
        total_edges=stats.total_edges,
        node_feature_dim=stats.vertex_features,
        edge_feature_dim=stats.edge_features,
        seed=0x0937,
        name="QM9_1000",
    )


@functools.lru_cache(maxsize=None)
def dblp_1() -> Graph:
    """Synthetic stand-in for the DBLP collaboration subgraph.

    The source extract carries no vertex or edge features, so (as in the
    paper's reference PGNN implementation) the vertex degree is used as a
    single-element vertex state.
    """
    stats = DATASETS["dblp_1"]
    graph = collaboration_graph(
        stats.total_nodes, stats.total_edges, seed=0xDB19, name="DBLP_1"
    )
    graph.node_features = graph.degrees().astype(np.float32).reshape(-1, 1)
    return graph


_LOADERS = {
    "cora": cora,
    "citeseer": citeseer,
    "pubmed": pubmed,
    "qm9_1000": qm9_1000,
    "dblp_1": dblp_1,
}


def load_dataset(name: str) -> Graph | GraphSet:
    """Load a dataset by its Table V name (case-insensitive)."""
    key = name.lower()
    if key not in _LOADERS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(_LOADERS)}"
        )
    return _LOADERS[key]()


def dataset_statistics(name: str) -> DatasetStats:
    """Measure a generated dataset and return its Table V row."""
    key = name.lower()
    spec = DATASETS[key]
    data = load_dataset(key)
    if isinstance(data, GraphSet):
        return DatasetStats(
            name=spec.name,
            graphs=len(data),
            total_nodes=data.total_nodes,
            total_edges=data.total_edges,
            vertex_features=data.num_node_features,
            edge_features=data.num_edge_features,
            output_features=spec.output_features,
        )
    return DatasetStats(
        name=spec.name,
        graphs=1,
        total_nodes=data.num_nodes,
        total_edges=data.num_edges,
        vertex_features=data.num_node_features,
        edge_features=data.num_edge_features,
        output_features=spec.output_features,
    )
