"""Vertex orderings and relabelings (extension).

The runtime's work queues (Algorithm 1) process vertices in queue order,
and vertex ids drive placement, so the *numbering* of a graph is a free
scheduling knob.  This module provides the classic orderings:

* :func:`degree_order` — hubs first (or last),
* :func:`bfs_order` — breadth-first from a seed, clustering neighbourhoods
  into contiguous id ranges,
* :func:`relabel` — rebuild a graph under a new numbering, so orderings
  compose with :class:`~repro.accel.placement.RangePlacement`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.graph import Graph


def degree_order(graph: Graph, descending: bool = True) -> np.ndarray:
    """Vertex ids sorted by degree (stable)."""
    degrees = graph.degrees()
    order = np.argsort(-degrees if descending else degrees, kind="stable")
    return order.astype(np.int64)


def bfs_order(graph: Graph, seed: int = 0) -> np.ndarray:
    """Breadth-first visitation order covering every component.

    Starts from ``seed``; when a component is exhausted, continues from
    the smallest unvisited vertex, so the result is a permutation even on
    disconnected graphs.
    """
    if not 0 <= seed < graph.num_nodes:
        raise ValueError(f"seed {seed} outside graph")
    visited = np.zeros(graph.num_nodes, dtype=bool)
    order = []
    queue: deque[int] = deque()

    def visit(v: int) -> None:
        visited[v] = True
        order.append(v)
        queue.append(v)

    visit(seed)
    next_unvisited = 0
    while len(order) < graph.num_nodes:
        if not queue:
            while visited[next_unvisited]:
                next_unvisited += 1
            visit(next_unvisited)
            continue
        v = queue.popleft()
        for u in graph.neighbors(v):
            if not visited[u]:
                visit(int(u))
    return np.asarray(order, dtype=np.int64)


def relabel(graph: Graph, order: np.ndarray) -> Graph:
    """A copy of ``graph`` where old vertex ``order[i]`` becomes ``i``.

    Features follow their vertices.  ``order`` must be a permutation of
    the vertex ids.
    """
    order = np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(graph.num_nodes)):
        raise ValueError("order must be a permutation of all vertex ids")
    new_id = np.empty(graph.num_nodes, dtype=np.int64)
    new_id[order] = np.arange(graph.num_nodes)
    dst = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    src = graph.indices
    mask = dst <= src  # keep one direction of each undirected edge
    edges = np.stack([new_id[dst[mask]], new_id[src[mask]]], axis=1)
    return Graph.from_edge_list(
        graph.num_nodes,
        edges,
        undirected=True,
        node_features=graph.node_feature_rows(order),
        name=graph.name,
    )
