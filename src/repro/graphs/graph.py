"""Core graph data structures.

:class:`Graph` stores a directed CSR adjacency (undirected graphs store both
edge directions) plus optional node and edge features.  :class:`GraphSet`
groups many small graphs (the QM9 workload) while exposing the aggregate
statistics Table V reports.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


# eq=False: ``rows`` is an array, so field-wise equality would be ambiguous.
@dataclass(frozen=True, eq=False)
class FeatureDraw:
    """A seeded standard-normal feature matrix not yet drawn.

    :meth:`draw` returns exactly
    ``np.random.default_rng(seed).standard_normal((num_rows, width))
    .astype(np.float32)``, restricted to ``rows`` when set.  A graph holding
    one draws it on the first read of ``node_features``, so a run that only
    needs feature *widths* (the whole simulator) never allocates the matrix.
    """

    seed: int
    num_rows: int
    width: int
    rows: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the matrix :meth:`draw` returns."""
        count = self.num_rows if self.rows is None else len(self.rows)
        return (count, self.width)

    def take(self, rows: np.ndarray) -> "FeatureDraw":
        """The pending draw of ``self.draw()[rows]``."""
        base = np.arange(self.num_rows) if self.rows is None else self.rows
        return FeatureDraw(self.seed, self.num_rows, self.width, base[rows])

    def draw(self) -> np.ndarray:
        """Run the draw (every call draws afresh)."""
        rng = np.random.default_rng(self.seed)
        features = rng.standard_normal((self.num_rows, self.width)).astype(
            np.float32
        )
        return features if self.rows is None else features[self.rows]


class Graph:
    """A graph in CSR form with optional dense feature matrices.

    Parameters
    ----------
    indptr, indices:
        Standard CSR row-pointer / column-index arrays for the (directed)
        adjacency.  For an undirected graph both directions are present.
    num_nodes:
        Number of vertices.
    node_features:
        Optional ``(num_nodes, F)`` float32 array, or a :class:`FeatureDraw`
        with as many rows that is drawn on the first read.
    edge_features:
        Optional ``(nnz, Fe)`` float32 array aligned with ``indices``.
    undirected_edge_count:
        The number of *undirected* edges this graph was built from, used
        for Table V style reporting.  Defaults to ``nnz`` (directed count).
    name:
        Human-readable identifier.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        num_nodes: int,
        node_features: np.ndarray | FeatureDraw | None = None,
        edge_features: np.ndarray | None = None,
        undirected_edge_count: int | None = None,
        name: str = "",
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.num_nodes = int(num_nodes)
        self.name = name
        if self.indptr.shape != (self.num_nodes + 1,):
            raise ValueError(
                f"indptr must have shape ({self.num_nodes + 1},), "
                f"got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_nodes
        ):
            raise ValueError("indices contain out-of-range vertex ids")
        self.node_features = node_features
        self.edge_features = None
        if edge_features is not None:
            edge_features = np.asarray(edge_features, dtype=np.float32)
            if edge_features.shape[0] != len(self.indices):
                raise ValueError(
                    f"edge_features has {edge_features.shape[0]} rows, "
                    f"expected {len(self.indices)}"
                )
            self.edge_features = edge_features
        self._undirected_edge_count = undirected_edge_count

    # -- node features ---------------------------------------------------

    @property
    def node_features(self) -> np.ndarray | None:
        """The ``(num_nodes, F)`` float32 node features, or ``None``.

        A pending :class:`FeatureDraw` is drawn here on the first read and
        the result kept.
        """
        if self._feature_draw is not None:
            self._node_features = self._feature_draw.draw()
            self._feature_draw = None
        return self._node_features

    @node_features.setter
    def node_features(self, value: np.ndarray | FeatureDraw | None) -> None:
        draw = value if isinstance(value, FeatureDraw) else None
        if draw is None and value is not None:
            value = np.asarray(value, dtype=np.float32)
        if value is not None and value.shape[0] != self.num_nodes:
            raise ValueError(
                f"node_features has {value.shape[0]} rows, "
                f"expected {self.num_nodes}"
            )
        self._feature_draw = draw
        self._node_features = None if draw is not None else value

    def node_feature_rows(
        self, rows: np.ndarray
    ) -> np.ndarray | FeatureDraw | None:
        """``node_features[rows]``, still pending if the draw is."""
        if self._feature_draw is not None:
            return self._feature_draw.take(rows)
        if self._node_features is None:
            return None
        return self._node_features[rows]

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_edge_list(
        cls,
        num_nodes: int,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        undirected: bool = True,
        node_features: np.ndarray | FeatureDraw | None = None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from ``(src, dst)`` pairs.

        With ``undirected=True`` each pair is inserted in both directions
        (self-loops once), and the undirected edge count is recorded for
        Table V style reporting.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        undirected_count = len(edges)
        if undirected:
            non_loops = edges[edges[:, 0] != edges[:, 1]]
            edges = np.concatenate([edges, non_loops[:, ::-1]], axis=0)
        src = edges[:, 0]
        dst = edges[:, 1]
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(
            indptr,
            dst,
            num_nodes,
            node_features=node_features,
            undirected_edge_count=undirected_count if undirected else None,
            name=name,
        )

    # -- basic properties -----------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        """Undirected edge count if known, otherwise the directed count."""
        if self._undirected_edge_count is not None:
            return self._undirected_edge_count
        return self.nnz

    @property
    def num_node_features(self) -> int:
        """Width of the node feature matrix (0 if absent); never draws."""
        if self._feature_draw is not None:
            return self._feature_draw.width
        if self._node_features is None:
            return 0
        return self._node_features.shape[1]

    @property
    def num_edge_features(self) -> int:
        """Width of the edge feature matrix (0 if absent)."""
        return 0 if self.edge_features is None else self.edge_features.shape[1]

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (equal to in-degree when undirected)."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Column indices adjacent to vertex ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_slice(self, v: int) -> slice:
        """Slice into ``indices``/``edge_features`` for vertex ``v``'s edges."""
        return slice(int(self.indptr[v]), int(self.indptr[v + 1]))

    def density(self, with_self_loops: bool = False) -> float:
        """Fraction of nonzero entries in the dense adjacency."""
        nnz = self.nnz + (self.num_nodes if with_self_loops else 0)
        return nnz / float(self.num_nodes) ** 2

    def sparsity(self, with_self_loops: bool = False) -> float:
        """Fraction of zero entries in the dense adjacency (paper Sec. II)."""
        return 1.0 - self.density(with_self_loops=with_self_loops)

    # -- matrix views ----------------------------------------------------

    def adjacency(self) -> sp.csr_matrix:
        """The stored adjacency as a scipy CSR matrix of float32 ones."""
        import scipy.sparse as sp

        data = np.ones(self.nnz, dtype=np.float32)
        return sp.csr_matrix(
            (data, self.indices, self.indptr),
            shape=(self.num_nodes, self.num_nodes),
        )

    def normalized_adjacency(self, add_self_loops: bool = True) -> sp.csr_matrix:
        """GCN propagation operator ``D^-1/2 (A + I) D^-1/2``.

        This is the matrix the paper maps onto the DNN accelerator as dense
        convolution weights in Section II.
        """
        import scipy.sparse as sp

        adj = self.adjacency()
        if add_self_loops:
            adj = adj + sp.identity(self.num_nodes, dtype=np.float32, format="csr")
        deg = np.asarray(adj.sum(axis=1)).ravel()
        inv_sqrt = np.zeros_like(deg)
        nonzero = deg > 0
        inv_sqrt[nonzero] = 1.0 / np.sqrt(deg[nonzero])
        d_mat = sp.diags(inv_sqrt).astype(np.float32)
        return (d_mat @ adj @ d_mat).tocsr()

    def validate(self) -> None:
        """Raise ``ValueError`` if internal invariants are violated."""
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr not monotone")
        for v in range(self.num_nodes):
            row = self.neighbors(v)
            if len(row) != len(np.unique(row)):
                raise ValueError(f"duplicate edges at vertex {v}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, features={self.num_node_features})"
        )


class GraphSet:
    """An ordered collection of graphs treated as one workload (QM9_1000)."""

    def __init__(self, graphs: Sequence[Graph], name: str = "") -> None:
        if not graphs:
            raise ValueError("GraphSet requires at least one graph")
        self.graphs = list(graphs)
        self.name = name

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def __getitem__(self, idx: int) -> Graph:
        return self.graphs[idx]

    @property
    def total_nodes(self) -> int:
        """Sum of node counts across the set (Table V 'Total Nodes')."""
        return sum(g.num_nodes for g in self.graphs)

    @property
    def total_edges(self) -> int:
        """Sum of undirected edge counts across the set (Table V)."""
        return sum(g.num_edges for g in self.graphs)

    @property
    def num_node_features(self) -> int:
        """Node feature width (uniform across the set)."""
        return self.graphs[0].num_node_features

    @property
    def num_edge_features(self) -> int:
        """Edge feature width (uniform across the set)."""
        return self.graphs[0].num_edge_features

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphSet(name={self.name!r}, graphs={len(self.graphs)}, "
            f"nodes={self.total_nodes}, edges={self.total_edges})"
        )
