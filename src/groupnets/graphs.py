"""Simple undirected graphs and the structural metrics used for comparisons.

Graphs are immutable once built: nodes are ``0..n-1``, edges are
unordered pairs with no self-loops or duplicates.  A graph holds the
pattern of its sparse adjacency (row pointers and sorted column indices);
its edge array and its CSR matrix are read from that, and every metric
runs on them.  The memory of a metric on a graph of a few dense groups
follows the graph's edge count, so the passes over all edges go a slice
of rows at a time and keep no temporary as large as the graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

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

# Largest n at which a record's small-graph paths work on n-by-n arrays:
# average_shortest_path sums the full distance matrix, average_clustering
# multiplies the dense adjacency and dynamics.spectral_radius takes a dense
# eigvalsh.  Medians over generated graphs (4 modalities x 2 seeds, best of
# 5), one BLAS thread: at n = 100 dense wins for lambda_max (0.47 against
# 1.16 ms) and for clustering (0.09 against 0.34 ms), and the block-cut path
# length loses below it; the dense lambda_max ties eigsh near n = 150 and
# loses at n = 200 (1.6 against 0.9 ms)
_SMALL_MAX_N = 100
# rows of one block-diagonal distance batch of the block-cut sum, and the
# distances one shortest-path call computes at most (unless one row is longer)
_ASP_BATCH_NODES = 256
_ASP_DIST_CELLS = 1 << 18
# two-step path ends counted in one slice of average_clustering
_CLUSTERING_ENTRIES = 1 << 19
# adjacency entries read in one slice of rows by the edge-wise passes
_EDGE_SLICE = 1 << 16
# largest adjacency (in stored entries) whose CSR matrix a Graph keeps
_CSR_CACHE_ENTRIES = 1 << 16


class Graph:
    """Undirected simple graph on ``n`` nodes.

    The graph is held as the pattern of its symmetric sparse adjacency
    alone (see ``pattern``).  ``edges`` reads from it a read-only ``(m, 2)``
    int64 array of the distinct pairs ``(u, v)`` with ``u < v``, in
    lexicographic order, on each access.
    """

    __slots__ = ("n", "_indptr", "_indices", "_csr", "_cut")

    def __init__(self, n: int, edges: ArrayLike):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        self.n = n = int(n)
        e = np.asarray(edges)
        if e.size and e.dtype.kind not in "iu":
            raise ValueError(f"edges must be integers, got {e.dtype} values")
        if e.dtype != np.int32:  # the generators' edge arrays are int32
            e = np.asarray(e, dtype=np.int64)
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
        # pair (u, v), u < v, as the key u*n + v: unique keys sort lexicographically.
        # The arrays below are sorted and reduced in place: on a graph of a few
        # dense groups they are as large as the graph itself
        keys = np.minimum(e[:, 0], e[:, 1], dtype=np.int64)
        keys *= n
        keys += np.maximum(e[:, 0], e[:, 1], dtype=np.int64)
        keys.sort()
        repeat = keys[1:] == keys[:-1]
        if repeat.any():
            keys = np.delete(keys, np.flatnonzero(repeat) + 1)
        del repeat
        m = keys.size
        # both directions of every edge, (u, v) and (v, u), sorted by (row, column)
        arcs = np.empty(2 * m, dtype=np.int64)
        arcs[:m] = keys
        np.remainder(keys, n, out=arcs[m:])
        arcs[m:] *= n
        keys //= n
        arcs[m:] += keys
        del keys
        arcs.sort()
        self._indptr = np.searchsorted(arcs, np.arange(n + 1) * n).astype(np.int32)
        np.remainder(arcs, n, out=arcs)
        self._indices = arcs.astype(np.int32)
        self._csr = None
        self._cut = None

    @property
    def edges(self) -> np.ndarray:
        e = np.empty((self.edge_count, 2), dtype=np.int64)
        at = 0
        for u, v in _edge_slices(self):
            e[at:at + u.size, 0] = u
            e[at:at + u.size, 1] = v
            at += u.size
        e.flags.writeable = False
        return e

    @property
    def edge_count(self) -> int:
        return self._indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """The int32 ``indptr`` and ``indices`` of the adjacency in CSR form.

        Row i's neighbours, ascending, are ``indices[indptr[i]:indptr[i + 1]]``.
        The arrays are the graph's own, shared with ``to_csr``: read them only.
        """
        return self._indptr, self._indices

    def to_csr(self) -> sp.csr_matrix:
        """Symmetric binary adjacency in CSR form, indices sorted within rows.

        A graph of up to ``_CSR_CACHE_ENTRIES`` entries keeps the matrix; a
        larger one builds its unit values on each call, so that they are not
        held through the work of the metrics that need none.
        """
        if self._csr is not None:
            return self._csr
        csr = sp.csr_matrix(
            (np.ones(self._indices.size), self._indices, self._indptr), shape=(self.n, self.n)
        )
        if self._indices.size <= _CSR_CACHE_ENTRIES:
            self._csr = csr
        return csr

    def to_dense(self) -> np.ndarray:
        """Dense binary adjacency matrix."""
        return self.to_csr().toarray()

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one connected component."""
    if g.n == 0:
        raise ValueError("connectivity undefined on the empty graph")
    return _one_component(g.to_csr())


def _one_component(a: sp.csr_matrix) -> bool:
    """True iff a symmetric sparse matrix's graph has exactly one component."""
    # every arc has its reverse, so strong components are the undirected ones;
    # asking for those skips scipy's symmetrising copy (12 rather than 90 us
    # a call on a 30-node graph)
    return csgraph.connected_components(a, directed=True, connection="strong",
                                        return_labels=False) == 1


def _row_slices(cumulative: np.ndarray, budget: int) -> list[int]:
    """Bounds ``0 = r_0 < ... = n`` cutting n rows (or blocks) into slices of
    about ``budget``.

    ``cumulative[r]`` is the amount held by rows below r (an ``indptr``, say);
    a row holding more than ``budget`` is a slice of its own.
    """
    cuts = np.searchsorted(cumulative, np.arange(budget, cumulative[-1], budget))
    return np.unique(np.concatenate(([0], cuts, [cumulative.size - 1]))).tolist()


def _edge_slices(g: Graph):
    """The edges ``(u, v)``, u < v, in lexicographic order, as int32 arrays ``u, v``
    read from the upper triangle of the adjacency a slice of rows at a time."""
    indptr, indices = g.pattern()
    cuts = _row_slices(indptr, _EDGE_SLICE)
    for lo, hi in zip(cuts, cuts[1:]):
        u = np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(indptr[lo:hi + 1]))
        v = indices[indptr[lo]:indptr[hi]]
        upper = v > u
        yield u[upper], v[upper]


def average_shortest_path(g: Graph) -> float:
    """Mean BFS distance over ordered node pairs.

    Requires a connected graph with at least two nodes.  Up to
    ``_SMALL_MAX_N`` nodes the mean comes from the full n-by-n
    distance matrix.  Above it, the sum of distances (the Wiener index) is
    summed block by block over the biconnected blocks, since a shortest
    path between two nodes of one block stays inside it and every path
    crosses the block-cut tree:

        W = sum_B sum_{x != y in B} w_B(x) w_B(y) d_B(x, y),

    where w_B(x) counts the nodes that reach B through x.  ``_blocks``
    lists the blocks of two nodes first, with d = 1; the larger ones get
    their distances from its block-diagonal adjacency, in batches of whole
    blocks of about ``_ASP_BATCH_NODES`` rows, a slice of sources at a
    time.  No n-by-n array, nor a square one for a large block, is
    allocated, and the integer sum gives the same float as the dense path.
    """
    if g.n < 2:
        raise ValueError("average shortest path needs at least 2 nodes")
    if g.n <= _SMALL_MAX_N:
        dist = csgraph.shortest_path(g.to_csr(), method="D", unweighted=True, directed=False)
        if np.isinf(dist).any():
            raise ValueError("graph is disconnected: unreachable pair encountered")
        return float(dist.sum() / (g.n * (g.n - 1)))
    cut = _blocks(g)
    two = 2 * cut.pairs
    # the two members of each 2-node block are adjacent
    total = 2 * int(cut.weight[:two].reshape(-1, 2).prod(axis=1).sum())
    weight = cut.weight[two:]
    # unit weights: the same distances as an unweighted search, without
    # the unit weights it would allocate on every call
    ones = np.ones(cut.indices.size)
    # the rows go in batches of whole blocks, about _ASP_BATCH_NODES rows
    # each; a batch's sources go in slices of at most _ASP_DIST_CELLS
    # distances, so a giant block never takes a square distance matrix
    cuts = cut.starts[_row_slices(cut.starts, _ASP_BATCH_NODES)].tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        p, q = cut.indptr[lo], cut.indptr[hi]
        # each edge once: the search reads it as undirected
        adj = sp.csr_matrix((ones[p:q], cut.indices[p:q] - lo, cut.indptr[lo:hi + 1] - p),
                            shape=(hi - lo, hi - lo))
        w = weight[lo:hi]
        step = max(1, _ASP_DIST_CELLS // (hi - lo))
        for a in range(0, hi - lo, step):
            dist = csgraph.shortest_path(adj, method="D", directed=False,
                                         indices=np.arange(a, min(a + step, hi - lo)))
            dist[np.isinf(dist)] = 0.0  # pairs in different blocks
            total += int(w[a:a + step] @ (dist.astype(np.int64) @ w))
    return total / (g.n * (g.n - 1))


class _BlockCut(NamedTuple):
    """The biconnected blocks of a connected graph, its block-cut tree and
    the block-diagonal adjacency of its blocks of more than two members.

    One entry per (block, member) pair, grouped by block: the blocks in
    ascending order of size, named 0, 1, ... in that order, and the
    members of a block ascending.  The first ``pairs`` blocks have two
    members; entry ``2 * pairs + i`` is row i of the adjacency.  A block's
    top is the member nearest node 0, the cut vertex towards node 0 or
    node 0 itself.
    """

    block: np.ndarray
    node: np.ndarray
    # the nodes that reach the block through the member, and the sum of
    # d + 1 over them; over a block they sum to n and to n + 2|E|
    weight: np.ndarray
    volume: np.ndarray
    top: np.ndarray
    pairs: int
    # block pairs + b of the larger ones opens at row starts[b], and
    # starts[-1] counts the rows; the CSR pattern holds each of their
    # edges once, in the row of its smaller end
    starts: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


def _blocks(g: Graph) -> _BlockCut:
    """Biconnected blocks of a connected graph of n >= 2, their block-cut
    weights and the adjacency of the larger blocks.

    Hopcroft and Tarjan's low points (CACM 16, 1973) over a depth-first
    order: the DFS tree arc into v starts a new block exactly when no
    edge from v's subtree reaches above v's parent.  One pass over the
    edges then builds the adjacency.  The result is kept on the graph, so
    that the path lengths and delta_ss of one record share one search and
    one pass.
    """
    if g._cut is not None:
        return g._cut
    n = g.n
    csr = g.to_csr()
    # every arc has its reverse, so the directed search skips a symmetrising copy
    order, parent = csgraph.depth_first_order(csr, 0, directed=True, return_predecessors=True)
    if order.size < n:
        raise ValueError("graph is disconnected: unreachable pair encountered")
    pre = np.empty(n, dtype=np.int32)
    pre[order] = np.arange(n, dtype=np.int32)
    # the lowest preorder number among each node and its neighbours; the
    # tree parent counts too, which leaves the test low[v] >= pre[parent] intact
    low = np.minimum(pre, np.minimum.reduceat(pre[csr.indices], csr.indptr[:-1])).tolist()
    size = [1] * n
    par = parent.tolist()
    for v in order[:0:-1].tolist():
        p = par[v]
        size[p] += size[v]
        if low[v] < low[p]:
            low[p] = low[v]
    size = np.array(size, dtype=np.int64)
    child = order[1:]
    opens = np.zeros(n, dtype=bool)
    opens[child] = np.array(low)[child] >= pre[parent[child]]
    # the block of the tree arc into v, named by the node whose arc opens
    # it: v's own if it opens one, else its parent's
    lab = list(range(n))
    for v, o in zip(child.tolist(), opens[child].tolist()):
        if not o:
            lab[v] = lab[par[v]]
    label = np.array(lab, dtype=np.int64)
    # a subtree is a run of the order: its volume is a difference of prefix sums
    vol = g.degrees().astype(np.int64) + 1
    prefix = np.concatenate(([0], np.cumsum(vol[order])))
    subtree_vol = prefix[pre + size] - prefix[pre]
    # a member below its block's top reaches it with itself and the
    # subtrees of the blocks it tops; the top gets all nodes outside the block
    first = np.flatnonzero(opens)
    hang, hang_vol = np.ones(n, dtype=np.int64), vol.copy()
    np.add.at(hang, parent[first], size[first])
    np.add.at(hang_vol, parent[first], subtree_vol[first])
    block = np.concatenate((label[child], first))
    node = np.concatenate((child, parent[first]))
    weight = np.concatenate((hang[child], n - size[first]))
    volume = np.concatenate((hang_vol[child], prefix[-1] - subtree_vol[first]))
    top = np.arange(block.size) >= child.size
    # rename the blocks 0, 1, ... in ascending order of size; the nodes
    # that name no block (size 0) take the names below 0
    count = np.bincount(block, minlength=n)
    name = np.empty(n, dtype=np.int64)
    name[np.argsort(count, kind="stable")] = np.arange(n) - np.count_nonzero(count == 0)
    key = name[block] * n + node
    rank = np.argsort(key)
    pairs = int(np.count_nonzero(count == 2))
    inner = key[rank[2 * pairs:]]
    # every edge joins a node to an ancestor; it lies in the block of the
    # tree arc into the deeper end, the one later in the order
    arc = name[label[order]]
    rows, cols = [], []
    for u, v in _edge_slices(g):
        b = arc[np.maximum(pre[u], pre[v])]
        keep = b >= pairs
        offset = b[keep] * n
        rows.append(np.searchsorted(inner, u[keep] + offset).astype(np.int32))
        cols.append(np.searchsorted(inner, v[keep] + offset).astype(np.int32))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    indptr = np.zeros(inner.size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=inner.size), out=indptr[1:])
    starts = np.searchsorted(inner, np.arange(pairs, np.count_nonzero(count) + 1) * n)
    g._cut = _BlockCut(name[block[rank]], node[rank], weight[rank], volume[rank], top[rank],
                       pairs, starts, indptr, cols[np.argsort(rows, kind="stable")])
    return g._cut


def average_clustering(g: Graph) -> float:
    """Mean local clustering coefficient; nodes of degree < 2 contribute 0.

    t_i = ((A @ A) * A) summed over row i counts twice the edges among the
    neighbours of i.  Up to ``_SMALL_MAX_N`` nodes it comes from the dense
    adjacency, where scipy's sparse product costs more than the arithmetic;
    above it from the sparse one, a slice of rows at a time.  The counts are
    integers, so both give the same float.
    """
    if g.n == 0:
        raise ValueError("clustering undefined on the empty graph")
    if g.edge_count == 0:
        return 0.0
    deg = g.degrees().astype(np.float64)
    if g.n <= _SMALL_MAX_N:
        a = g.to_dense()
        t = ((a @ a) * a).sum(axis=1)
    else:
        a = g.to_csr()
        # A group of s nodes has s**2 paths of length two, so the rows go in
        # slices whose paths reach about _CLUSTERING_ENTRIES nodes in all; a
        # row's paths reach at most n
        cuts = [0, g.n]
        if g.n * g.n > _CLUSTERING_ENTRIES:
            reach = np.concatenate(([0.0], np.cumsum(np.minimum(a @ deg, g.n))))
            cuts = _row_slices(reach, _CLUSTERING_ENTRIES)
        t = np.empty(g.n)
        for lo, hi in zip(cuts, cuts[1:]):
            rows = a if hi - lo == g.n else a[lo:hi]
            t[lo:hi] = np.asarray((rows @ a).multiply(rows).sum(axis=1)).ravel()
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
        groups = tuple(tuple(grp) for grp in payload["groups"])
        liaisons = tuple(payload["liaisons"])
        seed = payload.get("seed")
        # exact type: int() would truncate a float, and JSON true loads as a bool
        for name, values in (("n", [payload["n"]]), ("seed", [] if seed is None else [seed]),
                             ("each group member", [x for grp in groups for x in grp]),
                             ("each liaison", liaisons)):
            bad = [x for x in values if type(x) is not int]
            if bad:
                raise ValueError(f"{name} must be an integer, got {bad[0]!r}")
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in payload["edges"]))
        return cls(
            n=payload["n"],
            edges=edges,
            groups=groups,
            liaisons=liaisons,
            modality=str(payload["modality"]),
            seed=seed,
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
