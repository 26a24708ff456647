"""Simple undirected graphs and the structural metrics used for comparisons.

Graphs are immutable once built: nodes are ``0..n-1``, edges are
unordered pairs with no self-loops or duplicates.  A graph holds the
pattern of its sparse adjacency (row pointers and sorted column indices);
its edge array and its CSR matrix are read from that, and every metric
runs on them.  The memory of a metric on a graph of a few dense groups
follows the graph's edge count, so the passes over all edges go a slice
of rows at a time and keep no temporary as large as the graph.

Above ``_SMALL_MAX_N`` nodes, path length and clustering work on the
biconnected blocks (``_blocks``).  The blocks of more than two members
go in stacks of dense float32 arrays of one padded size (``_stacks``),
and one product A_B A_B per block (``_block_squares``) counts every
triangle and certifies the blocks of diameter 2, whose distance sums
have a closed form; only the blocks left uncertified are searched.
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
# the dense blocks of _stacks are padded to a multiple of _STACK_PAD rows,
# about _STACK_CELLS entries a stack; a larger block is a stack of its own,
# which _block_squares multiplies about _STACK_CELLS entries at a time
_STACK_PAD = 8
_STACK_CELLS = 1 << 18
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

    __slots__ = ("n", "_indptr", "_indices", "_csr", "_cut", "_squares")

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
        self._squares = None

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
    lists the blocks of two nodes first, with d = 1.  A larger block whose
    non-adjacent members all share a neighbour, as ``_block_squares``
    certifies from the square of its adjacency, has diameter 2, so

        W_B = 2 [(sum w)^2 - sum w^2] - w^T A_B w,

    an integer ``_block_squares`` sums.  The blocks left uncertified get
    their distances from their block-diagonal adjacency, in batches of
    whole blocks of about ``_ASP_BATCH_NODES`` rows, a slice of sources at
    a time.  No n-by-n array is allocated, nor a square one larger than a
    block's dense adjacency, and the integer sum gives the same float as
    the dense path.
    """
    if g.n < 2:
        raise ValueError("average shortest path needs at least 2 nodes")
    if g.n <= _SMALL_MAX_N:
        # the CSR is symmetric, so the directed search gives the same
        # distances without scipy's symmetrising copy (50 rather than 102 us
        # a call on a 10-node graph)
        dist = csgraph.shortest_path(g.to_csr(), method="D", unweighted=True, directed=True)
        if np.isinf(dist).any():
            raise ValueError("graph is disconnected: unreachable pair encountered")
        return float(dist.sum() / (g.n * (g.n - 1)))
    cut = _blocks(g)
    two = 2 * cut.pairs
    # the two members of each 2-node block are adjacent
    total = 2 * int(cut.weight[:two].reshape(-1, 2).prod(axis=1).sum())
    squares = _block_squares(g)
    total += squares.wiener
    # the uncertified blocks as one block-diagonal adjacency: row i of it
    # is row i + shift[i] of _blocks' adjacency
    size = np.diff(cut.starts)
    left = np.flatnonzero(~squares.certified)
    starts = np.concatenate(([0], np.cumsum(size[left])))
    shift = np.repeat(cut.starts[left] - starts[:-1], size[left])
    rows = np.arange(starts[-1]) + shift
    degree = cut.indptr[rows + 1] - cut.indptr[rows]
    indptr = np.concatenate(([0], np.cumsum(degree)))
    indices = cut.indices[np.arange(indptr[-1]) + np.repeat(cut.indptr[rows] - indptr[:-1], degree)]
    indices -= np.repeat(shift, degree)
    weight = cut.weight[two + rows]
    # unit weights: the same distances as an unweighted search, without
    # the unit weights it would allocate on every call
    ones = np.ones(indices.size)
    # the rows go in batches of whole blocks, about _ASP_BATCH_NODES rows
    # each; a batch's sources go in slices of at most _ASP_DIST_CELLS
    # distances, so a giant block never takes a square distance matrix
    cuts = starts[_row_slices(starts, _ASP_BATCH_NODES)].tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        p, q = indptr[lo], indptr[hi]
        # each edge once: the search reads it as undirected
        adj = sp.csr_matrix((ones[p:q], indices[p:q] - lo, indptr[lo:hi + 1] - p),
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


def _stacks(cut: _BlockCut, ground: int = 0):
    """The blocks of ``cut`` of more than two members, in stacks of dense
    blocks of one padded size.

    A block's rows, less its first ``ground`` members, are padded to a
    multiple of ``_STACK_PAD``.  The blocks come in ascending order of
    size, so those of one padded size are one run of rows and edges of the
    adjacency; a stack is a slice of that run of about ``_STACK_CELLS``
    padded entries, and a block of more is a stack of its own.  Yields, for
    each stack, the slice of ``cut``'s member entries it holds; for its
    rows i, counted from the first, block t[i] of the stack and row loc[i]
    of that block's padded array, below 0 for the dropped members; its
    edges as int32 row pairs ``src, dst``; and the padded size.
    """
    starts, indptr, indices = cut.starts, cut.indptr, cut.indices
    pad = -(-(np.diff(starts) - ground) // _STACK_PAD) * _STACK_PAD
    cells = np.concatenate(([0], np.cumsum(pad * pad)))
    cuts = np.union1d(_row_slices(cells, _STACK_CELLS), np.flatnonzero(np.diff(pad)) + 1)
    two = 2 * cut.pairs
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        a, b = int(starts[lo]), int(starts[hi])
        t = np.repeat(np.arange(hi - lo), np.diff(starts[lo:hi + 1]))
        loc = np.arange(a, b) - starts[lo:hi][t] - ground
        src = np.repeat(np.arange(b - a, dtype=np.int32), np.diff(indptr[a:b + 1]))
        dst = indices[indptr[a]:indptr[b]] - a
        yield slice(two + a, two + b), t, loc, src, dst, int(pad[lo])


class _Squares(NamedTuple):
    """What the squares of the dense block adjacencies give, for
    ``average_clustering`` and ``average_shortest_path``."""

    # t_i of average_clustering, per node
    triangles: np.ndarray
    # per block of more than two members, in _blocks' order: every pair of
    # non-adjacent members shares a neighbour
    certified: np.ndarray
    # sum of W_B over the certified blocks (see average_shortest_path)
    wiener: int


def _block_squares(g: Graph) -> _Squares:
    """Triangle counts and diameter-2 certificates of a connected graph of
    n >= 2, from one product A_B A_B per larger biconnected block.

    A triangle is 2-connected, so it lies inside one block: t_i sums
    ((A_B A_B) * A_B) over row i of each block holding i.  The stacks of
    ``_stacks`` are multiplied in float32, exactly, since every partial
    sum counts common neighbours and stays below 2**24; the rows are
    reduced in float64.  A block is certified when every row of
    A_B A_B + A_B is nonzero in all of the block's columns.  A stack's
    product goes a slice of about ``_STACK_CELLS`` entries of rows at a
    time and its edges ``_EDGE_SLICE`` at a time, so a giant block holds
    its dense adjacency and little else.  The result is kept on the graph.
    """
    if g._squares is not None:
        return g._squares
    cut = _blocks(g)
    counts = np.zeros(cut.node.size)
    certified, wiener = [], 0
    for rows, t, loc, src, dst, m in _stacks(cut):
        k = int(t[-1]) + 1
        adj = np.zeros((k, m, m), dtype=np.float32)
        flat = adj.reshape(-1)
        at = (t * m + loc) * m
        w = cut.weight[rows]
        # half of w^T A_B w: w_x w_y summed over the block's edges, each once
        pair = np.zeros(k, dtype=np.int64)
        for e in range(0, src.size, _EDGE_SLICE):
            s, d = src[e:e + _EDGE_SLICE], dst[e:e + _EDGE_SLICE]
            flat[at[s] + loc[d]] = flat[at[d] + loc[s]] = 1.0
            np.add.at(pair, t[s], w[s] * w[d])
        tri = np.empty((k, m))
        cover = np.empty((k, m), dtype=np.int64)
        step = max(1, _STACK_CELLS // (k * m))
        for r in range(0, m, step):
            part = np.s_[:, r:r + step]
            square = adj[part] @ adj
            tri[part] = (square * adj[part]).sum(axis=-1, dtype=np.float64)
            square += adj[part]
            cover[part] = np.count_nonzero(square, axis=-1)
        del adj, flat
        counts[rows] = tri[t, loc]
        size = np.bincount(t)
        ok = np.bincount(t, weights=cover[t, loc] < size[t], minlength=k) == 0
        first = np.flatnonzero(loc == 0)
        total, total2 = np.add.reduceat(w, first), np.add.reduceat(w * w, first)
        wiener += 2 * int((total * total - total2 - pair)[ok].sum())
        certified.append(ok)
    g._squares = _Squares(np.bincount(cut.node, weights=counts, minlength=g.n),
                          np.concatenate([np.zeros(0, dtype=bool)] + certified), wiener)
    return g._squares


def average_clustering(g: Graph) -> float:
    """Mean local clustering coefficient; nodes of degree < 2 contribute 0.

    t_i = ((A @ A) * A) summed over row i counts twice the edges among the
    neighbours of i.  Up to ``_SMALL_MAX_N`` nodes it comes from the dense
    adjacency, where a call per block costs more than the arithmetic; above
    it from the dense blocks of ``_block_squares``, which a disconnected
    graph reaches joined into one.  The counts are integers, so both give
    the same float.
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
        try:
            t = _block_squares(g).triangles
        except ValueError:  # _blocks refuses a disconnected graph
            # one more node joined to each component by a bridge adds blocks
            # of two members alone, which hold no triangle
            roots = np.unique(csgraph.connected_components(g.to_csr())[1], return_index=True)[1]
            links = np.column_stack((roots, np.full(roots.size, g.n)))
            t = _block_squares(Graph(g.n + 1, np.concatenate((g.edges, links)))).triangles[:-1]
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
        if type(payload) is not dict:
            raise ValueError(f"graph document must be a JSON object, got {payload!r}")
        missing = [key for key in ("n", "edges", "groups", "liaisons", "modality")
                   if key not in payload]
        if missing:
            raise ValueError(f"graph document is missing required keys: {missing}")
        if type(payload["modality"]) is not str:
            raise ValueError(f"modality must be a string, got {payload['modality']!r}")
        # the shapes the tuples below read; the member types are checked after
        for name, shape, fits in (
            ("groups", "a list of lists", lambda x: isinstance(x, list)),
            ("edges", "a list of [u, v] pairs", lambda x: isinstance(x, list) and len(x) == 2),
            ("liaisons", "a list", lambda x: True),
        ):
            value = payload[name]
            bad = [x for x in value if not fits(x)] if isinstance(value, list) else [value]
            if bad:
                raise ValueError(f"{name} must be {shape}, got {bad[0]!r}")
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
            modality=payload["modality"],
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
