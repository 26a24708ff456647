"""Generators for the four inter-group connectivity modalities.

Every modality starts from the same scaffold: heavy-tailed subgroup
sizes, one dense connectivity-conditioned Erdos-Renyi block per
subgroup, and (except for the liaison hierarchy) a uniformly random
spanning tree over the subgroups that dictates which pairs of groups
get wired.  The modalities differ only in how a tree edge is realized:

* ``bridge`` - exactly one cross edge between uniformly chosen members;
* ``edge_bundle`` - at least two distinct cross edges, their count
  scaling with the product of the group sizes;
* ``comembership`` - one member of one group wired to almost all
  members of the other, becoming a member of both;
* ``liaison`` - no direct group-to-group edges at all; extra liaison
  nodes recursively join 2-3 subgroups or lower liaisons up to a root.

Generation is a pure function of ``(modality, n, params, seed)``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .graphs import Graph, GraphDocument
from .partition import (
    PowerLawSpec,
    SaturationError,
    SizeSequence,
    fixed_sum_realizations,
    power_law_pmf,
    sample_group_sizes,
)

__all__ = [
    "MODALITIES",
    "ModalityParams",
    "GroupTree",
    "MultiGroupGraph",
    "GenerationError",
    "er_block",
    "uniform_spanning_tree",
    "bundle_edge_count",
    "gen_bridge",
    "gen_edge_bundle",
    "gen_comembership",
    "gen_liaison",
    "generate",
]

MODALITIES = ("bridge", "edge_bundle", "comembership", "liaison")

# Stable codes feed the per-modality random stream derivation.
_MODALITY_CODES = {"bridge": 1, "edge_bundle": 2, "comembership": 3, "liaison": 4}

_MAX_BLOCK_ATTEMPTS = 1000
_MAX_PARTITION_ATTEMPTS = 1000
_MAX_INCLUSION_ATTEMPTS = 10000
# node pairs drawn at once in a block, and edges per union-find chunk
_PAIR_CHUNK = 1 << 16
_UNION_CHUNK = 1 << 12


class GenerationError(RuntimeError):
    """A generator exhausted its rejection-sampling budget."""


def _default_branching_pmf() -> dict[int, float]:
    return power_law_pmf(PowerLawSpec(support_max=3, support_min=2))


@dataclass(frozen=True)
class ModalityParams:
    """Knobs shared by the four generators.

    ``epsilon`` is the intra-block edge *absence* probability (blocks are
    G(s, 1-epsilon)); ``bundle_scale`` multiplies ``s_i*s_j`` to size edge
    bundles; ``comember_inclusion`` is the probability, in (0, 1], that a
    co-member links to each member of its adopted group (defaults to
    1-epsilon, which is 1.0 in floating point for epsilon below about
    1.1e-16); ``branching_pmf`` drives the liaison branching factors.
    """

    epsilon: float = 0.1
    bundle_scale: float = 0.05
    comember_inclusion: float | None = None
    branching_pmf: dict[int, float] = field(default_factory=_default_branching_pmf)

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not 0.0 < self.bundle_scale < math.inf:
            raise ValueError(f"bundle_scale must be positive and finite, got {self.bundle_scale}")
        if self.comember_inclusion is None:
            object.__setattr__(self, "comember_inclusion", 1.0 - self.epsilon)
        if not 0.0 < self.comember_inclusion <= 1.0:
            raise ValueError(
                f"comember_inclusion must lie in (0,1], got {self.comember_inclusion}"
            )
        weights = list(self.branching_pmf.values())
        if not all(0.0 <= w < math.inf for w in weights) or not sum(weights) > 0.0:
            raise ValueError(
                "branching_pmf weights must be finite and nonnegative with positive sum, "
                f"got {self.branching_pmf}"
            )
        if min(self.branching_pmf) < 2:
            raise ValueError("branching factors below 2 are not meaningful")


@dataclass(frozen=True)
class GroupTree:
    """Spanning tree over group indices ``0..group_count-1``."""

    group_count: int
    tree_edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        k = self.group_count
        if k < 1:
            raise ValueError("group_count must be at least 1")
        if len(self.tree_edges) != k - 1:
            raise ValueError(f"a tree on {k} groups needs {k - 1} edges")
        for i, j in self.tree_edges:
            if not (0 <= i < k and 0 <= j < k) or i == j:
                raise ValueError(f"invalid tree edge ({i}, {j})")
        # k - 1 edges span k groups exactly when they form no cycle
        e = np.array(list(self.tree_edges), dtype=np.int64).reshape(-1, 2)
        if not _connected(k, e[:, 0], e[:, 1]):
            raise ValueError("tree edges contain a cycle")

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.tree_edges)


@dataclass(frozen=True)
class MultiGroupGraph:
    """A generated graph together with its group structure.

    ``groups`` holds the home partition (contiguous node ranges, one per
    subgroup); ``extra_memberships`` records co-members added on top of
    it; ``liaison_nodes`` lists nodes that belong to no group at all.
    """

    graph: Graph
    groups: tuple[tuple[int, ...], ...]
    group_sizes: SizeSequence
    tree: GroupTree | None
    liaison_nodes: tuple[int, ...]
    modality: str
    seed: int | None = None
    extra_memberships: tuple[tuple[int, int], ...] = ()

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def n_actual(self) -> int:
        return self.graph.n

    def membership(self) -> dict[int, frozenset[int]]:
        """Node -> set of group indices; liaisons map to the empty set."""
        out: dict[int, set[int]] = {v: set() for v in range(self.graph.n)}
        for gi, members in enumerate(self.groups):
            for v in members:
                out[v].add(gi)
        for v, gi in self.extra_memberships:
            out[v].add(gi)
        return {v: frozenset(s) for v, s in out.items()}

    def to_document(self) -> GraphDocument:
        member_lists = [list(grp) for grp in self.groups]
        for v, gi in self.extra_memberships:
            member_lists[gi].append(v)
        return GraphDocument(
            n=self.graph.n,
            edges=tuple(map(tuple, self.graph.edges.tolist())),
            groups=tuple(tuple(sorted(m)) for m in member_lists),
            liaisons=tuple(sorted(self.liaison_nodes)),
            modality=self.modality,
            seed=self.seed,
        )


def _connected(size: int, us: np.ndarray, vs: np.ndarray) -> bool:
    # a union-find: on the small blocks of the rejection loop it costs a tenth
    # or less of building a CSR for csgraph.connected_components
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    remaining = size - 1
    # a dense block connects within its first few chunks of edges, so the
    # rest is never turned into Python ints
    for lo in range(0, len(us), _UNION_CHUNK):
        hi = lo + _UNION_CHUNK
        for u, v in zip(us[lo:hi].tolist(), vs[lo:hi].tolist()):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                remaining -= 1
                if remaining == 0:
                    return True
    return remaining == 0


def _er_block_edges(size: int, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """int32 edge array of a connectivity-conditioned G(size, 1-epsilon) block."""
    if size == 1:
        return np.empty((0, 2), dtype=np.int32)
    # the pairs (i, j), i < j, in row-major order; pair f of row i is
    # (i, i + 1 + f - start[i]).  They are drawn a chunk of pairs at a time,
    # which takes the same random stream as one draw over all of them but
    # builds no size-squared index array
    rows = np.arange(size, dtype=np.int64)
    start = rows * (2 * size - rows - 1) // 2
    pairs = int(start[-1])
    for _ in range(_MAX_BLOCK_ATTEMPTS):
        parts = []
        for lo in range(0, pairs, _PAIR_CHUNK):
            f = np.flatnonzero(rng.random(min(_PAIR_CHUNK, pairs - lo)) < 1.0 - epsilon) + lo
            i = np.searchsorted(start, f, side="right") - 1
            parts.append(np.column_stack((i, f - start[i] + i + 1)).astype(np.int32))
        e = np.concatenate(parts)
        if _connected(size, e[:, 0], e[:, 1]):
            return e
    raise GenerationError(
        f"no connected block of size {size} within {_MAX_BLOCK_ATTEMPTS} attempts"
    )


def er_block(size: int, epsilon: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi block G(size, 1-epsilon) conditioned on connectivity.

    Rejection sampling; with epsilon well below the connectivity
    threshold ln(size)/size the budget is never a concern in practice.
    """
    if size < 1:
        raise ValueError("block size must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    return Graph(size, _er_block_edges(size, epsilon, rng))


def uniform_spanning_tree(k: int, rng: np.random.Generator) -> GroupTree:
    """Tree drawn uniformly over all k**(k-2) labeled trees (Prufer decoding)."""
    if k < 1:
        raise ValueError("need at least one group")
    if k == 1:
        return GroupTree(1, frozenset())
    if k == 2:
        return GroupTree(2, frozenset({(0, 1)}))
    seq = rng.integers(0, k, size=k - 2)
    degree = np.ones(k, dtype=np.int64)
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(k) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq.tolist():
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return GroupTree(k, frozenset(edges))


def bundle_edge_count(s_i: int, s_j: int, bundle_scale: float) -> int:
    """Cross-edge count for an edge bundle between groups of sizes s_i, s_j.

    At least 2, scaling with ``s_i*s_j``, capped at the bipartite slot count.
    """
    slots = s_i * s_j
    # capped before rounding: the product overflows to inf for a huge scale
    return int(min(slots, max(2, round(min(bundle_scale * s_i * s_j, slots)))))


def _scaffold(
    n: int,
    params: ModalityParams,
    rng: np.random.Generator,
    size_spec: PowerLawSpec | None,
):
    """Shared first phase: sizes, per-group node ranges, block edge arrays."""
    seq = sample_group_sizes(n, rng, size_spec)
    groups: list[tuple[int, ...]] = []
    edges: list[np.ndarray] = []
    offset = 0
    for s in seq.sizes:
        block = _er_block_edges(s, params.epsilon, rng)
        block += offset
        edges.append(block)
        groups.append(tuple(range(offset, offset + s)))
        offset += s
    return seq, tuple(groups), edges


def _concat(parts: list) -> np.ndarray:
    """One int32 ``(m, 2)`` edge array from edge arrays and lists of pairs.

    Empties ``parts``, so that the pieces are freed before the graph is built.
    """
    arrays = [p if isinstance(p, np.ndarray) else np.asarray(p, dtype=np.int64) for p in parts]
    parts.clear()
    return np.concatenate([a.reshape(-1, 2) for a in arrays], dtype=np.int32)


def _draw_anchors(
    groups: tuple[tuple[int, ...], ...],
    tree: GroupTree,
    rng: np.random.Generator,
) -> dict[tuple[int, int], tuple[int, int]]:
    """One uniformly chosen (member_i, member_j) index pair per tree edge.

    Drawing all anchors before any bundle extras keeps the bridge
    realization an exact edge-subset of the bundle realization for the
    same random stream.
    """
    anchors = {}
    for i, j in tree.sorted_edges():
        ui = int(rng.integers(len(groups[i])))
        vj = int(rng.integers(len(groups[j])))
        anchors[(i, j)] = (ui, vj)
    return anchors


def gen_bridge(
    n: int,
    params: ModalityParams,
    rng: np.random.Generator,
    size_spec: PowerLawSpec | None = None,
) -> MultiGroupGraph:
    """Subgroups joined by exactly one cross edge per spanning-tree edge."""
    seq, groups, edges = _scaffold(n, params, rng, size_spec)
    tree = uniform_spanning_tree(len(seq), rng)
    anchors = _draw_anchors(groups, tree, rng)
    edges.append([(groups[i][ui], groups[j][vj]) for (i, j), (ui, vj) in anchors.items()])
    return MultiGroupGraph(
        graph=Graph(n, _concat(edges)),
        groups=groups,
        group_sizes=seq,
        tree=tree,
        liaison_nodes=(),
        modality="bridge",
    )


def gen_edge_bundle(
    n: int,
    params: ModalityParams,
    rng: np.random.Generator,
    size_spec: PowerLawSpec | None = None,
) -> MultiGroupGraph:
    """Subgroups joined by bundles of >= 2 distinct cross edges per tree edge."""
    seq, groups, edges = _scaffold(n, params, rng, size_spec)
    tree = uniform_spanning_tree(len(seq), rng)
    anchors = _draw_anchors(groups, tree, rng)
    for (i, j), (ui, vj) in anchors.items():
        si, sj = len(groups[i]), len(groups[j])
        alpha = bundle_edge_count(si, sj, params.bundle_scale)
        # slot f of the si-by-sj bipartite grid joins members f // sj and f % sj
        pool = np.delete(np.arange(si * sj, dtype=np.int64), ui * sj + vj)
        chosen = np.append(ui * sj + vj, rng.choice(pool, size=alpha - 1, replace=False))
        edges.append(np.column_stack((groups[i][0] + chosen // sj, groups[j][0] + chosen % sj)))
    return MultiGroupGraph(
        graph=Graph(n, _concat(edges)),
        groups=groups,
        group_sizes=seq,
        tree=tree,
        liaison_nodes=(),
        modality="edge_bundle",
    )


def gen_comembership(
    n: int,
    params: ModalityParams,
    rng: np.random.Generator,
    size_spec: PowerLawSpec | None = None,
) -> MultiGroupGraph:
    """Subgroups joined by co-members: per tree edge, one member of one
    group is wired to almost all members of the other and joins it."""
    seq, groups, edges = _scaffold(n, params, rng, size_spec)
    tree = uniform_spanning_tree(len(seq), rng)
    extra: list[tuple[int, int]] = []
    for i, j in tree.sorted_edges():
        src, tgt = (i, j) if int(rng.integers(2)) == 0 else (j, i)
        v = groups[src][int(rng.integers(len(groups[src])))]
        members = np.asarray(groups[tgt], dtype=np.int64)
        for _ in range(_MAX_INCLUSION_ATTEMPTS):
            mask = rng.random(members.shape[0]) < params.comember_inclusion
            if int(mask.sum()) >= 3:
                break
        else:
            raise GenerationError(
                f"could not draw >= 3 inclusion edges into a group of size {len(members)}"
            )
        edges.append(np.column_stack((np.full(int(mask.sum()), v), members[mask])))
        extra.append((v, tgt))
    return MultiGroupGraph(
        graph=Graph(n, _concat(edges)),
        groups=groups,
        group_sizes=seq,
        tree=tree,
        liaison_nodes=(),
        modality="comembership",
        extra_memberships=tuple(extra),
    )


def _partition_layer(
    pmf: dict[int, float], count: int, rng: np.random.Generator
) -> list[int]:
    """Cell sizes for one hierarchy layer; retries greedy draws that saturate."""
    for _ in range(_MAX_PARTITION_ATTEMPTS):
        try:
            return list(fixed_sum_realizations(pmf, count, rng).sizes)
        except SaturationError:
            continue
    raise GenerationError(f"could not partition a layer of {count} units")


def gen_liaison(
    n: int,
    params: ModalityParams,
    rng: np.random.Generator,
    size_spec: PowerLawSpec | None = None,
) -> MultiGroupGraph:
    """Subgroups joined only through a recursive hierarchy of liaison nodes.

    Liaisons are extra nodes beyond the ``n`` group members: each one
    adopts 2-3 unattended subgroups (contacting one uniformly chosen
    member each) or, on higher layers, 2-3 unattended liaisons, until a
    single root remains.
    """
    seq, groups, edges = _scaffold(n, params, rng, size_spec)
    k = len(seq)
    liaisons: list[int] = []
    liaison_edges: list[tuple[int, int]] = []
    next_node = n
    layer: list[tuple[str, int]] = [("group", gi) for gi in range(k)]
    while len(layer) > 1:
        cells = _partition_layer(params.branching_pmf, len(layer), rng)
        new_layer: list[tuple[str, int]] = []
        pos = 0
        for size in cells:
            lid = next_node
            next_node += 1
            liaisons.append(lid)
            for kind, ref in layer[pos : pos + size]:
                if kind == "group":
                    contact = groups[ref][int(rng.integers(len(groups[ref])))]
                    liaison_edges.append((lid, contact))
                else:
                    liaison_edges.append((lid, ref))
            pos += size
            new_layer.append(("liaison", lid))
        layer = new_layer
    edges.append(liaison_edges)
    return MultiGroupGraph(
        graph=Graph(next_node, _concat(edges)),
        groups=groups,
        group_sizes=seq,
        tree=None,
        liaison_nodes=tuple(liaisons),
        modality="liaison",
    )


_GENERATORS: dict[str, Callable[..., MultiGroupGraph]] = {
    "bridge": gen_bridge,
    "edge_bundle": gen_edge_bundle,
    "comembership": gen_comembership,
    "liaison": gen_liaison,
}


def modality_rng(seed: int, modality: str, n: int) -> np.random.Generator:
    """Dedicated random stream for one (seed, modality, n) combination."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    code = _MODALITY_CODES[modality]
    return np.random.default_rng(np.random.SeedSequence([int(seed), code, int(n)]))


def generate(
    modality: str,
    n: int,
    params: ModalityParams | None = None,
    seed: int = 0,
) -> MultiGroupGraph:
    """Generate one multi-group graph; deterministic in all arguments."""
    if modality not in _GENERATORS:
        raise ValueError(f"unknown modality {modality!r}; expected one of {MODALITIES}")
    params = params if params is not None else ModalityParams()
    rng = modality_rng(seed, modality, n)
    mg = _GENERATORS[modality](n, params, rng)
    return replace(mg, seed=int(seed))
