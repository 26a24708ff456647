import tracemalloc
from collections import deque

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from groupnets import graphs
from groupnets.dynamics import NoiseModel
from groupnets.experiments import measure
from groupnets.graphs import (
    Graph,
    GraphDocument,
    average_clustering,
    average_shortest_path,
    degree_histogram,
    is_connected,
    read_edge_list,
    write_edge_list,
)


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def bfs_distances(g, source):
    """Unweighted hop distances from ``source``; -1 marks unreachable nodes.

    A queue over adjacency lists read from ``g.edges``, apart from the CSR
    the library metrics use.
    """
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def dijkstra_asp(g):
    """average_shortest_path through the full distance matrix, at any n."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_SMALL_MAX_N", g.n)
        return average_shortest_path(g)


def dense_clustering(g):
    """average_clustering through the dense adjacency, at any n."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_SMALL_MAX_N", g.n)
        return average_clustering(g)


def block_cut_asp(g):
    """average_shortest_path through the biconnected blocks, at any n."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_SMALL_MAX_N", 0)
        return average_shortest_path(g)


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])  # duplicates collapse
    assert g.edge_count == 1
    assert g.edges.tolist() == [[0, 1]]
    assert g.edges.dtype == np.int64
    assert not g.edges.flags.writeable


def test_connectivity():
    assert is_connected(Graph(2, [(0, 1)]))
    assert not is_connected(Graph(2, []))
    assert is_connected(Graph(1, []))
    with pytest.raises(ValueError):
        is_connected(Graph(0, []))


def test_average_shortest_path_cliques_and_paths():
    assert average_shortest_path(complete(5)) == pytest.approx(1.0, abs=1e-12)
    path3 = Graph(3, [(0, 1), (1, 2)])
    assert average_shortest_path(path3) == pytest.approx(4 / 3, abs=1e-12)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert average_shortest_path(star) == pytest.approx(1.5, abs=1e-12)


def test_average_shortest_path_errors():
    with pytest.raises(ValueError):
        average_shortest_path(Graph(2, []))
    with pytest.raises(ValueError):
        average_shortest_path(Graph(1, []))


def test_clustering():
    triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert average_clustering(triangle) == pytest.approx(1.0, abs=1e-12)
    path3 = Graph(3, [(0, 1), (1, 2)])
    assert average_clustering(path3) == 0.0
    # K4 minus one edge: coefficients (2/3, 2/3, 1, 1)
    k4m = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert average_clustering(k4m) == pytest.approx(5 / 6, abs=1e-12)


def test_degree_histogram():
    assert degree_histogram(complete(5)) == {4: 5}
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert degree_histogram(star) == {1: 3, 3: 1}


def test_structural_summary_k5_and_path():
    # the structural fields that measure reports, on K5 and the path P3
    s = measure(complete(5), NoiseModel(1.0), with_delta=False)
    assert s["density"] == pytest.approx(1.0)
    assert s["avg_degree"] == pytest.approx(4.0)
    assert s["avg_shortest_path"] == pytest.approx(1.0)
    assert s["clustering"] == pytest.approx(1.0)
    p = measure(Graph(3, [(0, 1), (1, 2)]), NoiseModel(1.0), with_delta=False)
    assert p["density"] == pytest.approx(2 / 3)
    assert p["avg_degree"] == pytest.approx(4 / 3)
    assert p["avg_shortest_path"] == pytest.approx(4 / 3)
    assert p["clustering"] == 0.0


def test_handshake_and_ranges():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(5, 40))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.2
        ]
        g = Graph(n, edges)
        hist = degree_histogram(g)
        assert sum(hist.values()) == n
        assert sum(k * v for k, v in hist.items()) == 2 * g.edge_count
        assert 0.0 <= average_clustering(g) <= 1.0


def test_bfs_symmetry():
    rng = np.random.default_rng(5)
    n = 25
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15]
    g = Graph(n, edges)
    dist = np.array([bfs_distances(g, s) for s in range(n)])
    assert (dist == dist.T).all()
    ref = csgraph.shortest_path(g.to_csr(), unweighted=True, directed=False)
    assert (dist == np.where(np.isinf(ref), -1, ref)).all()


def test_edge_list_roundtrip(tmp_path):
    g = Graph(5, [(0, 1), (2, 4), (1, 3)])
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    text = path.read_text()
    assert text.startswith("# nodes 5\n")
    assert text.endswith("\n")
    back = read_edge_list(path)
    assert back.n == 5
    assert np.array_equal(back.edges, g.edges)


def test_edge_list_bad_header(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("nodes 5\n0 1\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_graph_document_roundtrip(tmp_path):
    doc = GraphDocument(
        n=6,
        edges=((0, 1), (1, 2), (3, 4), (4, 5), (2, 3)),
        groups=((0, 1, 2), (3, 4, 5)),
        liaisons=(),
        modality="bridge",
        seed=9,
    )
    path = tmp_path / "g.json"
    doc.write(path)
    back = GraphDocument.read(path)
    assert back.n == doc.n
    assert sorted(back.edges) == sorted(doc.edges)
    assert back.groups == doc.groups
    assert back.modality == "bridge"
    assert back.seed == 9
    # canonical serialization is stable
    assert back.to_json_text() == GraphDocument.from_json_text(back.to_json_text()).to_json_text()


def test_graph_document_to_dot():
    doc = GraphDocument(
        n=4,
        edges=((0, 1), (2, 3), (1, 3)),
        groups=((0, 1), (2,)),
        liaisons=(3,),
        modality="liaison",
        seed=None,
    )
    dot = doc.to_dot()
    assert "subgraph cluster_0" in dot
    assert "3 [shape=square];" in dot
    assert "0 -- 1;" in dot


def test_clique_average_path_is_one():
    for n in range(2, 7):
        assert average_shortest_path(complete(n)) == pytest.approx(1.0, abs=1e-12)


def test_block_union_degree_histogram_heavy_tail():
    # a disconnected union of power-law-sized dense blocks shows a
    # monotone decreasing degree tail beyond the mode
    from collections import Counter

    from groupnets.generators import er_block
    from groupnets.partition import sample_group_sizes

    rng = np.random.default_rng(17)
    counts = Counter()
    for _ in range(30):
        seq = sample_group_sizes(1000, rng)
        offset = 0
        edges = []
        for s in seq.sizes:
            block = er_block(s, 0.1, rng)
            edges.extend((u + offset, v + offset) for u, v in block.edges)
            offset += s
        for d, c in degree_histogram(Graph(1000, edges)).items():
            counts[d] += c
    mode = max(counts, key=counts.get)
    tail = [counts.get(d, 0) for d in range(mode, mode + 9)]
    assert all(a > b for a, b in zip(tail, tail[1:]))


@st.composite
def edge_lists(draw):
    """(n, pairs) with duplicates, reversed pairs and isolated nodes allowed."""
    n = draw(st.integers(1, 30))
    if n == 1:
        return n, []
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    return n, draw(st.lists(pair, max_size=3 * n))


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_graph_matches_networkx(case):
    # crossover 0: every graph takes the block-cut paths of
    # average_shortest_path and average_clustering; the check compares both
    # against their dense paths
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_SMALL_MAX_N", 0)
        check_graph_against_networkx(case)


@settings(max_examples=100, deadline=None)
@given(edge_lists())
def test_graph_matches_networkx_in_slices(case):
    # every edge pass, S build and distance batch cut into pieces of a few
    # entries, every dense block a stack of its own multiplied a row at a
    # time, and the CSR built on each call
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_SMALL_MAX_N", 0)
        mp.setattr(graphs, "_EDGE_SLICE", 5)
        mp.setattr(graphs, "_CSR_CACHE_ENTRIES", 0)
        mp.setattr(graphs, "_ASP_DIST_CELLS", 3)
        mp.setattr(graphs, "_STACK_CELLS", 7)
        check_graph_against_networkx(case)


@st.composite
def mixed_block_edge_lists(draw):
    """(n, pairs) of a connected graph whose blocks are joined in a chain at
    cut vertices: cliques and wheels (diameter 1 and 2), cycles (diameter 3
    or more from 6 nodes) and cycles with a clique on half their nodes,
    each with up to two chords added."""
    pairs, n = [], 1
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["clique", "wheel", "cycle", "tailed"]))
        s = draw(st.integers(3, 12))
        nodes = [n - 1] + list(range(n, n + s - 1))
        n += s - 1
        ring = [(nodes[i], nodes[(i + 1) % s]) for i in range(s)]
        if kind == "clique":
            block = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
        elif kind == "wheel":
            block = ring[1:-1] + [(nodes[-1], nodes[1])] + [(nodes[0], v) for v in nodes[1:]]
        elif kind == "cycle":
            block = ring
        else:
            half = nodes[:max(3, s // 2)]
            block = ring + [(u, v) for i, u in enumerate(half) for v in half[i + 1:]]
        # a few chords that keep the block 2-connected
        block += draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
                               .filter(lambda p: p[0] != p[1]), max_size=2))
        pairs += block
    return n, pairs


@settings(max_examples=150, deadline=None)
@given(mixed_block_edge_lists(), st.sampled_from([7, 1 << 18]))
def test_mixed_blocks_match_networkx(case, cells):
    # chains of certified and uncertified blocks, each of its own stack or
    # stacked together
    n, pairs = case
    g = Graph(n, pairs)
    G = nx.Graph(pairs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_SMALL_MAX_N", 0)
        mp.setattr(graphs, "_STACK_CELLS", cells)
        cut = graphs._blocks(g)
        members = np.split(cut.node[2 * cut.pairs:], cut.starts[1:-1])
        want = [nx.diameter(G.subgraph(b.tolist())) <= 2 for b in members]
        assert graphs._block_squares(g).certified.tolist() == want
        check_graph_against_networkx((n, pairs))


def check_graph_against_networkx(case):
    n, pairs = case
    g = Graph(n, pairs)
    canon = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    assert g.edges.shape == (len(canon), 2)
    assert g.edges.tolist() == [list(p) for p in canon]

    # the CSR equals the one a COO build of both directions gives, array for array
    e = np.array(canon, dtype=np.int64).reshape(-1, 2)
    rows, cols = np.concatenate((e[:, 0], e[:, 1])), np.concatenate((e[:, 1], e[:, 0]))
    ref = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    csr = g.to_csr()
    for name in ("indptr", "indices", "data"):
        got, want = getattr(csr, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name

    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(pairs)
    assert g.degrees().tolist() == [d for _, d in sorted(G.degree())]
    hist = nx.degree_histogram(G)
    assert degree_histogram(g) == {d: c for d, c in enumerate(hist) if c}
    assert is_connected(g) == nx.is_connected(G)
    assert np.array_equal(g.to_dense(), nx.to_numpy_array(G, nodelist=range(n)))
    if n < 2:
        with pytest.raises(ValueError, match="at least 2 nodes"):
            average_shortest_path(g)
    elif nx.is_connected(G):
        assert average_shortest_path(g) == pytest.approx(
            nx.average_shortest_path_length(G), rel=1e-12)
        assert average_shortest_path(g) == dijkstra_asp(g)
    else:
        with pytest.raises(ValueError, match="disconnected"):
            average_shortest_path(g)
    assert average_clustering(g) == pytest.approx(nx.average_clustering(G), rel=1e-12, abs=1e-15)
    assert average_clustering(g) == dense_clustering(g)


@settings(max_examples=100, deadline=None)
@given(edge_lists(), st.integers(0, 29), st.integers(1, 40))
def test_graph_rejects_self_loops_and_out_of_range(case, node, beyond):
    n, pairs = case
    with pytest.raises(ValueError, match="self-loop"):
        Graph(n, pairs + [(node % n, node % n)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(n, pairs + [(node % n, n - 1 + beyond)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(n, [(-beyond, node % n)] + pairs)
    with pytest.raises(ValueError, match="edges must be integers"):
        Graph(n, pairs + [(node % n, 0.5)])


@st.composite
def connected_edge_lists(draw):
    """(n, pairs) of a connected graph: a random tree plus random extra pairs."""
    n = draw(st.integers(2, 30))
    pairs = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    return n, pairs + draw(st.lists(pair, max_size=2 * n))


@settings(max_examples=300, deadline=None)
@given(connected_edge_lists())
def test_blocks_match_networkx(case):
    n, pairs = case
    g = Graph(n, pairs)
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(pairs)
    cut = graphs._blocks(g)
    assert graphs._blocks(g) is cut  # kept on the graph
    members = {}
    for b, v in zip(cut.block.tolist(), cut.node.tolist()):
        members.setdefault(b, set()).add(v)
    want = {frozenset(c) for c in nx.biconnected_components(G)}
    assert {frozenset(m) for m in members.values()} == want
    assert len(members) == len(want)  # no block found twice
    # the blocks of two members come first, the larger ones in ascending
    # order of size, each a run of entries, and starts opens each larger one
    sizes = [len(members[b]) for b in cut.block.tolist()]
    two = 2 * cut.pairs
    assert sizes == sorted(sizes)
    assert set(sizes[:two]) <= {2} and set(sizes[two:]) <= set(range(3, n + 1))
    runs = np.flatnonzero(np.diff(cut.block, prepend=-1))
    assert cut.block[runs].tolist() == list(range(len(members)))
    assert cut.starts.tolist() == (runs[runs >= two] - two).tolist() + [cut.block.size - two]
    # every edge lies in exactly one block: a pair's entries, or one row of
    # the larger blocks' adjacency, whose entries join members of one block
    found = [frozenset(cut.node[i:i + 2].tolist()) for i in range(0, two, 2)]
    rows = np.repeat(np.arange(cut.block.size - two), np.diff(cut.indptr))
    for r, c in zip(rows.tolist(), cut.indices.tolist()):
        assert cut.block[two + r] == cut.block[two + c]
        found.append(frozenset(cut.node[[two + r, two + c]].tolist()))
    assert sorted(map(sorted, found)) == g.edges.tolist()
    # w_B(x): the nodes left with x once the other members of B are removed,
    # and their volume, the sum of d + 1; the top is the member left with node 0
    tops = set()
    for b, v, w, vol, top in zip(cut.block.tolist(), cut.node.tolist(), cut.weight.tolist(),
                                 cut.volume.tolist(), cut.top.tolist()):
        rest = G.subgraph(set(G) - (members[b] - {v}))
        reach = nx.node_connected_component(rest, v)
        assert w == len(reach)
        assert vol == sum(G.degree(y) + 1 for y in reach)
        assert top == (0 in reach)
        if top:
            tops.add(b)
    assert tops == set(members)


@pytest.mark.parametrize("modality", ["bridge", "edge_bundle", "comembership", "liaison"])
def test_block_cut_asp_equals_dijkstra_at_scale(modality):
    from groupnets.generators import generate

    g = generate(modality, 2000, seed=11).graph
    assert g.n >= 2000
    assert block_cut_asp(g) == dijkstra_asp(g)


@pytest.mark.parametrize("modality", ["bridge", "edge_bundle", "comembership", "liaison"])
def test_block_clustering_equals_sparse_formula_at_scale(modality):
    # t_i = ((A @ A) * A) summed over row i, from scipy's sparse product
    from groupnets.generators import generate

    g = generate(modality, 2000, seed=11).graph
    a = g.to_csr()
    t = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel()
    deg = g.degrees().astype(np.float64)
    denom = deg * (deg - 1.0)
    want = float(np.divide(t, denom, out=np.zeros_like(t), where=denom > 0).mean())
    assert average_clustering(g) == want


def test_block_squares_on_a_giant_group_allocate_less_than_three_squares():
    # a liaison graph whose largest group has s = 1713 of its 2040 nodes:
    # path length and clustering hold the group's float32 adjacency and
    # slices of its square, not the square itself
    from groupnets.generators import generate

    g = generate("liaison", 2000, seed=3696373870846369654).graph
    s = int(np.diff(graphs._blocks(g).starts).max())
    assert (g.n, s) == (2040, 1713)
    tracemalloc.start()
    try:
        average_shortest_path(g)
        average_clustering(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * s * s * 4
