import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from groupnets import generators, graphs
from groupnets.generators import (
    MODALITIES,
    GenerationError,
    GroupTree,
    ModalityParams,
    bundle_edge_count,
    er_block,
    gen_bridge,
    gen_comembership,
    gen_edge_bundle,
    gen_liaison,
    generate,
    uniform_spanning_tree,
)
from groupnets.graphs import Graph, average_clustering, average_shortest_path, is_connected
from groupnets.partition import PowerLawSpec, SizeSequence, sample_group_sizes


def home_group_map(mg):
    home = {}
    for gi, members in enumerate(mg.groups):
        for v in members:
            home[v] = gi
    return home


def cross_edges_by_pair(mg):
    """Inter-group edges keyed by the (sorted) pair of home groups."""
    home = home_group_map(mg)
    pairs = {}
    for u, v in mg.graph.edges.tolist():
        gu, gv = home.get(u), home.get(v)
        if gu is None or gv is None or gu == gv:
            continue
        pairs.setdefault((min(gu, gv), max(gu, gv)), []).append((u, v))
    return pairs


def test_params_defaults():
    p = ModalityParams()
    assert p.comember_inclusion == pytest.approx(0.9)
    assert p.branching_pmf[2] == pytest.approx(27 / 35)
    assert p.branching_pmf[3] == pytest.approx(8 / 35)
    with pytest.raises(ValueError):
        ModalityParams(epsilon=0.0)
    with pytest.raises(ValueError):
        ModalityParams(bundle_scale=-1.0)
    for scale in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            ModalityParams(bundle_scale=scale)
    for pmf in ({2: -1.0, 3: 1.0}, {2: math.nan}, {2: math.inf}, {2: 0.0}, {}):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ModalityParams(branching_pmf=pmf)
    with pytest.raises(ValueError):
        ModalityParams(comember_inclusion=1.5)


def test_params_epsilon_below_rounding():
    # 1 - 1e-17 is 1.0 in floating point: the default inclusion is then 1,
    # which is accepted, also when given explicitly and after a JSON roundtrip
    from groupnets.experiments import SweepConfig

    p = ModalityParams(epsilon=1e-17)
    assert p.comember_inclusion == 1.0
    assert ModalityParams(comember_inclusion=1.0).comember_inclusion == 1.0
    for bad in (0.0, 1.0 + 1e-15, math.nan):
        with pytest.raises(ValueError, match="comember_inclusion must lie in"):
            ModalityParams(comember_inclusion=bad)
    cfg = SweepConfig(sizes=(20,), replications=1, params=p)
    assert SweepConfig.from_json_text(cfg.to_json_text()) == cfg
    for modality in MODALITIES:
        mg = generate(modality, 40, p, seed=3)
        assert_generator_invariants(mg, 40, p)
    # every co-member links to every member of its adopted group
    mg = gen_comembership(40, p, np.random.default_rng(8))
    sizes = mg.group_sizes.sizes
    for (i, j), edges in cross_edges_by_pair(mg).items():
        assert len(edges) in (sizes[i], sizes[j])


def test_er_block_tiny_epsilon_is_clique():
    g = er_block(3, 1e-9, np.random.default_rng(0))
    assert g.edge_count == 3


def test_er_block_edge_count_mean():
    rng = np.random.default_rng(1)
    counts = [er_block(10, 0.1, rng).edge_count for _ in range(300)]
    assert np.mean(counts) == pytest.approx(0.9 * 45, abs=0.6)


def test_er_block_clustering_mean():
    rng = np.random.default_rng(2)
    values = [average_clustering(er_block(10, 0.1, rng)) for _ in range(1000)]
    assert np.mean(values) == pytest.approx(0.9, abs=0.02)


def test_er_block_always_connected():
    rng = np.random.default_rng(3)
    for _ in range(200):
        assert is_connected(er_block(int(rng.integers(3, 12)), 0.4, rng))


def test_er_block_draws_pairs_in_row_major_order(monkeypatch):
    # the pairs (i, j), i < j, drawn a chunk at a time, are those of one draw
    # over np.triu_indices from the same stream
    def reference(size, epsilon, rng):
        iu, iv = np.triu_indices(size, 1)
        while True:
            keep = rng.random(iu.size) < 1.0 - epsilon
            g = Graph(size, np.column_stack((iu[keep], iv[keep])))
            if is_connected(g):
                return g.edges

    monkeypatch.setattr(generators, "_PAIR_CHUNK", 7)
    monkeypatch.setattr(generators, "_UNION_CHUNK", 3)
    for size, epsilon, seed in ((2, 0.5, 0), (3, 0.3, 1), (9, 0.6, 2), (40, 0.1, 3), (25, 0.8, 4)):
        got = er_block(size, epsilon, np.random.default_rng(seed)).edges
        assert np.array_equal(got, reference(size, epsilon, np.random.default_rng(seed)))


def sequential_blocks(sizes, epsilon, rng):
    """Blocks drawn one after another, each attempt one draw over np.triu_indices.

    Returns the edges of all blocks, on consecutive node ranges, and the
    attempts each block took.
    """
    edges, attempts, offset = [], [], 0
    for size in sizes:
        iu, iv = np.triu_indices(size, 1)
        for attempt in range(1, generators._MAX_BLOCK_ATTEMPTS + 1):
            keep = rng.random(iu.size) < 1.0 - epsilon
            block = np.column_stack((iu[keep], iv[keep]))
            if is_connected(Graph(size, block)):
                break
        else:
            raise GenerationError(f"block of size {size}")
        edges.append(block + offset)
        attempts.append(attempt)
        offset += size
    return np.concatenate(edges).astype(np.int32), attempts


@pytest.mark.parametrize("bounds", [None, (6, 20)])
@pytest.mark.parametrize("epsilon, spec", [
    (0.5, PowerLawSpec(support_max=8, exponent=2.0)),
    (0.6, PowerLawSpec(support_max=8, exponent=2.0)),
    (0.3, PowerLawSpec(support_max=90, exponent=2.0, support_min=2)),
    (0.1, PowerLawSpec(support_max=300, exponent=2.0)),
])
def test_scaffold_matches_sequential_blocks(monkeypatch, bounds, epsilon, spec):
    # the windowed draw gives the edges and leaves the stream exactly as
    # drawing block by block does, also with blocks above the table bound
    # mixed in, and with windows and tables of a few pairs
    if bounds is not None:
        monkeypatch.setattr(generators, "_TABLE_MAX_SIZE", bounds[0])
        monkeypatch.setattr(generators, "_WINDOW_PAIRS", bounds[1])
        monkeypatch.setattr(generators, "_PAIR_CHUNK", 7)
        monkeypatch.setattr(generators, "_UNION_CHUNK", 3)
    params = ModalityParams(epsilon=epsilon)
    rejected = 0
    for seed in range(6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        seq, groups, edges = generators._scaffold(600, params, rng, spec)
        ref_seq = sample_group_sizes(600, ref_rng, spec)
        want, attempts = sequential_blocks(ref_seq.sizes, epsilon, ref_rng)
        assert seq == ref_seq
        assert groups == tuple(tuple(range(sum(seq.sizes[:g]), sum(seq.sizes[:g + 1])))
                               for g in range(len(seq)))
        assert np.array_equal(generators._concat(edges), want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        rejected += sum(attempts) - len(attempts)
    assert rejected > 0 or epsilon < 0.5
    assert not generators._pair_table(5).flags.writeable


def test_block_budget_counts_attempts_per_block(monkeypatch):
    # the budget is per block: a window whose blocks need 3 attempts each at
    # most, but more than 3 in total, is drawn; a block that needs 4 raises
    monkeypatch.setattr(generators, "_MAX_BLOCK_ATTEMPTS", 3)
    sizes, epsilon = (3, 4, 3, 5, 3, 3, 4, 3), 0.5
    fits = exceeds = None
    for seed in range(200):
        try:
            _, attempts = sequential_blocks(sizes, epsilon, np.random.default_rng(seed))
        except GenerationError:
            exceeds = seed if exceeds is None else exceeds
            continue
        if fits is None and sum(attempts) - len(sizes) > 3:
            fits = seed
    assert fits is not None and exceeds is not None

    rng, ref_rng = np.random.default_rng(fits), np.random.default_rng(fits)
    got = generators._concat(generators._block_edges(sizes, epsilon, rng))
    assert np.array_equal(got, sequential_blocks(sizes, epsilon, ref_rng)[0])
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    with pytest.raises(GenerationError, match="within 3 attempts"):
        generators._block_edges(sizes, epsilon, np.random.default_rng(exceeds))


def test_certificate_passes_every_connected_three_node_block(monkeypatch):
    # on three members the certificate is exact, so the union-find sees
    # only disconnected blocks: the rejected attempts
    seen = []

    def connected(size, us, vs):
        seen.append(_connected(size, us, vs))
        return seen[-1]

    _connected = generators._connected
    monkeypatch.setattr(generators, "_connected", connected)
    generators._block_edges([3] * 500, 0.4, np.random.default_rng(3))
    assert len(seen) > 100 and not any(seen)


def test_bundle_slot_draw_skips_the_anchor():
    # a choice over the slots less the anchor's, as indices shifted past it
    for slots, anchor, k in ((4, 0, 1), (4, 3, 3), (30, 7, 5), (900, 450, 45)):
        want = np.random.default_rng(k).choice(np.delete(np.arange(slots), anchor), k, replace=False)
        idx = np.random.default_rng(k).choice(slots - 1, k, replace=False)
        assert np.array_equal(idx + (idx >= anchor), want)


def test_broadcast_integers_take_the_stream_of_scalar_draws():
    # the wiring draws a run of bounded integers as one broadcast call: each
    # value is one 32-bit draw (none for a bound of 1), as in scalar calls,
    # so values and generator state, its buffered half-word included, agree
    # also after an odd count of draws
    for seed in range(40):
        highs = np.random.default_rng(seed).integers(1, 2**31, size=seed % 9 + 1)
        highs[::3] = np.random.default_rng(seed + 1).integers(1, 5)
        for warm in (0, 1):  # start with and without a buffered half-word
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for g in (rng, ref):
                g.integers(7, size=warm)
            got = rng.integers(0, highs)
            want = [int(ref.integers(h)) for h in highs.tolist()]
            assert got.tolist() == want
            assert rng.bit_generator.state == ref.bit_generator.state


def reference_tree(k, rng):
    """The Prufer decoding drawn and decoded with a per-entry degree array."""
    if k == 1:
        return GroupTree(1, frozenset())
    if k == 2:
        return GroupTree(2, frozenset({(0, 1)}))
    seq = rng.integers(0, k, size=k - 2)
    degree = np.ones(k, dtype=np.int64)
    for x in seq:
        degree[x] += 1
    leaves = sorted(i for i in range(k) if degree[i] == 1)
    edges = []
    for x in seq.tolist():
        leaf = leaves.pop(0)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            leaves = sorted(leaves + [x])
    edges.append(tuple(leaves))
    return GroupTree(k, frozenset(edges))


def reference_wiring(modality, n, params, rng, spec):
    """The four modalities wired one tree edge or one contact at a time.

    Returns the node count, edges, groups, tree, extra memberships and
    liaisons.
    """
    seq, groups, edges = generators._scaffold(n, params, rng, spec)
    tree, extra, liaisons, total = None, [], [], n
    if modality == "liaison":
        layer = [("group", gi) for gi in range(len(seq))]
        while len(layer) > 1:
            cells = generators._partition_layer(params.branching_pmf, len(layer), rng)
            new_layer, pos = [], 0
            for size in cells:
                lid = total
                total += 1
                liaisons.append(lid)
                for kind, ref in layer[pos:pos + size]:
                    if kind == "group":
                        edges.append([(lid, groups[ref][int(rng.integers(len(groups[ref])))])])
                    else:
                        edges.append([(lid, ref)])
                pos += size
                new_layer.append(("liaison", lid))
            layer = new_layer
    else:
        tree = reference_tree(len(seq), rng)
        anchors = {}
        if modality != "comembership":
            for i, j in tree.sorted_edges():
                anchors[(i, j)] = (int(rng.integers(len(groups[i]))),
                                   int(rng.integers(len(groups[j]))))
        for i, j in tree.sorted_edges():
            si, sj = len(groups[i]), len(groups[j])
            if modality == "bridge":
                ui, vj = anchors[(i, j)]
                edges.append([(groups[i][ui], groups[j][vj])])
            elif modality == "edge_bundle":
                ui, vj = anchors[(i, j)]
                alpha = bundle_edge_count(si, sj, params.bundle_scale)
                others = np.delete(np.arange(si * sj), ui * sj + vj)
                idx = rng.choice(si * sj - 1, size=alpha - 1, replace=False)
                for f in [ui * sj + vj] + others[idx].tolist():
                    edges.append([(groups[i][f // sj], groups[j][f % sj])])
            else:
                src, tgt = (i, j) if int(rng.integers(2)) == 0 else (j, i)
                v = groups[src][int(rng.integers(len(groups[src])))]
                for _ in range(generators._MAX_INCLUSION_ATTEMPTS):
                    mask = rng.random(len(groups[tgt])) < params.comember_inclusion
                    if int(mask.sum()) >= 3:
                        break
                else:
                    raise GenerationError(f"group of size {len(groups[tgt])}")
                edges.append([(v, u) for u in np.array(groups[tgt])[mask].tolist()])
                extra.append((v, tgt))
    edges = np.concatenate([np.asarray(e, dtype=np.int64).reshape(-1, 2) for e in edges])
    return total, edges, groups, tree, tuple(extra), tuple(liaisons)


WIRING_CASES = {
    "epsilon 0.1": (ModalityParams(epsilon=0.1), None, (3, 10, 57, 300, 2000)),
    "epsilon 0.5": (ModalityParams(epsilon=0.5), None, (3, 10, 57, 300, 2000)),
    "inclusion 0.35": (ModalityParams(comember_inclusion=0.35), None, (10, 57, 300)),
    "bundle of 2": (ModalityParams(bundle_scale=1e-6), None, (10, 57, 300, 2000)),
    "bundle of every slot": (ModalityParams(bundle_scale=1e6), None, (10, 57, 300)),
    "groups of 2": (ModalityParams(), PowerLawSpec(support_max=30, support_min=2), (10, 57, 300)),
}


@pytest.mark.parametrize("modality, case", [
    (modality, case) for modality in MODALITIES for case in sorted(WIRING_CASES)
    # a co-member target of 2 members cannot be wired
    if not (modality == "comembership" and WIRING_CASES[case][1] is not None)
])
def test_wiring_matches_per_edge_reference(modality, case):
    # the batched wiring gives every edge, group, tree, extra membership and
    # liaison of the per-edge loops, and leaves the stream where they leave it
    params, spec, sizes = WIRING_CASES[case]
    for n in sizes:
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            mg = GENERATORS[modality](n, params, rng, size_spec=spec)
            total, edges, groups, tree, extra, liaisons = reference_wiring(
                modality, n, params, ref_rng, spec)
            assert np.array_equal(mg.graph.edges, Graph(total, edges).edges)
            assert mg.graph.n == total
            assert mg.groups == groups
            assert mg.tree == tree
            assert mg.extra_memberships == extra
            assert mg.liaison_nodes == liaisons
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_comembership_refuses_a_small_target_before_drawing():
    # a target of 2 members never gives 3 inclusion edges: the generator
    # raises before drawing any inclusion mask for it
    class Counting:
        def __init__(self, rng):
            self.rng, self.doubles = rng, 0

        def random(self, size=None):
            self.doubles += 1 if size is None else int(size)
            return self.rng.random(size)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    rng = Counting(np.random.default_rng(1))
    spec = PowerLawSpec(support_min=2, support_max=2)
    with pytest.raises(GenerationError, match=r"into a group of size 2$"):
        gen_comembership(20, ModalityParams(), rng, spec)
    assert rng.doubles < 100  # the blocks' pairs and their retries alone


def test_er_block_validation():
    with pytest.raises(ValueError):
        er_block(0, 0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        er_block(5, 1.0, np.random.default_rng(0))


def test_spanning_tree_small_cases():
    assert uniform_spanning_tree(1, np.random.default_rng(0)).tree_edges == frozenset()
    assert uniform_spanning_tree(2, np.random.default_rng(0)).tree_edges == {(0, 1)}


def test_spanning_tree_structure():
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = int(rng.integers(3, 30))
        tree = uniform_spanning_tree(k, rng)  # GroupTree validates itself
        assert len(tree.tree_edges) == k - 1


def test_spanning_tree_uniform_over_labeled_trees():
    # Cayley: 4^2 = 16 labeled trees on 4 nodes, each with frequency ~1/16
    rng = np.random.default_rng(5)
    draws = 16_000
    counts = Counter(
        tuple(uniform_spanning_tree(4, rng).sorted_edges()) for _ in range(draws)
    )
    assert len(counts) == 16
    expected = draws / 16
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    p = chi2.sf(stat, df=15)
    assert p > 0.001, f"chi-square stat {stat:.1f}, p {p:.2e}"


def test_group_tree_validation():
    with pytest.raises(ValueError):
        GroupTree(3, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        GroupTree(3, frozenset({(0, 1), (0, 1)}))
    with pytest.raises(ValueError):
        GroupTree(4, frozenset({(0, 1), (1, 2), (0, 2)}))


def test_bundle_edge_count_rule():
    assert bundle_edge_count(3, 3, 0.05) == 2  # round(0.45) = 0 -> floor 2
    assert bundle_edge_count(10, 10, 0.05) == 5
    assert bundle_edge_count(3, 3, 10.0) == 9  # capped at the slot count
    assert bundle_edge_count(3, 4, 0.05) == 2
    # (0.05 * 3) * 30 = 4.500000000000001 rounds up; 0.05 * 90 = 4.5 would round to 4
    assert bundle_edge_count(3, 30, 0.05) == 5
    assert bundle_edge_count(3, 3, 1.7976931348623157e308) == 9  # no overflow


def test_bridge_cross_edge_count():
    for seed in range(200):
        mg = gen_bridge(60, ModalityParams(), np.random.default_rng(seed))
        pairs = cross_edges_by_pair(mg)
        assert is_connected(mg.graph)
        assert sum(len(v) for v in pairs.values()) == mg.group_count - 1
        assert all(len(v) == 1 for v in pairs.values())


def test_tree_skeleton_matches_group_tree():
    params = ModalityParams()
    for gen in (gen_bridge, gen_edge_bundle, gen_comembership):
        for seed in range(40):
            mg = gen(50, params, np.random.default_rng(seed))
            assert set(cross_edges_by_pair(mg)) == set(mg.tree.sorted_edges())


def test_bundle_cross_edges_at_least_two_and_distinct():
    for seed in range(100):
        mg = gen_edge_bundle(60, ModalityParams(), np.random.default_rng(seed))
        for pair, edges in cross_edges_by_pair(mg).items():
            assert len(edges) >= 2
            assert len(set(edges)) == len(edges)


def test_bridge_nested_in_bundle_same_stream():
    # same raw stream -> same partition, tree and anchor endpoints
    for seed in range(40):
        b = gen_bridge(60, ModalityParams(), np.random.default_rng(seed))
        eb = gen_edge_bundle(60, ModalityParams(), np.random.default_rng(seed))
        assert b.groups == eb.groups
        assert b.tree == eb.tree
        bridge_edges = set(map(tuple, b.graph.edges.tolist()))
        assert bridge_edges <= set(map(tuple, eb.graph.edges.tolist()))


def test_comembership_shared_endpoint_and_counts():
    for seed in range(100):
        mg = gen_comembership(60, ModalityParams(), np.random.default_rng(seed))
        co_by_pair = {}
        for v, gi in mg.extra_memberships:
            home = home_group_map(mg)[v]
            co_by_pair[(min(home, gi), max(home, gi))] = v
        for pair, edges in cross_edges_by_pair(mg).items():
            assert len(edges) >= 3
            shared = set(edges[0])
            for e in edges[1:]:
                shared &= set(e)
            assert co_by_pair[pair] in shared


def test_comembership_membership_map():
    mg = gen_comembership(40, ModalityParams(), np.random.default_rng(8))
    member = mg.membership()
    adoptions = Counter(v for v, _ in mg.extra_memberships)
    for v in range(mg.graph.n):
        assert len(member[v]) == 1 + adoptions[v]


def test_comembership_mean_cross_edges():
    # forced two groups of 20: expected cross edges = 0.9 * 20
    params = ModalityParams()
    spec = PowerLawSpec(support_max=20, support_min=20)
    counts = []
    rng = np.random.default_rng(9)
    for _ in range(400):
        mg = gen_comembership(40, params, rng, size_spec=spec)
        (edges,) = cross_edges_by_pair(mg).values()
        counts.append(len(edges))
    assert np.mean(counts) == pytest.approx(0.9 * 20, rel=0.05)


def test_liaison_single_group_no_hierarchy():
    mg = gen_liaison(3, ModalityParams(), np.random.default_rng(0))
    assert mg.liaison_nodes == ()
    assert mg.graph.n == 3


def test_liaison_structure():
    for seed in range(100):
        mg = gen_liaison(60, ModalityParams(), np.random.default_rng(seed))
        n_groups = mg.group_count
        assert mg.graph.n == 60 + len(mg.liaison_nodes)
        assert is_connected(mg.graph)
        if n_groups == 1:
            assert not mg.liaison_nodes
            continue
        liaisons = set(mg.liaison_nodes)
        home = home_group_map(mg)
        # children per liaison: edges to lower-layer units (groups or
        # earlier liaisons); every liaison except the root also has one
        # edge up to its parent
        children = {lid: 0 for lid in liaisons}
        unit_edges = 0
        touched_groups = {}
        for u, v in mg.graph.edges.tolist():
            in_l = (u in liaisons, v in liaisons)
            if not any(in_l):
                continue
            unit_edges += 1
            if all(in_l):
                children[max(u, v)] += 1
            else:
                lid, member = (u, v) if u in liaisons else (v, u)
                children[lid] += 1
                touched_groups.setdefault(lid, set()).add(home[member])
        root = max(liaisons)
        degrees = mg.graph.degrees()
        for lid in liaisons:
            degree = degrees[lid]
            n_children = degree if lid == root else degree - 1
            assert n_children in (2, 3), f"liaison {lid} has branching {n_children}"
        # contracted hierarchy (groups + liaisons) is a tree
        assert unit_edges == n_groups + len(liaisons) - 1
        # removing the liaisons disconnects the groups
        survivors = [
            (u, v)
            for u, v in mg.graph.edges.tolist()
            if u not in liaisons and v not in liaisons
        ]
        assert not is_connected(Graph(60, survivors))


def test_generate_deterministic_and_distinct():
    a = generate("bridge", 50, seed=7)
    b = generate("bridge", 50, seed=7)
    assert np.array_equal(a.graph.edges, b.graph.edges)
    c = generate("bridge", 50, seed=8)
    assert not np.array_equal(a.graph.edges, c.graph.edges)


def test_generate_unknown_modality():
    with pytest.raises(ValueError):
        generate("ring", 50, seed=0)
    with pytest.raises(ValueError):
        generate("bridge", 50, seed=-1)


def test_generate_all_modalities_connected():
    for modality in MODALITIES:
        mg = generate(modality, 200, seed=3)
        assert is_connected(mg.graph)
        assert sum(mg.group_sizes.sizes) == 200


def test_document_roundtrip_via_generate():
    mg = generate("comembership", 60, seed=5)
    doc = mg.to_document()
    assert doc.modality == "comembership"
    assert doc.seed == 5
    # co-members appear in two group lists
    flat = [v for grp in doc.groups for v in grp]
    assert len(flat) == len(set(flat)) + len(mg.extra_memberships)
    text = doc.to_json_text()
    assert text == type(doc).from_json_text(text).to_json_text()


def test_er_block_mean_degree():
    # G(10, 0.9) has mean degree 0.9 * 9 over replications
    rng = np.random.default_rng(21)
    degs = []
    for _ in range(400):
        g = er_block(10, 0.1, rng)
        degs.append(2 * g.edge_count / g.n)
    assert np.mean(degs) == pytest.approx(0.9 * 9, abs=0.1)


GENERATORS = {
    "bridge": gen_bridge,
    "edge_bundle": gen_edge_bundle,
    "comembership": gen_comembership,
    "liaison": gen_liaison,
}


def assert_generator_invariants(mg, n, params):
    """Partition, blocks and modality wiring of a generated graph, and its
    average shortest path equal on the Dijkstra and block-cut paths."""
    g = mg.graph
    sizes = mg.group_sizes.sizes
    assert sum(sizes) == n and min(sizes) >= 3
    ends = np.cumsum((0,) + sizes)
    assert mg.groups == tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))
    for a, b in zip(ends, ends[1:]):
        inside = [(u - a, v - a) for u, v in g.edges.tolist() if a <= u < b and a <= v < b]
        assert is_connected(Graph(b - a, inside))
    assert is_connected(g)
    pairs = cross_edges_by_pair(mg)
    k = mg.group_count
    if mg.modality == "liaison":
        assert g.n == n + len(mg.liaison_nodes)
        assert not pairs
        assert (k == 1) == (not mg.liaison_nodes)
        # the groups and liaisons contract to a tree
        assert g.edge_count - sum(len(e) for e in split_by_group(mg)) == k + len(mg.liaison_nodes) - 1
    else:
        assert g.n == n
        assert set(pairs) == set(mg.tree.sorted_edges())
        for (i, j), edges in pairs.items():
            si, sj = sizes[i], sizes[j]
            assert len(set(edges)) == len(edges)
            if mg.modality == "bridge":
                assert len(edges) == 1
            elif mg.modality == "edge_bundle":
                assert len(edges) == bundle_edge_count(si, sj, params.bundle_scale)
            else:
                assert len(edges) >= 3
                assert len(set.intersection(*(set(e) for e in edges))) == 1
        if mg.modality == "comembership":
            assert len(mg.extra_memberships) == k - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_SMALL_MAX_N", 0)
        block_cut = average_shortest_path(g)
        mp.setattr(graphs, "_SMALL_MAX_N", g.n)
        assert block_cut == average_shortest_path(g)


def split_by_group(mg):
    """The edges inside each home group."""
    home = home_group_map(mg)
    inside = [[] for _ in mg.groups]
    for u, v in mg.graph.edges.tolist():
        if u in home and home.get(v) == home[u]:
            inside[home[u]].append((u, v))
    return inside


def generate_with(modality, n, params, seed, spec=None):
    return GENERATORS[modality](n, params, np.random.default_rng(seed), size_spec=spec)


modalities = st.sampled_from(MODALITIES)
seeds = st.integers(0, 2**32)


@settings(max_examples=40, deadline=None)
@given(modalities, seeds)
def test_generator_edge_case_n3(modality, seed):
    mg = generate(modality, 3, seed=seed)
    assert mg.group_count == 1
    assert_generator_invariants(mg, 3, ModalityParams())


@settings(max_examples=25, deadline=None)
@given(modalities, seeds, st.integers(3, 40))
def test_generator_edge_case_single_group(modality, seed, n):
    mg = generate_with(modality, n, ModalityParams(), seed, PowerLawSpec(n, support_min=n))
    assert mg.group_count == 1
    assert_generator_invariants(mg, n, ModalityParams())


@settings(max_examples=25, deadline=None)
@given(modalities, seeds, st.integers(3, 20))
def test_generator_edge_case_two_groups(modality, seed, s):
    mg = generate_with(modality, 2 * s, ModalityParams(), seed, PowerLawSpec(s, support_min=s))
    assert mg.group_count == 2
    assert_generator_invariants(mg, 2 * s, ModalityParams())


@settings(max_examples=25, deadline=None)
@given(modalities, seeds, st.integers(1, 15))
def test_generator_edge_case_all_groups_of_three(modality, seed, k):
    mg = generate_with(modality, 3 * k, ModalityParams(), seed, PowerLawSpec(3, support_min=3))
    assert mg.group_sizes.sizes == (3,) * k
    assert_generator_invariants(mg, 3 * k, ModalityParams())


@settings(max_examples=25, deadline=None)
@given(modalities, seeds, st.integers(30, 120), st.lists(st.integers(3, 5), max_size=8), st.data())
def test_generator_edge_case_one_giant_group(modality, seed, giant, small, data):
    sizes = list(small)
    sizes.insert(data.draw(st.integers(0, len(small))), giant)
    n = sum(sizes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "sample_group_sizes",
                   lambda total, rng, spec: SizeSequence.from_sizes(sizes, total))
        mg = generate_with(modality, n, ModalityParams(), seed)
    assert mg.group_sizes.sizes == tuple(sizes)
    assert_generator_invariants(mg, n, ModalityParams())


@settings(max_examples=25, deadline=None)
@given(modalities, seeds, st.integers(3, 60), st.floats(1e-12, 1e-3))
def test_generator_edge_case_epsilon_near_zero(modality, seed, n, epsilon):
    params = ModalityParams(epsilon=epsilon)
    assert_generator_invariants(generate_with(modality, n, params, seed), n, params)


@settings(max_examples=25, deadline=None)
@given(modalities, seeds, st.integers(3, 30), st.floats(0.8, 1.0 - 1e-9))
def test_generator_edge_case_epsilon_near_one(modality, seed, n, epsilon):
    # sparse blocks are rarely connected: the generator either gives up
    # with a GenerationError or returns a graph that keeps every invariant
    params = ModalityParams(epsilon=epsilon)
    try:
        mg = generate_with(modality, n, params, seed)
    except GenerationError:
        return
    assert_generator_invariants(mg, n, params)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(6, 60),
       st.one_of(st.floats(5e-324, 1e-6), st.floats(1e3, 1.7976931348623157e308)))
def test_generator_edge_case_extreme_bundle_scale(seed, n, bundle_scale):
    params = ModalityParams(bundle_scale=bundle_scale)
    mg = generate_with("edge_bundle", n, params, seed)
    assert_generator_invariants(mg, n, params)
    sizes = mg.group_sizes.sizes
    for (i, j), edges in cross_edges_by_pair(mg).items():
        # the floor of two edges, or every member pair of the two groups
        assert len(edges) == (2 if bundle_scale < 1.0 else sizes[i] * sizes[j])
