import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from groupnets import dynamics, graphs
from groupnets.dynamics import (
    ConsensusSystem,
    ConvergenceError,
    NoiseModel,
    build_consensus_matrix,
    consensus_spectrum,
    convergence_time,
    hitting_times,
    propagation_growth_rates,
    simulate_consensus,
    simulate_hitting_time,
    simulate_noisy_consensus,
    spectral_radius,
    steady_state_deviation,
)
from groupnets.experiments import measure
from groupnets.generators import MODALITIES, generate
from groupnets.graphs import Graph


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


K2 = Graph(2, [(0, 1)])
PATH3 = Graph(3, [(0, 1), (1, 2)])
STAR4 = Graph(4, [(0, 1), (0, 2), (0, 3)])
STAR6 = Graph(6, [(0, v) for v in range(1, 6)])


def random_connected(rng, n, p=0.5):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        from groupnets.graphs import is_connected

        if is_connected(g):
            return g


def brute_rho2(sys):
    s = np.sqrt(sys.pi)
    S = s[:, None] * sys.W / s[None, :]
    ev = np.linalg.eigvalsh((S + S.T) / 2)
    return max(abs(ev[0]), abs(ev[-2]))


def test_consensus_matrix_k2():
    sys = build_consensus_matrix(K2)
    assert np.allclose(sys.W, 0.5)
    assert np.allclose(sys.pi, 0.5)


def test_consensus_matrix_path3_stationary():
    sys = build_consensus_matrix(PATH3)
    assert sys.pi == pytest.approx([2 / 7, 3 / 7, 2 / 7], abs=1e-14)


def test_consensus_matrix_k4_uniform():
    sys = build_consensus_matrix(complete(4))
    assert np.allclose(sys.W, 0.25)


def test_consensus_matrix_requires_connected():
    with pytest.raises(ValueError):
        build_consensus_matrix(Graph(4, [(0, 1), (2, 3)]))


def test_consensus_spectrum_requires_connected(monkeypatch):
    # in the sparse regime the grounded Laplacian of a disconnected graph is
    # singular, so the check must come before its factorization
    for dense_max_n in (dynamics._DENSE_MAX_N, 0):
        monkeypatch.setattr(dynamics, "_DENSE_MAX_N", dense_max_n)
        with pytest.raises(ValueError, match="connected graph"):
            consensus_spectrum(Graph(4, [(0, 1), (2, 3)]))


def test_consensus_system_validation():
    W = np.array([[0.6, 0.3], [0.5, 0.5]])  # rows do not sum to 1
    with pytest.raises(ValueError):
        ConsensusSystem(W=W, pi=np.array([0.5, 0.5]))


def test_stationary_matches_eigenvector_oracle():
    # closed form (d_i+1)/(n+2|E|) against the dominant left eigenvector
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_connected(rng, int(rng.integers(3, 9)))
        sys = build_consensus_matrix(g)
        vals, vecs = np.linalg.eig(sys.W.T)
        lead = np.argmax(vals.real)
        v = np.abs(vecs[:, lead].real)
        v /= v.sum()
        assert np.abs(sys.pi - v).max() < 1e-10


def test_spectral_radius_closed_forms():
    assert spectral_radius(complete(5)) == pytest.approx(4.0, abs=1e-9)
    assert spectral_radius(PATH3) == pytest.approx(np.sqrt(2), abs=1e-9)
    assert spectral_radius(STAR4) == pytest.approx(np.sqrt(3), abs=1e-9)
    assert spectral_radius(K2) == pytest.approx(1.0, abs=1e-9)
    assert spectral_radius(Graph(1, [])) == 0.0
    assert spectral_radius(Graph(3, [])) == 0.0


def test_spectral_radius_near_degenerate_top():
    # the top two adjacency eigenvalues are 6.55532 and 6.55409; a power
    # iteration stopped on a small step overstated its accuracy here
    g = generate("liaison", 50, seed=7985145763100456188).graph
    assert g.n == 57
    ref = float(scipy.linalg.eigvalsh(g.to_dense())[-1])
    assert spectral_radius(g) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_solver_failures_raise_convergence_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("injected", np.empty(0), np.empty(0))

    def lapack_failure(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    # up to the small-graph switch lambda_max comes from LAPACK, above it from ARPACK
    monkeypatch.setattr(scipy.linalg, "eigvalsh", lapack_failure)
    with pytest.raises(ConvergenceError):
        spectral_radius(PATH3)
    monkeypatch.undo()
    monkeypatch.setattr(dynamics, "eigsh", no_convergence)
    monkeypatch.setattr(graphs, "_SMALL_MAX_N", 0)
    with pytest.raises(ConvergenceError):
        spectral_radius(PATH3)
    monkeypatch.setattr(dynamics, "_DENSE_MAX_N", 0)
    with pytest.raises(ConvergenceError):
        consensus_spectrum(PATH3)


def test_second_eigenvalue_closed_forms(monkeypatch):
    assert consensus_spectrum(K2)[0] == pytest.approx(0.0, abs=1e-9)
    assert consensus_spectrum(PATH3)[0] == pytest.approx(0.5, abs=1e-9)
    assert consensus_spectrum(complete(4))[0] == pytest.approx(0.0, abs=1e-9)
    # the sparse solver: P3 has lambda2 = 0.5 above the laziness bound
    # 1 - 2/(d_max + 1) = 1/3, so lambda2 alone is certified; the star K1,5
    # has lambda2 = 0.5 below its bound 2/3 and needs the lambda_min run
    # (lambda_min = -1/3)
    calls = []
    real = dynamics.eigsh

    def recorded(*args, **kwargs):
        calls.append(kwargs.get("which", "LM"))
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "eigsh", recorded)
    monkeypatch.setattr(dynamics, "_DENSE_MAX_N", 0)
    assert consensus_spectrum(PATH3)[0] == pytest.approx(0.5, abs=1e-9)
    assert calls == ["LA"]
    calls.clear()
    assert consensus_spectrum(STAR6)[0] == pytest.approx(0.5, abs=1e-9)
    assert calls == ["LA", "SA"]


def test_grounded_laplacian_is_laplacian_plus_corner():
    # M = D - A + e0 e0^T, entry for entry
    rng = np.random.default_rng(4)
    graphs_ = [random_connected(rng, int(rng.integers(2, 40))) for _ in range(30)]
    graphs_.append(generate("comembership", 300, seed=3).graph)
    for g in graphs_:
        want = np.diag(g.degrees().astype(np.float64)) - g.to_dense()
        want[0, 0] += 1.0
        assert np.array_equal(dynamics._grounded_laplacian(g).toarray(), want)


def test_dense_s_matches_sparse_build(monkeypatch):
    # up to _DENSE_MAX_N, the S handed to the dense eigensolver is
    # (D+I)^-1/2 (A+I) (D+I)^-1/2 built sparse, array for array, with and
    # without noise
    seen = []
    real = scipy.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        seen.append(a.copy())
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh", recorded)
    rng = np.random.default_rng(6)
    graphs_ = [random_connected(rng, int(rng.integers(1, 40))) for _ in range(20)]
    graphs_ += [generate(m, 130, seed=2).graph for m in MODALITIES]
    for g in graphs_:
        assert g.n <= dynamics._DENSE_MAX_N
        ref = g.to_csr() + scipy.sparse.identity(g.n, format="csr")
        d1 = np.diff(ref.indptr)
        rows = np.repeat(np.arange(g.n), d1)
        ref.data = 1.0 / np.sqrt(d1[rows] * d1[ref.indices])
        want = ref.toarray()
        for noise in (None, NoiseModel(1.0)):
            seen.clear()
            consensus_spectrum(g, noise)
            (S,) = seen
            assert S.dtype == want.dtype and np.array_equal(S, want)


def test_dense_rho2_does_not_depend_on_noise():
    # rho2 comes from the same eigvalsh call whether or not delta_ss is asked for
    for n in (10, 50, 100, 130):
        for m in MODALITIES:
            for seed in range(5):
                g = generate(m, n, seed=seed).graph
                assert g.n <= dynamics._DENSE_MAX_N
                assert consensus_spectrum(g)[0] == consensus_spectrum(g, NoiseModel(1.0))[0]


@pytest.mark.parametrize("g, solves", [
    # the star K1,299: lambda2 = 1/2 is below the laziness bound 1 - 2/300,
    # so lambda_min (-0.4967) takes a second Lanczos run
    (Graph(300, [(0, v) for v in range(1, 300)]), ["LA", "SA"]),
    # the path P300: a gap 1 - lambda2 of 3.7e-5
    (Graph(300, [(v, v + 1) for v in range(299)]), ["LA"]),
], ids=["star", "path"])
def test_rho2_above_dense_max_n_matches_dense_oracle(monkeypatch, g, solves):
    assert g.n > dynamics._DENSE_MAX_N
    d1 = g.degrees() + 1.0
    S = (g.to_dense() + np.eye(g.n)) / np.sqrt(np.outer(d1, d1))
    lam = scipy.linalg.eigvalsh(S)
    calls = []
    real = dynamics.eigsh

    def recorded(*args, **kwargs):
        calls.append(kwargs["which"])
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "eigsh", recorded)
    got = consensus_spectrum(g)[0]
    assert got == pytest.approx(max(lam[-2], -lam[0]), rel=1e-9, abs=0.0)
    assert calls == solves


def test_eigen_oracle_small_graphs():
    # brute-force eigendecomposition vs the solver paths
    rng = np.random.default_rng(1)
    for _ in range(200):
        g = random_connected(rng, int(rng.integers(3, 9)))
        lam = spectral_radius(g)
        lam_brute = float(np.linalg.eigvalsh(g.to_dense())[-1])
        assert abs(lam - lam_brute) < 1e-8
        sys = build_consensus_matrix(g)
        assert abs(consensus_spectrum(g)[0] - brute_rho2(sys)) < 1e-8


def test_eigen_oracle_lanczos_branch(monkeypatch):
    monkeypatch.setattr(dynamics, "_DENSE_MAX_N", 50)
    rng = np.random.default_rng(2)
    for _ in range(15):
        g = random_connected(rng, 100, p=0.08)
        sys = build_consensus_matrix(g)
        assert abs(consensus_spectrum(g)[0] - brute_rho2(sys)) < 1e-8


def test_edge_addition_never_decreases_spectral_radius():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(4, 9))
        g = random_connected(rng, n)
        present = set(map(tuple, g.edges.tolist()))
        non_edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in present
        ]
        if not non_edges:
            continue
        extra = non_edges[int(rng.integers(len(non_edges)))]
        before = float(np.linalg.eigvalsh(g.to_dense())[-1])
        after = float(np.linalg.eigvalsh(Graph(n, np.vstack((g.edges, extra))).to_dense())[-1])
        assert after >= before - 1e-12


def test_convergence_time():
    assert convergence_time(0.0) == 0.0
    assert convergence_time(0.5) == pytest.approx(1.0 / np.log(2.0), abs=1e-12)
    assert convergence_time(1.0 / np.e) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        convergence_time(1.0)
    with pytest.raises(ValueError):
        convergence_time(-0.1)


def test_propagation_growth_rates():
    assert propagation_growth_rates(4.0, 0.2, 1.0) == pytest.approx((0.8, -0.2))
    assert propagation_growth_rates(0.0, 0.2, 1.0) == pytest.approx((0.0, -1.0))
    si, sis = propagation_growth_rates(5.0, 0.2, 1.0)
    assert sis == pytest.approx(0.0, abs=1e-12)  # epidemic threshold
    with pytest.raises(ValueError):
        propagation_growth_rates(4.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        propagation_growth_rates(4.0, 1.0, -1.0)


def test_spectral_report_fields():
    # the spectral fields that measure reports, on K5 and the path P3
    k5 = measure(complete(5), NoiseModel(1.0), with_delta=False)
    assert k5["lambda_max"] == pytest.approx(4.0, abs=1e-9)
    assert k5["rho2"] == pytest.approx(0.0, abs=1e-9)
    rep = measure(PATH3, NoiseModel(1.0), with_delta=False)
    assert rep["lambda_max"] == pytest.approx(np.sqrt(2), abs=1e-9)
    assert rep["rho2"] == pytest.approx(0.5, abs=1e-9)
    assert rep["tau_asym"] == pytest.approx(1.0 / np.log(2.0), abs=1e-9)
    si, sis = propagation_growth_rates(rep["lambda_max"], beta=0.2, gamma=1.0)
    assert si == pytest.approx(0.2 * np.sqrt(2))
    assert sis == pytest.approx(0.2 * np.sqrt(2) - 1.0)


def test_hitting_times_closed_forms():
    sys2 = build_consensus_matrix(K2)
    rep2 = hitting_times(sys2)
    assert np.allclose(rep2.H, [[0.0, 2.0], [2.0, 0.0]], atol=1e-12)
    sys3 = build_consensus_matrix(complete(3))
    rep3 = hitting_times(sys3)
    expected = 3.0 * (1 - np.eye(3))
    assert np.allclose(rep3.H, expected, atol=1e-12)


def test_hitting_times_positive_off_diagonal():
    rng = np.random.default_rng(4)
    g = random_connected(rng, 7)
    rep = hitting_times(build_consensus_matrix(g))
    off = rep.H[~np.eye(7, dtype=bool)]
    assert (off > 0).all()
    assert np.allclose(np.diag(rep.H), 0.0)


def test_hitting_time_monte_carlo_oracle():
    rng = np.random.default_rng(5)
    g = random_connected(rng, 5)
    sys = build_consensus_matrix(g)
    rep = hitting_times(sys)
    est = simulate_hitting_time(sys, 0, 3, 200_000, np.random.default_rng(6))
    assert est == pytest.approx(rep.H[0, 3], rel=0.02)


def test_simulate_hitting_time_validation():
    sys = build_consensus_matrix(K2)
    with pytest.raises(ValueError):
        simulate_hitting_time(sys, 1, 1, 100, np.random.default_rng(0))


def test_steady_state_deviation_closed_forms(monkeypatch):
    sys2 = build_consensus_matrix(K2)
    H2 = hitting_times(sys2).H
    assert steady_state_deviation(sys2, H2, NoiseModel(1.0)) == pytest.approx(0.5, abs=1e-12)
    sys3 = build_consensus_matrix(complete(3))
    H3 = hitting_times(sys3).H
    assert steady_state_deviation(sys3, H3, NoiseModel(1.0)) == pytest.approx(2 / 3, abs=1e-12)
    assert steady_state_deviation(sys3, H3, NoiseModel(0.0)) == 0.0
    with pytest.raises(ValueError):
        steady_state_deviation(sys3, H2, NoiseModel(1.0))
    with pytest.raises(ValueError):
        steady_state_deviation(sys3, H3, NoiseModel((1.0, 1.0)))
    # consensus_spectrum in both regimes: K3 gives 2/3; P3 has C = 7,
    # pi = (2, 3, 2)/7, r = R pi = (1, 4/7, 1) and K = 40/49, so 304/343
    assert consensus_spectrum(K2, NoiseModel(1.0))[1] == pytest.approx(0.5, abs=1e-12)
    for dense_max_n in (dynamics._DENSE_MAX_N, 0):
        monkeypatch.setattr(dynamics, "_DENSE_MAX_N", dense_max_n)
        k3 = consensus_spectrum(complete(3), NoiseModel(1.0))[1]
        assert k3 == pytest.approx(2 / 3, abs=1e-12)
        p3 = consensus_spectrum(PATH3, NoiseModel(1.0))[1]
        assert p3 == pytest.approx(304 / 343, abs=1e-12)
        assert consensus_spectrum(PATH3, NoiseModel(0.0))[1] == 0.0


def test_simulate_consensus():
    sys = build_consensus_matrix(K2)
    traj = simulate_consensus(sys, np.ones(2), 5)
    assert np.allclose(traj.states, 1.0)
    traj = simulate_consensus(sys, np.array([0.0, 1.0]), 3)
    assert np.allclose(traj.states[1], 0.5)
    assert np.allclose(traj.states[3], 0.5)


def test_simulate_consensus_decay_rate():
    # error contracts like rho2^t = (1/2)^t on the 3-path
    sys = build_consensus_matrix(PATH3)
    x0 = np.array([1.0, 0.0, 0.0])
    target = float(sys.pi @ x0)
    traj = simulate_consensus(sys, x0, 40)
    errs = np.linalg.norm(traj.states - target, axis=1)
    ratios = errs[25:35] / errs[24:34]
    assert np.abs(ratios - 0.5).max() < 1e-6


def test_simulate_noisy_consensus_zero_noise():
    sys = build_consensus_matrix(complete(3))
    est = simulate_noisy_consensus(sys, NoiseModel(0.0), 100, 10, np.random.default_rng(0))
    assert est == pytest.approx(0.0, abs=1e-12)


def test_simulate_noisy_consensus_k2():
    sys = build_consensus_matrix(K2)
    est = simulate_noisy_consensus(
        sys, NoiseModel(1.0), horizon=100, replications=10_000, rng=np.random.default_rng(1)
    )
    assert est == pytest.approx(0.5, rel=0.05)


def test_simulate_noisy_consensus_matches_analytic_20_nodes():
    mg = generate("bridge", 20, seed=3)
    sys = build_consensus_matrix(mg.graph)
    H = hitting_times(sys).H
    analytic = steady_state_deviation(sys, H, NoiseModel(1.0))
    tau = convergence_time(consensus_spectrum(mg.graph)[0])
    horizon = max(200, int(100 * tau))
    est = simulate_noisy_consensus(
        sys, NoiseModel(1.0), horizon=horizon, replications=300, rng=np.random.default_rng(2)
    )
    assert est == pytest.approx(analytic, rel=0.05)


def test_generated_graph_invariants():
    # row sums, stationarity and detailed balance are asserted at
    # construction; touching several generated graphs exercises them
    for modality in ("bridge", "edge_bundle", "comembership", "liaison"):
        for seed in (0, 1):
            mg = generate(modality, 60, seed=seed)
            sys = build_consensus_matrix(mg.graph)
            assert abs(sys.pi.sum() - 1.0) < 1e-12


@st.composite
def connected_graphs(draw):
    """A connected graph of 2-30 nodes: a tree, a star, a complete graph, or
    a random tree plus random extra pairs."""
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(("tree", "star", "complete", "random")))
    if kind == "star":
        return Graph(n, [(0, v) for v in range(1, n)])
    if kind == "complete":
        return complete(n)
    pairs = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    if kind == "random":
        node = st.integers(0, n - 1)
        pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
        pairs += draw(st.lists(pair, max_size=2 * n))
    return Graph(n, pairs)


def oracle_delta(g, noise):
    sys = build_consensus_matrix(g)
    return steady_state_deviation(sys, hitting_times(sys).H, noise)


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data())
def test_block_cut_delta_matches_hitting_times(g, data):
    # the effective-resistance delta_ss against the Kemeny-Snell form, with
    # one noise variance or one per node
    if data.draw(st.booleans()):
        noise = NoiseModel(data.draw(st.floats(0.1, 3.0)))
    else:
        noise = NoiseModel(tuple(data.draw(st.lists(st.floats(0.0, 3.0), min_size=g.n,
                                                    max_size=g.n))))
    ref = oracle_delta(g, noise)
    got = dynamics._resistance_deviation(g, g.degrees() + 1, noise.variances(g.n))
    assert got == pytest.approx(ref, rel=1e-9, abs=0.0)
    if g.n > 1:  # Lanczos takes one eigenvalue, so k = 1 < n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_DENSE_MAX_N", 0)
            assert consensus_spectrum(g, noise)[1] == got


@pytest.mark.parametrize("modality", MODALITIES)
def test_block_cut_delta_on_generated_graphs(modality):
    # one graph per modality above the switch, where delta_ss takes the
    # block-cut path, against the Kemeny-Snell form
    n = {"bridge": 300, "edge_bundle": 400, "comembership": 500, "liaison": 450}[modality]
    g = generate(modality, n, seed=17).graph
    assert dynamics._DENSE_MAX_N < g.n <= 600
    rng = np.random.default_rng(18)
    for noise in (NoiseModel(1.7), NoiseModel(tuple(rng.uniform(0.1, 3.0, g.n).tolist()))):
        got = consensus_spectrum(g, noise)[1]
        assert got == pytest.approx(oracle_delta(g, noise), rel=1e-9, abs=0.0)


def test_block_cut_delta_allocates_no_square_array():
    # above the switch neither rho2 nor delta_ss takes an n-by-n array: the
    # largest block of this graph has 51 nodes
    g = generate("bridge", 2000, seed=1).graph
    consensus_spectrum(g, NoiseModel(1.0))  # imports and caches outside the count
    g = generate("bridge", 2000, seed=1).graph
    tracemalloc.start()
    try:
        consensus_spectrum(g, NoiseModel(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n * 8 / 4
