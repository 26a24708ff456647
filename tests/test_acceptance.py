"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale sweeps use sizes 100..500 (step 100), 30 replications per
(modality, size) cell and master seed 0, fixed up front.  Criteria 1-3
run on a sweep without the O(n^3) hitting-time metrics (and carry the
2-minute runtime bound); criterion 4 re-runs the same grid with the
steady-state deviation enabled.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from groupnets.dynamics import (
    NoiseModel,
    build_consensus_matrix,
    consensus_spectrum,
    convergence_time,
    hitting_times,
    simulate_hitting_time,
    simulate_noisy_consensus,
    spectral_radius,
    steady_state_deviation,
)
from groupnets.experiments import SweepConfig, run_sweep, summarize, write_records_csv
from groupnets.generators import (
    MODALITIES,
    ModalityParams,
    generate,
    uniform_spanning_tree,
)
from groupnets.graphs import Graph, is_connected
from groupnets.regression import build_design, fit_ols

SIZES = (100, 200, 300, 400, 500)
REPS = 30
MASTER_SEED = 0

ORDER_BY_DEGREE = ("comembership", "edge_bundle", "bridge", "liaison")


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _cell(summaries, modality, n, metric):
    for row in summaries:
        if row.modality == modality and row.n == n and row.metric == metric:
            return row
    raise KeyError((modality, n, metric))


@pytest.fixture(scope="module")
def light_sweep():
    cfg = SweepConfig(
        sizes=SIZES, replications=REPS, master_seed=MASTER_SEED, heavy_metrics_max_n=0
    )
    t0 = time.time()
    records = run_sweep(cfg)
    elapsed = time.time() - t0
    return records, summarize(records), elapsed


@pytest.fixture(scope="module")
def heavy_sweep():
    cfg = SweepConfig(
        sizes=SIZES, replications=REPS, master_seed=MASTER_SEED, heavy_metrics_max_n=1000
    )
    records = run_sweep(cfg)
    return records, summarize(records)


def test_criterion_1_degree_ordering(light_sweep):
    records, summaries, elapsed = light_sweep
    problems = []
    for n in SIZES:
        if n < 200:
            continue
        means = [_cell(summaries, m, n, "avg_degree").mean for m in ORDER_BY_DEGREE]
        if not all(a > b for a, b in zip(means, means[1:])):
            problems.append(f"n={n} means " + " ".join(f"{m}={v:.3f}" for m, v in zip(ORDER_BY_DEGREE, means)))
    cells = [_cell(summaries, m, 500, "avg_degree") for m in ORDER_BY_DEGREE]
    for hi, lo in zip(cells, cells[1:]):
        if not hi.mean - hi.ci95 > lo.mean + lo.ci95:
            problems.append(
                f"CI overlap at n=500: {hi.modality} {hi.mean:.3f}+-{hi.ci95:.3f} vs "
                f"{lo.modality} {lo.mean:.3f}+-{lo.ci95:.3f}"
            )
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s >= 120s")
    detail = f"runtime {elapsed:.1f}s; " + ("; ".join(problems) if problems else "ordering and CI separation hold")
    _check(1, "degree ordering", not problems, detail)


def test_criterion_2_path_length(light_sweep):
    _, summaries, _ = light_sweep
    cells = {m: _cell(summaries, m, 500, "avg_shortest_path") for m in MODALITIES}
    problems = []
    liaison = cells["liaison"]
    others = [cells[m] for m in MODALITIES if m != "liaison"]
    if not all(liaison.mean > c.mean for c in others):
        problems.append(
            "liaison mean not largest: "
            + " ".join(f"{c.modality}={c.mean:.2f}" for c in cells.values())
        )
    for i, a in enumerate(others):
        for b in others[i + 1 :]:
            overlap = (a.mean - a.ci95 <= b.mean + b.ci95) and (b.mean - b.ci95 <= a.mean + a.ci95)
            if not overlap:
                problems.append(
                    f"{a.modality} ({a.mean:.2f}+-{a.ci95:.2f}) and {b.modality} "
                    f"({b.mean:.2f}+-{b.ci95:.2f}) CIs do not overlap"
                )
    detail = "; ".join(problems) if problems else "liaison largest, others overlap"
    _check(2, "path-length separation", not problems, detail)


def test_criterion_3_convergence_time_ordering(light_sweep):
    _, summaries, _ = light_sweep
    cells = {m: _cell(summaries, m, 500, "tau_asym") for m in MODALITIES}
    means = {m: c.mean for m, c in cells.items()}
    problems = []
    if max(means, key=means.get) != "bridge":
        problems.append("bridge mean tau not largest: " + _fmt_means(means))
    if min(means, key=means.get) != "liaison":
        problems.append("liaison mean tau not smallest: " + _fmt_means(means))
    detail = "; ".join(problems) if problems else _fmt_means(means)
    _check(3, "convergence-time ordering", not problems, detail)


def test_criterion_4_noise_deviation_ordering(heavy_sweep):
    _, summaries = heavy_sweep
    means = {m: _cell(summaries, m, 500, "delta_ss").mean for m in MODALITIES}
    ok = max(means, key=means.get) == "bridge"
    _check(4, "noise-deviation ordering", ok, _fmt_means(means))


def _fmt_means(means):
    return " ".join(f"{m}={v:.3f}" for m, v in sorted(means.items()))


def test_criterion_5_regression_signs(heavy_sweep):
    records, _ = heavy_sweep
    coef = {}
    for response in ("lambda_max", "tau_asym", "delta_ss"):
        X, y = build_design(records, response)
        fit = fit_ols(X, y, response=response)
        coef[response] = dict(zip(fit.design.regressors, fit.coefficients))
    problems = []
    if not coef["lambda_max"]["Degree"] > 0:
        problems.append(f"lambda Degree {coef['lambda_max']['Degree']:.3g} not > 0")
    if not coef["lambda_max"]["Co-membership"] < 0:
        problems.append(f"lambda Co-membership {coef['lambda_max']['Co-membership']:.3g} not < 0")
    for resp in ("tau_asym", "delta_ss"):
        if not coef[resp]["Degree"] < 0:
            problems.append(f"{resp} Degree {coef[resp]['Degree']:.3g} not < 0")
        for flag in ("Edge-bundle", "Co-membership", "Liaison"):
            if not coef[resp][flag] < 0:
                problems.append(f"{resp} {flag} {coef[resp][flag]:.3g} not < 0")
    detail = "; ".join(problems) if problems else "all required signs reproduced"
    _check(5, "regression signs", not problems, detail)


def test_criterion_6_closed_form_oracles():
    problems = []

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        modality = MODALITIES[int(rng.integers(4))]
        mg = generate(modality, int(rng.integers(20, 80)), seed=int(rng.integers(1 << 30)))
        g = mg.graph
        sys = build_consensus_matrix(g)
        d = g.degrees()
        closed = (d + 1.0) / (g.n + 2.0 * g.edge_count)
        worst = max(worst, float(np.abs(sys.pi - closed).max()))
        worst = max(worst, float(np.abs(sys.pi @ sys.W - sys.pi).max()))
    if worst > 1e-12:
        problems.append(f"stationary closed form off by {worst:.2e}")

    def complete(n):
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    k2 = build_consensus_matrix(Graph(2, [(0, 1)]))
    k3 = build_consensus_matrix(complete(3))
    checks = [
        ("H(K2)", hitting_times(k2).H[0, 1], 2.0),
        ("H(K3)", hitting_times(k3).H[0, 1], 3.0),
        ("dss(K2)", steady_state_deviation(k2, hitting_times(k2).H, NoiseModel(1.0)), 0.5),
        ("dss(K3)", steady_state_deviation(k3, hitting_times(k3).H, NoiseModel(1.0)), 2.0 / 3.0),
        ("rho2(path3)", consensus_spectrum(Graph(3, [(0, 1), (1, 2)]))[0], 0.5),
        ("tau(1/2)", convergence_time(0.5), 1.0 / math.log(2.0)),
        ("lambda(K5)", spectral_radius(complete(5)), 4.0),
        ("lambda(star4)", spectral_radius(Graph(4, [(0, 1), (0, 2), (0, 3)])), math.sqrt(3.0)),
    ]
    for name, got, want in checks:
        if abs(got - want) > 1e-9:
            problems.append(f"{name} = {got!r}, expected {want!r}")
    detail = "; ".join(problems) if problems else f"all closed forms within 1e-9 (pi worst {worst:.1e})"
    _check(6, "closed-form oracles", not problems, detail)


def test_criterion_7_simulation_oracles():
    problems = []

    # analytic hitting times vs 1e6 sampled walks on a 5-node graph
    g5 = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])
    assert is_connected(g5)
    sys5 = build_consensus_matrix(g5)
    H = hitting_times(sys5).H
    est = simulate_hitting_time(sys5, 0, 4, 1_000_000, np.random.default_rng(10))
    if abs(est - H[0, 4]) > 0.02 * H[0, 4]:
        problems.append(f"hitting MC {est:.4f} vs analytic {H[0, 4]:.4f}")

    # simulated noisy consensus vs the hitting-time formula on 20 nodes
    mg = generate("bridge", 20, seed=3)
    sys20 = build_consensus_matrix(mg.graph)
    analytic = steady_state_deviation(sys20, hitting_times(sys20).H, NoiseModel(1.0))
    tau = convergence_time(consensus_spectrum(mg.graph)[0])
    horizon = max(200, int(100 * tau))
    sim = simulate_noisy_consensus(
        sys20, NoiseModel(1.0), horizon=horizon, replications=400,
        rng=np.random.default_rng(11),
    )
    if abs(sim - analytic) > 0.05 * analytic:
        problems.append(f"noisy-consensus MC {sim:.4f} vs analytic {analytic:.4f}")

    # brute-force eigendecomposition vs iterative paths on 200 small graphs
    rng = np.random.default_rng(12)
    worst_l = worst_r = 0.0
    count = 0
    while count < 200:
        n = int(rng.integers(3, 9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        if not is_connected(g):
            continue
        count += 1
        a = g.to_dense()
        worst_l = max(worst_l, abs(spectral_radius(g) - float(np.linalg.eigvalsh(a)[-1])))
        sys = build_consensus_matrix(g)
        s = np.sqrt(sys.pi)
        S = s[:, None] * sys.W / s[None, :]
        ev = np.linalg.eigvalsh((S + S.T) / 2)
        brute = max(abs(ev[0]), abs(ev[-2]))
        worst_r = max(worst_r, abs(consensus_spectrum(g)[0] - brute))
    if worst_l > 1e-8:
        problems.append(f"lambda mismatch {worst_l:.2e}")
    if worst_r > 1e-8:
        problems.append(f"rho2 mismatch {worst_r:.2e}")

    detail = "; ".join(problems) if problems else (
        f"hitting 2%, dss 5%, eigen worst {max(worst_l, worst_r):.1e}"
    )
    _check(7, "simulation oracles", not problems, detail)


def test_criterion_8_generator_invariants():
    problems = []
    params = ModalityParams()
    n = 50
    for modality in MODALITIES:
        for seed in range(1000):
            mg = generate(modality, n, params, seed)
            if sum(mg.group_sizes.sizes) != n:
                problems.append(f"{modality} seed {seed}: sizes do not sum to {n}")
                break
            if not is_connected(mg.graph):
                problems.append(f"{modality} seed {seed}: disconnected output")
                break
            home = {}
            for gi, members in enumerate(mg.groups):
                for v in members:
                    home[v] = gi
            if modality == "liaison":
                liaisons = set(mg.liaison_nodes)
                if mg.group_count > 1:
                    root = max(liaisons)
                    bad = False
                    degrees = mg.graph.degrees()
                    for lid in liaisons:
                        deg = degrees[lid]
                        branching = deg if lid == root else deg - 1
                        if branching not in (2, 3):
                            problems.append(f"liaison seed {seed}: branching {branching}")
                            bad = True
                            break
                    if bad:
                        break
                continue
            cross = {}
            for u, v in mg.graph.edges:
                gu, gv = home[u], home[v]
                if gu != gv:
                    cross.setdefault((min(gu, gv), max(gu, gv)), []).append((u, v))
            if set(cross) != set(mg.tree.sorted_edges()):
                problems.append(f"{modality} seed {seed}: cross edges off the tree")
                break
            counts = [len(v) for v in cross.values()]
            if modality == "bridge":
                if sum(counts) != mg.group_count - 1 or any(c != 1 for c in counts):
                    problems.append(f"bridge seed {seed}: cross-edge count {sum(counts)}")
                    break
            elif modality == "edge_bundle":
                if any(c < 2 for c in counts):
                    problems.append(f"edge_bundle seed {seed}: bundle below 2")
                    break
            elif modality == "comembership":
                ok = all(c >= 3 for c in counts)
                for edges in cross.values():
                    shared = set(edges[0])
                    for e in edges[1:]:
                        shared &= set(e)
                    ok = ok and len(shared) >= 1
                if not ok:
                    problems.append(f"comembership seed {seed}: bundle/initiator violated")
                    break

    # Prufer uniformity over the 16 labeled trees on 4 nodes
    rng = np.random.default_rng(2024)
    draws = 16_000
    counts = Counter(
        tuple(uniform_spanning_tree(4, rng).sorted_edges()) for _ in range(draws)
    )
    expected = draws / 16
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    from scipy.stats import chi2

    p = chi2.sf(stat, df=15)
    if len(counts) != 16 or p <= 0.001:
        problems.append(f"Prufer chi-square p={p:.2e} over {len(counts)} trees")

    detail = "; ".join(problems) if problems else f"4000 seeds clean; Prufer p={p:.3f}"
    _check(8, "generator invariants", not problems, detail)


def test_criterion_9_determinism(tmp_path):
    cfg = SweepConfig(sizes=(50, 100), replications=2, master_seed=9)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    write_records_csv(run_sweep(cfg), paths[0])
    write_records_csv(run_sweep(cfg), paths[1])
    write_records_csv(run_sweep(cfg, workers=8), paths[2])
    same_serial = paths[0].read_bytes() == paths[1].read_bytes()
    same_parallel = paths[0].read_bytes() == paths[2].read_bytes()
    ok = same_serial and same_parallel
    _check(9, "determinism", ok,
           f"serial repeat identical: {same_serial}; 8-worker identical: {same_parallel}")
