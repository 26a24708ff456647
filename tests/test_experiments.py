import json
import math

import networkx as nx
import numpy as np
import pytest
import scipy.linalg

from groupnets import dynamics, experiments, graphs
from groupnets.dynamics import (
    NoiseModel,
    build_consensus_matrix,
    hitting_times,
    steady_state_deviation,
)
from groupnets.experiments import (
    CSV_FIELDS,
    METRIC_FIELDS,
    MetricsRecord,
    SweepConfig,
    compute_record,
    measure,
    read_records_csv,
    replication_seed,
    run_sweep,
    summarize,
    write_records_csv,
)
from groupnets.generators import MODALITIES, GenerationError, ModalityParams, generate
from groupnets.graphs import Graph


SMALL = SweepConfig(sizes=(20, 40), replications=2, master_seed=5)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(sizes=(), replications=1)
    with pytest.raises(ValueError):
        SweepConfig(sizes=(40, 20), replications=1)
    with pytest.raises(ValueError):
        SweepConfig(sizes=(20, 20), replications=1)
    with pytest.raises(ValueError):
        SweepConfig(sizes=(20,), replications=0)
    with pytest.raises(ValueError):
        SweepConfig(sizes=(20,), replications=1, modalities=("ring",))
    with pytest.raises(ValueError):
        SweepConfig(sizes=(20,), replications=1, master_seed=-3)


def test_config_rejects_sizes_below_minimum():
    with pytest.raises(ValueError, match="at least 3"):
        SweepConfig(sizes=(2,), replications=1)
    SweepConfig(sizes=(3,), replications=1)


def test_config_rejects_per_node_noise():
    # one variance per node cannot fit every record: n_actual varies
    with pytest.raises(ValueError, match="scalar noise"):
        SweepConfig(sizes=(20,), replications=1, noise=NoiseModel((1.0,) * 20))
    text = SweepConfig(sizes=(20,), replications=1).to_json_text()
    with pytest.raises(ValueError, match="scalar noise"):
        SweepConfig.from_json_text(text.replace('"sigma2": 1.0', '"sigma2": [1.0, 2.0]'))


@pytest.mark.parametrize("section, key", [
    (None, "replicatons"),
    ("params", "epsilom"),
    ("noise", "sigma"),
])
def test_config_json_rejects_unknown_keys(section, key):
    payload = json.loads(SweepConfig(sizes=(20,), replications=1).to_json_text())
    (payload[section] if section else payload)[key] = 1
    with pytest.raises(ValueError, match=key):
        SweepConfig.from_json_text(json.dumps(payload))


@pytest.mark.parametrize("key, value, message", [
    ("sizes", 10, "sizes must be a list"),
    ("sizes", [10.5], "sizes must be integers"),
    ("modalities", "bridge", "modalities must be a list"),
    ("replications", 1.7, "replications must be an integer"),
    ("replications", True, "replications must be an integer"),
    ("master_seed", "5", "master_seed must be an integer"),
    ("heavy_metrics_max_n", 600.5, "heavy_metrics_max_n must be an integer"),
    ("params.branching_pmf", 5, "branching_pmf must be an object"),
    ("params.branching_pmf", {"two": 1.0}, "branching_pmf must map integer strings"),
    ("params.branching_pmf", {"2": "1"}, "branching_pmf must map integer strings"),
    ("params.branching_pmf", {"2": -1.0, "3": 1.0}, "finite and nonnegative"),
    ("params.branching_pmf", {"2": math.nan, "3": 1.0}, "finite and nonnegative"),
    ("params.branching_pmf", {"2": math.inf}, "finite and nonnegative"),
    ("params.branching_pmf", {}, "finite and nonnegative with positive sum"),
    ("params.bundle_scale", True, "bundle_scale must be a number"),
    ("params.bundle_scale", math.inf, "bundle_scale must be positive and finite"),
    ("params.bundle_scale", math.nan, "bundle_scale must be positive and finite"),
    ("params.epsilon", "0.1", "epsilon must be a number"),
    ("params.comember_inclusion", [0.5], "comember_inclusion must be a number or null"),
    ("params", 5, "params must be a JSON object"),
])
def test_config_json_rejects_wrong_types(key, value, message):
    payload = json.loads(SweepConfig(sizes=(20,), replications=1).to_json_text())
    section, _, name = key.rpartition(".")
    (payload[section] if section else payload)[name] = value
    with pytest.raises(ValueError, match=message):
        SweepConfig.from_json_text(json.dumps(payload))


@pytest.mark.parametrize("sigma2", [-1.0, math.nan, math.inf])
def test_config_rejects_bad_noise_variance(sigma2):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SweepConfig(sizes=(20,), replications=1, noise=NoiseModel(sigma2))
    text = SweepConfig(sizes=(20,), replications=1).to_json_text()
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SweepConfig.from_json_text(text.replace('"sigma2": 1.0', f'"sigma2": {json.dumps(sigma2)}'))


def test_config_json_rejects_null_noise_variance():
    text = SweepConfig(sizes=(20,), replications=1).to_json_text()
    with pytest.raises(ValueError, match="scalar noise"):
        SweepConfig.from_json_text(text.replace('"sigma2": 1.0', '"sigma2": null'))


def test_config_json_roundtrip():
    cfg = SweepConfig(
        sizes=(50, 100),
        replications=3,
        modalities=("bridge", "liaison"),
        master_seed=11,
        params=ModalityParams(epsilon=0.2, bundle_scale=0.1),
        noise=NoiseModel(2.0),
        heavy_metrics_max_n=123,
    )
    back = SweepConfig.from_json_text(cfg.to_json_text())
    assert back == cfg


def test_replication_seed_stable():
    # frozen values guard against accidental changes to the derivation
    assert replication_seed(0, "bridge", 100, 0) == replication_seed(0, "bridge", 100, 0)
    assert replication_seed(0, "bridge", 100, 0) != replication_seed(0, "bridge", 100, 1)
    assert replication_seed(0, "bridge", 100, 0) != replication_seed(1, "bridge", 100, 0)
    assert replication_seed(0, "bridge", 100, 0) != replication_seed(0, "liaison", 100, 0)


def test_sweep_cardinality_and_order():
    records = run_sweep(SMALL)
    assert len(records) == 4 * 2 * 2
    keys = [(r.modality, r.n_requested) for r in records]
    assert keys == sorted(keys)


def test_sweep_liaison_n_actual():
    records = run_sweep(SMALL)
    for r in records:
        if r.modality == "liaison":
            assert r.n_actual > r.n_requested
        else:
            assert r.n_actual == r.n_requested
        for metric in METRIC_FIELDS:
            value = getattr(r, metric)
            assert value is not None and math.isfinite(value)


def test_sweep_deterministic_csv(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(run_sweep(SMALL), p1)
    write_records_csv(run_sweep(SMALL), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_parallel_equals_serial(tmp_path):
    p1, p2 = tmp_path / "s.csv", tmp_path / "w.csv"
    write_records_csv(run_sweep(SMALL), p1)
    write_records_csv(run_sweep(SMALL, workers=2), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_roundtrip(tmp_path):
    records = run_sweep(SMALL)
    path = tmp_path / "r.csv"
    write_records_csv(records, path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_FIELDS)
    assert "\r" not in text
    back = read_records_csv(path)
    assert back == records


def test_heavy_metric_gate():
    cfg = SweepConfig(sizes=(20,), replications=1, heavy_metrics_max_n=0)
    records = run_sweep(cfg)
    assert all(r.delta_ss is None for r in records)
    assert all(r.rho2 is not None for r in records)


def test_heavy_metric_gate_uses_requested_size():
    # liaison graphs requested at n = 515 have about 580-615 nodes; the cap
    # of 600 applies to the requested size, so no replication loses delta_ss
    cfg = SweepConfig(sizes=(515,), replications=12, modalities=("liaison",))
    records = run_sweep(cfg)
    assert max(r.n_actual for r in records) > cfg.heavy_metrics_max_n
    assert all(r.delta_ss is not None for r in records)


def _brute_rho2(sys):
    s = np.sqrt(sys.pi)
    S = s[:, None] * sys.W / s[None, :]
    ev = scipy.linalg.eigvalsh((S + S.T) / 2)
    return max(ev[-2], -ev[0])


def test_measure_matches_dense_oracles(monkeypatch):
    # every field of measure against an independent reference: delta_ss
    # against the Kemeny-Snell hitting-time form, rho2 and lambda_max
    # against brute-force eigvalsh, the structural fields against networkx;
    # rho2 on both sides of the dense/Lanczos size switch, lambda_max and
    # clustering on both sides of the small-graph switch; the absolute
    # floor covers a rho2 of exactly 0 (complete graphs)
    rng = np.random.default_rng(8)
    for trial in range(120):
        modality = MODALITIES[trial % 4]
        g = generate(modality, int(rng.integers(3, 121)), seed=int(rng.integers(1 << 30))).graph
        sys = build_consensus_matrix(g)
        if trial % 2:
            noise = NoiseModel(tuple(float(v) for v in rng.uniform(0.1, 3.0, g.n)))
        else:
            noise = NoiseModel(float(rng.uniform(0.1, 3.0)))
        ref_delta = steady_state_deviation(sys, hitting_times(sys).H, noise)
        ref_rho2 = _brute_rho2(sys)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges.tolist())
        got = measure(g, noise, with_delta=True)
        assert got["delta_ss"] == pytest.approx(ref_delta, rel=1e-9, abs=0.0)
        assert got["rho2"] == pytest.approx(ref_rho2, rel=1e-9, abs=1e-12)
        ref_lambda = float(scipy.linalg.eigvalsh(g.to_dense())[-1])
        assert got["lambda_max"] == pytest.approx(ref_lambda, rel=1e-12, abs=0.0)
        assert got["avg_shortest_path"] == pytest.approx(
            nx.average_shortest_path_length(nxg), rel=0.0, abs=1e-12)
        ref_clustering = nx.average_clustering(nxg)
        assert got["clustering"] == pytest.approx(ref_clustering, rel=0.0, abs=1e-12)
        assert got["density"] == pytest.approx(nx.density(nxg), rel=0.0, abs=1e-12)
        assert got["avg_degree"] == pytest.approx(
            sum(d for _, d in nxg.degree()) / g.n, rel=0.0, abs=1e-12)
        for switch in (g.n, g.n - 1):
            monkeypatch.setattr(dynamics, "_DENSE_MAX_N", switch)
            monkeypatch.setattr(graphs, "_SMALL_MAX_N", switch)
            got = measure(g, noise, with_delta=False)
            assert got["delta_ss"] is None
            assert got["rho2"] == pytest.approx(ref_rho2, rel=1e-9, abs=1e-12)
            assert got["lambda_max"] == pytest.approx(ref_lambda, rel=1e-12, abs=0.0)
            assert got["clustering"] == pytest.approx(ref_clustering, rel=0.0, abs=1e-12)


def test_lanczos_rho2_above_dense_max_n():
    g = generate("bridge", dynamics._DENSE_MAX_N + 50, seed=1).graph
    got = measure(g, NoiseModel(1.0), with_delta=False)
    assert got["rho2"] == pytest.approx(_brute_rho2(build_consensus_matrix(g)), rel=1e-9)


def test_eigensolver_failure_gives_bare_record(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    # delta_ss is on, so the dense regime factors Z^-1
    monkeypatch.setattr(scipy.linalg, "cholesky", failing)
    cfg = SweepConfig(sizes=(20,), replications=2, modalities=("bridge",))
    record = compute_record("bridge", 20, 0, cfg)
    assert record.n_actual is None
    assert all(getattr(record, m) is None for m in METRIC_FIELDS)
    records = run_sweep(cfg)
    assert len(records) == 2
    assert all(r.n_actual is None for r in records)
    # above the switch delta_ss factors the block Laplacians, not S
    monkeypatch.undo()
    monkeypatch.setattr(np.linalg, "cholesky", failing)
    size = dynamics._DENSE_MAX_N + 50
    cfg = SweepConfig(sizes=(size,), replications=2, modalities=("bridge",))
    record = compute_record("bridge", size, 0, cfg)
    assert record.n_actual is None
    assert all(getattr(record, m) is None for m in METRIC_FIELDS)
    records = run_sweep(cfg)
    assert len(records) == 2
    assert all(r.n_actual is None for r in records)
    # the same record without delta_ss needs no block factorization
    cfg = SweepConfig(sizes=(size,), replications=1, modalities=("bridge",),
                      heavy_metrics_max_n=0)
    assert compute_record("bridge", size, 0, cfg).rho2 is not None


def test_measure_shares_one_block_search(monkeypatch):
    # above both switches, the path lengths and delta_ss of a record come
    # from one depth-first search of the graph and one pass over its edges
    calls = []
    searches = graphs.csgraph.depth_first_order
    edge_slices = graphs._edge_slices

    def counted(real):
        def call(*args, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(graphs.csgraph, "depth_first_order", counted(searches))
    monkeypatch.setattr(graphs, "_edge_slices", counted(edge_slices))
    g = generate("edge_bundle", dynamics._DENSE_MAX_N + 50, seed=4).graph
    got = measure(g, NoiseModel(1.0), with_delta=True)
    assert calls.count(searches) == 1
    assert calls.count(edge_slices) == 1
    sys = build_consensus_matrix(g)
    assert got["delta_ss"] == pytest.approx(
        steady_state_deviation(sys, hitting_times(sys).H, NoiseModel(1.0)), rel=1e-9, abs=0.0)


def test_failure_rows(monkeypatch, tmp_path):
    calls = {}

    real = experiments.generate

    def flaky(modality, size, params, seed):
        if modality == "bridge" and calls.setdefault("fail", seed) == seed:
            raise GenerationError("injected failure")
        return real(modality, size, params, seed)

    monkeypatch.setattr(experiments, "generate", flaky)
    cfg = SweepConfig(sizes=(20,), replications=2, modalities=("bridge", "liaison"))
    records = run_sweep(cfg)
    assert len(records) == 4
    failed = [r for r in records if r.n_actual is None]
    assert len(failed) == 1
    assert failed[0].modality == "bridge"
    assert all(getattr(failed[0], m) is None for m in METRIC_FIELDS)
    # failure rows survive the CSV roundtrip with empty cells
    path = tmp_path / "fail.csv"
    write_records_csv(records, path)
    assert read_records_csv(path) == records


def test_summarize_hand_values():
    recs = [
        MetricsRecord(modality="bridge", n_requested=50, seed=0, avg_degree=1.0),
        MetricsRecord(modality="bridge", n_requested=50, seed=1, avg_degree=3.0),
    ]
    (row,) = summarize(recs)
    assert row.metric == "avg_degree"
    assert row.mean == pytest.approx(2.0)
    assert row.std_error == pytest.approx(math.sqrt(2.0) / math.sqrt(2.0))
    assert row.ci95 == pytest.approx(1.96 * row.std_error)
    assert row.count == 2


def test_summarize_identical_records():
    recs = [
        MetricsRecord(modality="bridge", n_requested=50, seed=i, clustering=0.5)
        for i in range(3)
    ]
    (row,) = summarize(recs)
    assert row.std_error == 0.0
    assert row.ci95 == 0.0


def test_summarize_single_record_missing_ci():
    recs = [MetricsRecord(modality="bridge", n_requested=50, seed=0, rho2=0.9)]
    (row,) = summarize(recs)
    assert row.std_error is None
    assert row.ci95 is None
    assert row.count == 1


def test_summarize_cardinality():
    records = run_sweep(SMALL)
    rows = summarize(records)
    assert len(rows) == 4 * 2 * len(METRIC_FIELDS)
