"""Tests of the per-layer tracer.

    python3 -m pytest bench/test_tracer.py
"""

import source

source.prepare()

import groupnets.experiments  # noqa: E402  (needs the source path set up above)
import groupnets.regression  # noqa: E402
from groupnets.experiments import SweepConfig  # noqa: E402
from tracer import Tracer  # noqa: E402

CFG = SweepConfig(sizes=(60,), replications=1, modalities=("bridge",), heavy_metrics_max_n=100)


def test_nested_times_and_peaks():
    tracer = Tracer(memory=True)
    tracer.install()
    try:
        groupnets.experiments.run_sweep(CFG)
    finally:
        tracer.uninstall()
    m = {k: v for k, (v, _) in tracer.metrics(1).items()}
    assert m["experiments.run_sweep.calls"] == 1
    assert m["experiments.compute_record.calls"] == 1
    assert m["dynamics.hitting_times.calls"] == 1
    assert 0 <= m["experiments.compute_record.self_ms"] < m["experiments.compute_record.ms"]
    assert m["experiments.run_sweep.ms"] >= m["experiments.compute_record.ms"]
    assert tracer.top_level_seconds * 1e3 == m["experiments.run_sweep.ms"]
    n_sq_mib = 60 * 60 * 8 / 2**20
    # the dense adjacency is one n-by-n array; W is built from it and more
    assert m["graphs.Graph.to_dense.peak_mb"] >= n_sq_mib
    assert m["dynamics.build_consensus_matrix.peak_mb"] >= m["graphs.Graph.to_dense.peak_mb"]
    assert m["dynamics.build_consensus_matrix.peak_mb"] >= m["dynamics.ConsensusSystem.peak_mb"]


def test_uninstall_restores_the_program():
    original = groupnets.experiments.compute_record
    tracer = Tracer()
    tracer.install()
    assert groupnets.experiments.compute_record is not original
    tracer.uninstall()
    assert groupnets.experiments.compute_record is original


def test_missing_name_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(groupnets.regression, "fit_ols")
    tracer = Tracer()
    tracer.install()
    try:
        groupnets.experiments.run_sweep(CFG)
    finally:
        tracer.uninstall()
    m = tracer.metrics(1)
    assert m["regression.fit_ols.calls"] == (0, "count")
    assert m["regression.fit_ols.ms"] == (0, "ms")
