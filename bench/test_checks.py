"""Negative control for the benchmark's output checks.

    python3 -m pytest bench/test_checks.py

A small sweep written by the program passes the checks; corrupting one
record's rho2, delta_ss or path length by 1e-6 relative, dropping one
record, or perturbing a regression coefficient each makes them fail.
"""

import copy
import json

import pytest

import source

source.prepare()

import checks  # noqa: E402  (needs the source path set up above)
from groupnets.cli import main as groupnets_main  # noqa: E402
from groupnets.experiments import SweepConfig, run_sweep, write_records_csv  # noqa: E402

CFG = SweepConfig(sizes=(12, 40), replications=2, master_seed=3, heavy_metrics_max_n=1000)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    csv_path = out / "runs.csv"
    write_records_csv(run_sweep(CFG), csv_path)
    fit_path = out / "fit.json"
    svg_path = out / "plot.svg"
    assert groupnets_main(["regress", "--in", str(csv_path), "--metric", "tau_asym",
                           "--out", str(fit_path)]) == 0
    assert groupnets_main(["plot", "--in", str(csv_path), "--metric", "delta_ss",
                           "--out", str(svg_path)]) == 0
    return checks.read_rows(csv_path), fit_path, svg_path


def test_program_outputs_pass(sweep):
    rows, fit_path, svg_path = sweep
    assert all(r["n_actual"] is not None for r in rows)
    assert checks.check_records(rows, CFG) == []
    assert checks.check_fit(rows, "tau_asym", fit_path) == []
    assert checks.check_svg(svg_path, rows, "delta_ss") == []


@pytest.mark.parametrize("column", ["rho2", "delta_ss", "avg_shortest_path"])
def test_corrupted_metric_fails(sweep, column):
    rows = copy.deepcopy(sweep[0])
    rows[5][column] *= 1.0 + 1e-6
    problems = checks.check_records(rows, CFG)
    assert problems and all("row 5 " in p for p in problems)
    assert any(p.split(": ")[1].startswith(column) for p in problems)


def test_dropped_record_fails(sweep):
    rows = sweep[0][:3] + sweep[0][4:]
    assert checks.check_records(rows, CFG) != []


def test_sampled_rows_skip_the_oracle_but_not_the_properties(sweep):
    rows = copy.deepcopy(sweep[0])
    rows[5]["avg_shortest_path"] *= 1.0 + 1e-6
    assert checks.check_records(rows, CFG, oracle_sample=(0,)) == []
    rows[5]["rho2"] = 1.0
    assert checks.check_records(rows, CFG, oracle_sample=(0,)) != []


def test_perturbed_fit_fails(sweep, tmp_path):
    rows, fit_path, _ = sweep
    fit = json.loads(fit_path.read_text())
    fit["coefficients"][2] *= 1.0 + 1e-4
    bad = tmp_path / "fit.json"
    bad.write_text(json.dumps(fit))
    assert checks.check_fit(rows, "tau_asym", bad) != []


def test_svg_missing_series_fails(sweep, tmp_path):
    _, _, svg_path = sweep
    text = svg_path.read_text()
    cut = text.index("<polyline")
    bad = tmp_path / "plot.svg"
    bad.write_text(text[:cut] + text[text.index("/>", cut) + 2:])
    assert checks.check_svg(bad, sweep[0], "delta_ss") != []
