import json

import numpy as np
import pytest

from groupnets.cli import main
from groupnets.dynamics import NoiseModel
from groupnets.experiments import METRIC_FIELDS, SweepConfig, measure, read_records_csv, run_sweep
from groupnets.generators import ModalityParams, generate
from groupnets.graphs import read_edge_list


def run(*argv):
    return main(list(argv))


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("gen", "--modality", "bridge", "--n", "50", "--seed", "7", "--out", str(a)) == 0
    assert run("gen", "--modality", "bridge", "--n", "50", "--seed", "7", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_formats(tmp_path):
    edges = tmp_path / "g.edges"
    dot = tmp_path / "g.dot"
    assert run("gen", "--modality", "liaison", "--n", "30", "--seed", "1",
               "--out", str(edges), "--format", "edges") == 0
    g = read_edge_list(edges)
    mg = generate("liaison", 30, seed=1)
    assert np.array_equal(g.edges, mg.graph.edges)
    assert run("gen", "--modality", "liaison", "--n", "30", "--seed", "1",
               "--out", str(dot), "--format", "dot") == 0
    assert "subgraph cluster_0" in dot.read_text()


def test_gen_then_metrics_matches_in_process(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert run("gen", "--modality", "comembership", "--n", "40", "--seed", "3",
               "--out", str(path)) == 0
    assert run("metrics", "--in", str(path)) == 0
    payload = json.loads(capsys.readouterr().out)

    # measure() is what the command calls; the oracle tests in
    # test_experiments tie it to the dense reference computations
    mg = generate("comembership", 40, seed=3)
    expected = measure(mg.graph, NoiseModel(1.0), with_delta=True)
    assert {f: payload[f] for f in METRIC_FIELDS} == expected
    assert expected["delta_ss"] is not None
    assert payload["group_count"] == mg.group_count


def test_metrics_out_file(tmp_path):
    g = tmp_path / "g.json"
    out = tmp_path / "m.json"
    run("gen", "--modality", "bridge", "--n", "30", "--seed", "0", "--out", str(g))
    assert run("metrics", "--in", str(g), "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["n_actual"] == 30


def test_sweep_flags_and_cardinality(tmp_path):
    out = tmp_path / "runs.csv"
    assert run("sweep", "--sizes", "30,60", "--reps", "2", "--seed", "3",
               "--out", str(out)) == 0
    records = read_records_csv(out)
    assert len(records) == 16


def test_sweep_with_config(tmp_path):
    cfg = SweepConfig(sizes=(30,), replications=2, modalities=("bridge",), master_seed=4)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json_text())
    out = tmp_path / "runs.csv"
    assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
    records = read_records_csv(out)
    assert len(records) == 2
    assert {r.modality for r in records} == {"bridge"}


@pytest.mark.parametrize("flag, value, params", [
    ("--eps", "0.2", {"epsilon": 0.2}),
    ("--bundle-scale", "0.1", {"bundle_scale": 0.1}),
])
def test_sweep_flags_keep_config_params(tmp_path, flag, value, params):
    # the flags override one field; the file's other params stay, and an
    # inclusion the file leaves unset follows epsilon
    for inclusion in ({"comember_inclusion": 0.5}, {}):
        payload = {"sizes": [30], "replications": 1,
                   "modalities": ["comembership", "edge_bundle", "liaison"],
                   "params": {"branching_pmf": {"2": 1.0}, **inclusion}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "runs.csv"
        assert run("sweep", "--config", str(cfg_path), flag, value, "--out", str(out)) == 0
        want = SweepConfig(sizes=(30,), replications=1, modalities=tuple(payload["modalities"]),
                           params=ModalityParams(branching_pmf={2: 1.0}, **inclusion, **params))
        assert read_records_csv(out) == run_sweep(want)


def test_sweep_flags_get_config_checks(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    assert run("sweep", "--sizes", "30", "--reps", "1", "--eps", "1.5", "--out", str(out)) == 2
    assert "epsilon must lie in (0,1)" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"sizes": [30], "replications": 1, "params": 5}')
    assert run("sweep", "--config", str(cfg_path), "--eps", "0.2", "--out", str(out)) == 2
    assert "params must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_missing_sizes_is_computation_error(tmp_path):
    out = tmp_path / "runs.csv"
    assert run("sweep", "--out", str(out)) == 2


@pytest.mark.parametrize("text, message", [
    ('{"sizes": 10, "replications": 1}', "sizes must be a list"),
    ('{"sizes": [10], "replications": 1, "modalities": "bridge"}', "modalities must be a list"),
    ('{"sizes": [10], "replications": 1, "noise": {"sigma2": NaN}}', "finite and nonnegative"),
    ('{"sizes": [10], "replications": 1, "params": {"branching_pmf": 5}}',
     "branching_pmf must be an object"),
    ('{"sizes": [10], "replications": 1, "params": {"bundle_scale": Infinity}}',
     "bundle_scale must be positive and finite"),
    ('{"sizes": [10], "replications": 1, "params": {"bundle_scale": NaN}}',
     "bundle_scale must be positive and finite"),
    ('{"sizes": [10], "replications": 1, "params": {"bundle_scale": true}}',
     "bundle_scale must be a number"),
    ('{"sizes": [10], "replications": 1, "params": {"epsilon": "0.1"}}',
     "epsilon must be a number"),
    ('{"replications": 1}', "missing required keys: ['sizes']"),
    ('[10]', "config must be a JSON object"),
])
def test_sweep_bad_config_is_one_error_line(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "runs.csv"
    assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_regress_table_and_json(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    run("sweep", "--sizes", "30,60", "--reps", "3", "--seed", "1", "--out", str(out))
    fit_json = tmp_path / "fit.json"
    assert run("regress", "--in", str(out), "--metric", "lambda_max",
               "--out", str(fit_json)) == 0
    table = capsys.readouterr().out
    assert "Co-membership" in table
    assert "R^2" in table
    payload = json.loads(fit_json.read_text())
    assert len(payload["coefficients"]) == 7


def test_plot_four_series(tmp_path):
    runs = tmp_path / "runs.csv"
    svg = tmp_path / "deg.svg"
    run("sweep", "--sizes", "30,60", "--reps", "2", "--seed", "2", "--out", str(runs))
    assert run("plot", "--in", str(runs), "--metric", "avg_degree", "--out", str(svg)) == 0
    text = svg.read_text()
    assert text.count("<polyline") == 4


def test_usage_errors_exit_1(capsys):
    assert run("unknown-command") == 1
    assert run("gen", "--modality", "bridge") == 1  # missing --n/--out
    assert run("plot", "--metric", "nope") == 1  # invalid choice + missing args
    err = capsys.readouterr().err
    assert "usage" in err


def test_gen_n_below_minimum_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "g.json")
    assert run("gen", "--modality", "bridge", "--n", "2", "--out", out) == 1
    assert run("gen", "--modality", "bridge", "--n", "x", "--out", out) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "at least 3" in err
    assert run("gen", "--modality", "bridge", "--n", "3", "--out", out) == 0


def test_computation_errors_exit_2(tmp_path, capsys):
    assert run("regress", "--in", str(tmp_path / "missing.csv"), "--metric", "rho2") == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("n, edge, message", [
    (3.7, [0, 1], "n must be an integer"),
    (3, [0, 1.5], "edges must be integers"),
])
def test_metrics_rejects_non_integer_graph(tmp_path, capsys, n, edge, message):
    doc = {"n": n, "edges": [edge, [1, 2]], "groups": [[0, 1, 2]], "liaisons": [],
           "modality": "bridge", "seed": 0}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert run("metrics", "--in", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and not captured.out


@pytest.mark.parametrize("field, value, message", [
    ("groups", [[0, 1.5, 2]], "each group member must be an integer, got 1.5"),
    ("liaisons", [2.9], "each liaison must be an integer, got 2.9"),
    ("seed", 7.5, "seed must be an integer, got 7.5"),
    ("seed", True, "seed must be an integer, got True"),
])
def test_metrics_rejects_non_integer_document_fields(tmp_path, capsys, field, value, message):
    # int() would load these as groups ((0, 1, 2),), liaisons (2,) and seed 7 or 1
    doc = {"n": 3, "edges": [[0, 1], [1, 2]], "groups": [[0, 1, 2]], "liaisons": [],
           "modality": "bridge", "seed": 0, field: value}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert run("metrics", "--in", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and not captured.out


MISSING = object()


@pytest.mark.parametrize("field, value, message", [
    ("groups", 5, "groups must be a list of lists, got 5"),
    ("edges", [0, 1, 2], "edges must be a list of [u, v] pairs, got 0"),
    # field None: the value is the whole document
    (None, [1, 2], "graph document must be a JSON object, got [1, 2]"),
    ("modality", MISSING, "graph document is missing required keys: ['modality']"),
    (None, {}, "graph document is missing required keys: "
               "['n', 'edges', 'groups', 'liaisons', 'modality']"),
    ("modality", 5, "modality must be a string, got 5"),
])
def test_metrics_rejects_malformed_document(tmp_path, capsys, field, value, message):
    doc = {"n": 3, "edges": [[0, 1], [1, 2]], "groups": [[0, 1, 2]], "liaisons": [],
           "modality": "bridge", "seed": 0}
    if field is None:
        doc = value
    elif value is MISSING:
        del doc[field]
    else:
        doc[field] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert run("metrics", "--in", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and not captured.out


def test_help_exits_zero():
    assert run("--help") == 0
