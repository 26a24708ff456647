"""Checks of sweep outputs against computations made apart from the program.

Each record's graph is regenerated with ``groupnets.generate`` (the
workload's input), and its metrics are recomputed with networkx (path
length, clustering) and dense LAPACK eigendecompositions (lambda_max,
rho2, tau, delta_ss).  The regression is refitted with
``numpy.linalg.lstsq`` from the CSV rows, and the SVG is parsed as XML.
Comparisons use relative tolerances: the last digits of the solver
results depend on the BLAS thread count, so a byte hash would be wrong.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import scipy.linalg

from groupnets import generate

CSV_COLUMNS = (
    "modality", "n_requested", "n_actual", "seed", "group_count",
    "avg_shortest_path", "avg_degree", "density", "clustering",
    "lambda_max", "rho2", "tau_asym", "delta_ss",
)
_INT_COLUMNS = {"n_requested", "n_actual", "seed", "group_count"}

# Worst gaps seen on correct outputs: 1e-15 for path length and clustering,
# 1.3e-10 for rho2, 8e-12 for delta_ss; a 1e-6 corruption must fail.
RTOL_EXACT = 1e-12
RTOL_SOLVER = 1e-8
# eigenvalues of S (norm 1) carry absolute errors near 1e-15, so a rho2
# of exactly 0 comes out of eigh as about 2e-16
ATOL_EIGEN = 1e-12
RTOL_OLS = 1e-6

REGRESSORS = ("Constant", "N", "Degree", "Edge-bundle", "Co-membership", "Liaison", "N^2")


def read_rows(path) -> list[dict]:
    """CSV rows with integer and float cells; empty cells become None."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        rows = []
        for cells in reader:
            row = {}
            for col, cell in zip(CSV_COLUMNS, cells):
                if col == "modality":
                    row[col] = cell
                elif cell == "":
                    row[col] = None
                else:
                    row[col] = int(cell) if col in _INT_COLUMNS else float(cell)
            rows.append(row)
    return rows


def expected_keys(cfg) -> list[tuple[str, int, int]]:
    """(modality, size, seed) of every record the config asks for, in sweep order."""
    keys = []
    for modality in sorted(set(cfg.modalities)):
        for size in cfg.sizes:
            for rep in range(cfg.replications):
                text = f"{cfg.master_seed}:{modality}:{size}:{rep}".encode()
                seed = int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1
                keys.append((modality, size, seed))
    return keys


def _close(actual, expected, rtol: float) -> bool:
    return actual is not None and math.isclose(actual, expected, rel_tol=rtol)


def _lambda_rtol(eigenvalues: np.ndarray) -> float:
    """Relative accuracy that spectral_radius's stopping rule can promise.

    It iterates on A + I and stops once its Rayleigh quotient moves by less
    than 1e-10 per step; with the per-step contraction q of the quotient,
    about 1e-10 q / (1 - q) is still missing, which grows without bound as
    the top two eigenvalues meet.  Gaps seen were at most 1.13 times this.
    """
    top = eigenvalues[-1] + 1.0
    q = (max(abs(eigenvalues[-2] + 1.0), abs(eigenvalues[0] + 1.0)) / top) ** 2
    return max(RTOL_SOLVER, 10 * 1e-10 * q / (1.0 - q)) if q < 1.0 else math.inf


def _spectral_oracle(adj: np.ndarray, sigma2: float, with_delta: bool):
    """(lambda_max, its tolerance, rho2, delta_ss) from dense eigendecompositions."""
    n = adj.shape[0]
    eig_a = scipy.linalg.eigvalsh(adj)
    lam_max, lam_rtol = float(eig_a[-1]), _lambda_rtol(eig_a)
    d1 = adj.sum(axis=1) + 1.0
    pi = d1 / d1.sum()
    # S = D_pi^1/2 W D_pi^-1/2 with W = (D+I)^-1 (A+I)
    S = (adj + np.eye(n)) / np.sqrt(np.outer(d1, d1))
    if not with_delta:
        lam = scipy.linalg.eigvalsh(S)
        return lam_max, lam_rtol, float(max(lam[-2], -lam[0])), None
    lam, U = scipy.linalg.eigh(S)
    rho2 = float(max(lam[-2], -lam[0]))
    # Z_jj - pi_j = sum over k >= 2 of u_kj^2 / (1 - lambda_k)
    excess = (U[:, :-1] ** 2 / (1.0 - lam[:-1])).sum(axis=1)
    return lam_max, lam_rtol, rho2, float((pi * sigma2 * excess).sum())


def check_records(rows: list[dict], cfg, oracle_sample=None) -> list[str]:
    """Problems found in the sweep rows; an empty list means they pass.

    ``oracle_sample`` lists the row positions that get the networkx and
    eigendecomposition checks; None means every row.  Rows whose
    ``n_actual`` is empty are failed records and are not checked.
    """
    # imported here, after the timed rounds, so it stays out of their peak memory
    import networkx as nx

    problems = []
    keys = [(r["modality"], r["n_requested"], r["seed"]) for r in rows]
    if keys != expected_keys(cfg):
        problems.append(
            f"records do not match the config: {len(keys)} rows, "
            f"{len(expected_keys(cfg))} expected"
        )
        return problems
    sigma2 = float(cfg.noise.sigma2)
    for pos, row in enumerate(rows):
        if row["n_actual"] is None:
            continue
        tag = f"row {pos} ({row['modality']}, n={row['n_requested']})"

        def bad(what: str) -> None:
            problems.append(f"{tag}: {what}")

        mg = generate(row["modality"], row["n_requested"], cfg.params, row["seed"])
        g = mg.graph
        n, m = g.n, len(g.edges)
        deg = np.bincount(np.asarray(g.edges).ravel(), minlength=n) if m else np.zeros(n)
        if row["n_actual"] != n or row["group_count"] != mg.group_count:
            bad(f"n_actual/group_count {row['n_actual']}/{row['group_count']}, "
                f"graph has {n}/{mg.group_count}")
            continue
        if not _close(row["avg_degree"], 2.0 * m / n, RTOL_EXACT):
            bad(f"avg_degree {row['avg_degree']} != {2.0 * m / n}")
        if not _close(row["density"], row["avg_degree"] / (n - 1), RTOL_EXACT):
            bad(f"density {row['density']} != avg_degree/(n-1)")
        rho2, lam_max, tau = row["rho2"], row["lambda_max"], row["tau_asym"]
        if rho2 is None or not 0.0 <= rho2 < 1.0:
            bad(f"rho2 {rho2} outside [0, 1)")
            continue
        ref_tau = 1.0 / math.log(1.0 / rho2) if rho2 > 0.0 else 0.0
        if not _close(tau, ref_tau, RTOL_EXACT):
            bad(f"tau_asym {tau} != 1/log(1/rho2) = {ref_tau}")
        if lam_max is None or not (
            row["avg_degree"] * (1 - RTOL_EXACT) <= lam_max <= deg.max() * (1 + RTOL_EXACT)
        ):
            bad(f"lambda_max {lam_max} outside [avg_degree, max degree {deg.max()}]")
        requested = row["n_requested"] <= cfg.heavy_metrics_max_n
        delta = row["delta_ss"]
        if requested and (delta is None or not delta > 0.0):
            bad(f"delta_ss {delta} requested but not positive")
        if not requested and delta is not None:
            bad(f"delta_ss {delta} present but not requested")
        if oracle_sample is not None and pos not in oracle_sample:
            continue

        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges)
        asp = nx.average_shortest_path_length(G)
        if not _close(row["avg_shortest_path"], asp, RTOL_EXACT):
            bad(f"avg_shortest_path {row['avg_shortest_path']} != networkx {asp}")
        clust = nx.average_clustering(G)
        if not _close(row["clustering"], clust, RTOL_EXACT):
            bad(f"clustering {row['clustering']} != networkx {clust}")

        adj = np.zeros((n, n))
        if m:
            e = np.asarray(g.edges)
            adj[e[:, 0], e[:, 1]] = adj[e[:, 1], e[:, 0]] = 1.0
        ref_lam, lam_rtol, ref_rho2, ref_delta = _spectral_oracle(
            adj, sigma2, delta is not None)
        if not _close(lam_max, ref_lam, lam_rtol):
            bad(f"lambda_max {lam_max} != eigvalsh {ref_lam} (rtol {lam_rtol:.1e})")
        if not math.isclose(rho2, ref_rho2, rel_tol=RTOL_SOLVER, abs_tol=ATOL_EIGEN):
            bad(f"rho2 {rho2} != eigh {ref_rho2}")
        if delta is not None and not _close(delta, ref_delta, RTOL_SOLVER):
            bad(f"delta_ss {delta} != spectral identity {ref_delta}")
    return problems


def check_fit(rows: list[dict], response: str, fit_path) -> list[str]:
    """Compare a ``regress --out`` fit with lstsq on a design built from the rows."""
    with open(fit_path, encoding="utf-8") as fh:
        fit = json.load(fh)
    X, y = [], []
    for r in rows:
        if r[response] is None or r["avg_degree"] is None or r["n_actual"] is None:
            continue
        n = float(r["n_actual"])
        mod = r["modality"]
        X.append([1.0, n, r["avg_degree"], float(mod == "edge_bundle"),
                  float(mod == "comembership"), float(mod == "liaison"), n * n])
        y.append(r[response])
    X, y = np.asarray(X), np.asarray(y)
    if fit.get("regressors") != list(REGRESSORS) or fit.get("observations") != len(y):
        return [f"{response} fit: regressors {fit.get('regressors')} / observations "
                f"{fit.get('observations')}, expected {list(REGRESSORS)} / {len(y)}"]
    scale = np.abs(X).max(axis=0)
    beta = np.linalg.lstsq(X / scale, y, rcond=None)[0] / scale
    problems = []
    fitted = X @ np.asarray(fit["coefficients"])
    ref_fitted = X @ beta
    gap = np.abs(fitted - ref_fitted).max() / np.abs(ref_fitted).max()
    if not gap <= RTOL_OLS:
        problems.append(f"{response} fit: fitted values differ from lstsq by {gap:.2e}")
    for name, got, ref in zip(REGRESSORS, fit["coefficients"], beta):
        if not math.isclose(got, ref, rel_tol=RTOL_OLS):
            problems.append(f"{response} fit: {name} coefficient {got} != lstsq {ref}")
    return problems


def check_svg(svg_path, rows: list[dict], metric: str) -> list[str]:
    """The chart parses as XML and draws one series per modality with data."""
    root = ET.parse(svg_path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    expected = sorted({r["modality"] for r in rows if r[metric] is not None})
    series = root.findall(f"{ns}polyline")
    legend = sorted(t.text for t in root.findall(f"{ns}text") if t.text in expected)
    if len(series) != len(expected) or legend != expected:
        return [f"SVG has {len(series)} series and legend {legend}, expected {expected}"]
    return []
