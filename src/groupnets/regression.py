"""Ordinary least squares with inference for the comparative model.

The model regresses one metric on an intercept, network size N, average
degree, indicator variables for three modalities (bridge is the
baseline) and N squared.  The squared column is linear in parameters,
so plain OLS applies; a Householder QR factorization on internally
mean-centered columns keeps the solve well conditioned even though N^2
reaches millions, and the estimates are mapped back to the raw scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betainc

from .experiments import MetricsRecord

__all__ = [
    "REGRESSOR_NAMES",
    "DesignSpec",
    "FitResult",
    "build_design",
    "fit_ols",
    "t_sf_two_sided",
    "format_fit_table",
    "fit_to_json_dict",
]

REGRESSOR_NAMES = (
    "Constant",
    "N",
    "Degree",
    "Edge-bundle",
    "Co-membership",
    "Liaison",
    "N^2",
)

_FLAG_ORDER = ("edge_bundle", "comembership", "liaison")


@dataclass(frozen=True)
class DesignSpec:
    """Names the response and the fixed regressor layout."""

    response: str
    regressors: tuple[str, ...] = REGRESSOR_NAMES


@dataclass(frozen=True)
class FitResult:
    design: DesignSpec
    coefficients: tuple[float, ...]
    standard_errors: tuple[float, ...]
    t_stats: tuple[float, ...]
    p_values: tuple[float, ...]
    r_squared: float
    observations: int


def build_design(
    records: Iterable[MetricsRecord], response: str
) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and response vector from sweep records.

    One row per record carrying the response, average degree and actual
    size; rows with any of those missing are dropped.  Requires records
    from at least two modalities and two sizes.
    """
    rows = []
    y = []
    modalities = set()
    sizes = set()
    for rec in records:
        value = getattr(rec, response, None)
        if value is None or rec.avg_degree is None or rec.n_actual is None:
            continue
        modalities.add(rec.modality)
        sizes.add(rec.n_requested)
        n = float(rec.n_actual)
        rows.append(
            [
                1.0,
                n,
                rec.avg_degree,
                1.0 if rec.modality == "edge_bundle" else 0.0,
                1.0 if rec.modality == "comembership" else 0.0,
                1.0 if rec.modality == "liaison" else 0.0,
                n * n,
            ]
        )
        y.append(float(value))
    if not rows:
        raise ValueError(f"no records carry the response {response!r}")
    if len(modalities) < 2:
        raise ValueError("need records from at least two modalities")
    if len(sizes) < 2:
        raise ValueError("need records from at least two sizes")
    return np.asarray(rows), np.asarray(y)


def t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic via the regularized incomplete beta.

    P(|T| >= t) = I_x(df/2, 1/2) with x = df / (df + t^2).
    """
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    t = float(t)
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


def fit_ols(X: np.ndarray, y: np.ndarray, response: str = "y") -> FitResult:
    """Least squares with standard errors, t statistics, p-values and R^2.

    Raises on rank-deficient designs (collinearity) and on systems with
    no residual degrees of freedom.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rows, cols = X.shape
    if rows <= cols:
        raise ValueError(f"underdetermined system: {rows} rows for {cols} regressors")

    # center the non-intercept columns; a constant column must be present
    means = X.mean(axis=0)
    means[0] = 0.0
    Xc = X - means

    Q, R = np.linalg.qr(Xc)
    diag = np.abs(np.diag(R))
    if diag.min() <= 1e-10 * max(diag.max(), 1.0):
        raise ValueError("design matrix is rank deficient (collinear regressors)")

    beta_c = solve_triangular(R, Q.T @ y)
    residuals = y - Xc @ beta_c
    rss = float(residuals @ residuals)
    df = rows - cols
    sigma2 = rss / df

    r_inv = solve_triangular(R, np.eye(cols))
    cov_c = sigma2 * (r_inv @ r_inv.T)

    # map the centered fit back to the raw scale: only the intercept moves
    T = np.eye(cols)
    T[0, 1:] = -means[1:]
    beta = T @ beta_c
    cov = T @ cov_c @ T.T

    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore"):
        t_stats = np.where(se > 0, beta / se, np.inf)
    p_values = np.array([t_sf_two_sided(t, df) for t in t_stats])

    tss = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - rss / tss if tss > 0 else 1.0

    names = REGRESSOR_NAMES if cols == len(REGRESSOR_NAMES) else tuple(
        f"x{j}" for j in range(cols)
    )
    return FitResult(
        design=DesignSpec(response=response, regressors=names),
        coefficients=tuple(float(b) for b in beta),
        standard_errors=tuple(float(s) for s in se),
        t_stats=tuple(float(t) for t in t_stats),
        p_values=tuple(float(p) for p in p_values),
        r_squared=float(r_squared),
        observations=rows,
    )


def format_fit_table(fit: FitResult) -> str:
    """Plain-text table: regressor, coeff, s.e., p-value; trailing R^2."""
    lines = [
        f"response: {fit.design.response}  (n = {fit.observations})",
        f"{'':14s}  {'coeff.':>12s}  {'s.e.':>12s}  {'p-value':>10s}",
    ]
    for name, b, s, p in zip(
        fit.design.regressors, fit.coefficients, fit.standard_errors, fit.p_values
    ):
        p_txt = "<.0001" if p < 1e-4 else f"{p:.4f}"
        lines.append(f"{name:14s}  {b:12.5g}  {s:12.5g}  {p_txt:>10s}")
    lines.append(f"R^2 = {fit.r_squared:.4f}")
    return "\n".join(lines) + "\n"


def fit_to_json_dict(fit: FitResult) -> dict:
    return {
        "response": fit.design.response,
        "regressors": list(fit.design.regressors),
        "coefficients": list(fit.coefficients),
        "standard_errors": list(fit.standard_errors),
        "t_stats": list(fit.t_stats),
        "p_values": list(fit.p_values),
        "r_squared": fit.r_squared,
        "observations": fit.observations,
    }
