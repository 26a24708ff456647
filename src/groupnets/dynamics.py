"""Spectral and Markov-chain analytics for consensus and propagation.

The averaging matrix ``W = (D + I)^-1 (A + I)`` gives every node equal
weight on itself and each neighbor.  Its stationary distribution has the
closed form ``pi_i = (d_i + 1) / (n + 2|E|)`` and satisfies detailed
balance, so ``W`` is similar to the symmetric ``S = D_pi^1/2 W D_pi^-1/2``
and the whole spectrum is real.

Each quantity has one entry point taking a ``Graph``: ``spectral_radius``
gives the dominant adjacency eigenvalue, from which
``propagation_growth_rates`` gives SI/SIS growth; ``consensus_spectrum``
gives the second largest eigenvalue modulus of ``W`` and the steady-state
disagreement under noise.  Each has a small-graph regime, where the
fixed cost of a sparse solver call exceeds the arithmetic and LAPACK
works on n-by-n arrays.  Up to ``graphs._SMALL_MAX_N`` nodes, the size up
to which the structural metrics also use dense arrays, the dominant
eigenvalue comes from a dense ``eigvalsh``, and above it from ARPACK.  Up
to ``_DENSE_MAX_N`` nodes ``S`` is built dense: rho2 comes from its
eigenvalues alone, and delta_ss from the diagonal of the Kemeny-Snell
fundamental matrix through one Cholesky factorization.  Above it no dense
eigensolve runs and no n-by-n array is allocated: rho2 comes from
Lanczos on the grounded Laplacian's LU, and delta_ss from effective
resistances summed over the biconnected blocks (Tetali's hitting-time
formula), one small Cholesky factorization per block.  The dense
Kemeny-Snell hitting times (``hitting_times``, ``steady_state_deviation``)
and the simulators are their reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from . import graphs
from .graphs import Graph, _blocks, _one_component, _stacks, is_connected

__all__ = [
    "ConsensusSystem",
    "MarkovReport",
    "NoiseModel",
    "Trajectory",
    "ConvergenceError",
    "ConditioningError",
    "build_consensus_matrix",
    "spectral_radius",
    "consensus_spectrum",
    "convergence_time",
    "propagation_growth_rates",
    "hitting_times",
    "steady_state_deviation",
    "simulate_consensus",
    "simulate_noisy_consensus",
    "simulate_hitting_time",
]

# Largest n at which dense S gives rho2 (eigvalsh) and delta_ss (Cholesky);
# above it the grounded-Laplacian Lanczos run and block-cut resistance sum do.
# Median ms of a ``measure`` call, dense/sparse, on generated graphs of about
# n nodes (4 modalities x 10 seeds x 3 rounds, one BLAS thread): with delta_ss
# 3.28/3.38, 3.60/3.59 and 3.79/3.54 at n = 160, 170 and 180; without it
# 2.71/2.83, 3.02/2.99 and 3.15/2.97.
_DENSE_MAX_N = 170


class ConvergenceError(RuntimeError):
    """An eigenvalue solver (LAPACK or ARPACK) failed to converge."""


class ConditioningError(RuntimeError):
    """A linear solve was numerically singular."""


@dataclass(frozen=True)
class ConsensusSystem:
    """Row-stochastic averaging matrix with its stationary distribution.

    Construction asserts row stochasticity, stationarity of ``pi`` and
    detailed balance (reversibility), since every downstream formula
    relies on them.
    """

    W: np.ndarray
    pi: np.ndarray

    def __post_init__(self) -> None:
        W, pi = self.W, self.pi
        n = W.shape[0]
        if W.shape != (n, n) or pi.shape != (n,):
            raise ValueError("shape mismatch between W and pi")
        if W.min() < 0.0:
            raise ValueError("W has negative entries")
        row_err = np.abs(W.sum(axis=1) - 1.0).max()
        if row_err > 1e-12:
            raise ValueError(f"W rows deviate from stochasticity by {row_err:.2e}")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("pi does not sum to 1")
        stat_err = np.abs(pi @ W - pi).max()
        if stat_err > 1e-10:
            raise ValueError(f"pi is not stationary (residual {stat_err:.2e})")
        balance = pi[:, None] * W
        bal_err = np.abs(balance - balance.T).max()
        if bal_err > 1e-12:
            raise ValueError(f"detailed balance violated by {bal_err:.2e}")

    @property
    def n(self) -> int:
        return self.pi.shape[0]


@dataclass(frozen=True)
class MarkovReport:
    H: np.ndarray


@dataclass(frozen=True)
class NoiseModel:
    """Per-node noise variances; a scalar means the same variance everywhere."""

    sigma2: float | tuple[float, ...] = 1.0

    def variances(self, n: int) -> np.ndarray:
        if np.isscalar(self.sigma2):
            v = np.full(n, float(self.sigma2))
        else:
            v = np.asarray(self.sigma2, dtype=np.float64)
            if v.shape != (n,):
                raise ValueError(f"noise dimension {v.shape} does not match n={n}")
        if v.min() < 0.0:
            raise ValueError("noise variances must be nonnegative")
        return v


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray
    horizon: int


def build_consensus_matrix(g: Graph) -> ConsensusSystem:
    """Equal-neighbor averaging matrix W = (D+I)^-1 (A+I) of a connected graph.

    The stationary distribution is pi_i = (d_i + 1) / (n + 2|E|).
    """
    if not is_connected(g):
        raise ValueError("consensus matrix requires a connected graph (irreducibility)")
    a = g.to_dense()
    d = a.sum(axis=1)
    W = (a + np.eye(g.n)) / (d + 1.0)[:, None]
    pi = (d + 1.0) / (g.n + 2.0 * g.edge_count)
    return ConsensusSystem(W=W, pi=pi)


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue of a graph; 0 for a graph with no edges.

    Up to ``graphs._SMALL_MAX_N`` nodes LAPACK gives the top eigenvalue of
    the dense adjacency alone, where ARPACK's Python-level iterations cost
    more than the arithmetic.  Above it ARPACK's Lanczos iteration runs on
    the sparse adjacency, started from the all-ones vector (never orthogonal
    to the nonnegative dominant eigenvector) so results are deterministic.
    """
    # ARPACK maps the zero matrix's start to zero
    if g.edge_count == 0:
        return 0.0
    n = g.n
    if n <= graphs._SMALL_MAX_N:
        try:
            vals = scipy.linalg.eigvalsh(g.to_dense(), subset_by_index=[n - 1, n - 1])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"dense eigensolve failed: {exc}") from exc
        return float(vals[0])
    try:
        vals = eigsh(g.to_csr(), k=1, which="LA", v0=np.ones(n), return_eigenvectors=False)
    except ArpackError as exc:
        raise ConvergenceError(f"Lanczos iteration failed: {exc}") from exc
    return float(vals[0])


def consensus_spectrum(g: Graph, noise: NoiseModel | None = None) -> tuple[float, float | None]:
    """rho2 of a connected graph's averaging matrix and, given noise, delta_ss.

    Both are read from S = (D+I)^-1/2 (A+I) (D+I)^-1/2, the symmetrized W;
    delta_ss is None without ``noise``.

    Up to ``_DENSE_MAX_N`` nodes S is built dense, from the dense adjacency
    and the products 1/sqrt((d_i + 1)(d_j + 1)).  rho2 comes from its
    eigenvalues alone (``eigvalsh``), so it is the same whether or not
    noise is given.  delta_ss = sum_j pi_j sigma2_j (Z_jj - pi_j), where
    Z = (I - S + sqrt(pi) sqrt(pi)^T)^-1 is the fundamental matrix in
    symmetric form (Kemeny and Snell, Finite Markov Chains, 1960).  Z is
    positive definite: with F the lower Cholesky factor of Z^-1,
    Z = F^-T F^-1, so Z_jj = sum_i (F^-1)_ij^2 from LAPACK's triangular
    inverse (``dtrtri``), and neither Z nor H is formed.

    Above it no dense eigensolve runs and no n-by-n array is allocated.
    delta_ss comes from effective resistances summed over the graph's
    biconnected blocks (``_resistance_deviation``).  With h = sqrt(d + 1),
    I - S = H^-1 L H^-1 for H = diag(h) and L = D - A (Chung, Spectral
    Graph Theory), so off sqrt(pi) = h / |h| the pseudo-inverse of I - S
    has top eigenvalue mu = 1 / (1 - lambda2).  Lanczos finds mu in a few
    solves even when 1 - lambda2 is tiny (Ericsson and Ruhe, Math. Comp.
    35, 1980), applying it through one sparse LU of the grounded Laplacian
    M (``_grounded_laplacian``), which is dropped once factored.  W is lazy:
    W = a I + (1 - a) W' with a = 1/(d_max + 1) and W' stochastic, so
    lambda_min >= 2a - 1, and lambda2 >= 1 - 2a certifies rho2 = lambda2;
    otherwise one more Lanczos run gives lambda_min.
    """
    n = g.n
    if n <= _DENSE_MAX_N:
        # is_connected refuses the empty graph
        if n == 0 or not is_connected(g):
            raise ValueError("consensus metrics require a connected graph (irreducibility)")
        sigma2 = None if noise is None else noise.variances(n)
        d1 = g.degrees() + 1.0
        S = g.to_dense()
        np.fill_diagonal(S, 1.0)
        S *= 1.0 / np.sqrt(np.outer(d1, d1))
        pi = d1 / d1.sum()
        try:
            lam = scipy.linalg.eigvalsh(S, driver="evd")
            if sigma2 is not None:
                # Z^-1 = I - S + sqrt(pi) sqrt(pi)^T = F F^T; F's diagonal is positive
                F = scipy.linalg.cholesky(np.eye(n) - S + np.sqrt(np.outer(pi, pi)), lower=True)
                finv = scipy.linalg.lapack.dtrtri(F, lower=1)[0]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"dense eigensolve failed: {exc}") from exc
        # the ascending spectrum ends with the Perron eigenvalue 1
        rho2 = float(max(lam[-2], -lam[0])) if n > 1 else 0.0
        if sigma2 is None:
            return rho2, None
        # Z = F^-T F^-1; cholesky zeroes F's upper triangle, and dtrtri keeps it
        return rho2, float(pi * sigma2 @ (np.square(finv).sum(axis=0) - pi))
    M = _grounded_laplacian(g)
    # M has the pattern of A + I, so its components are the graph's
    if not _one_component(M):
        raise ValueError("consensus metrics require a connected graph (irreducibility)")
    d1 = g.degrees() + 1
    sigma2 = None if noise is None else noise.variances(n)
    delta = None if sigma2 is None else _resistance_deviation(g, d1, sigma2)
    # a fixed-seed start: deterministic, and generic with respect to graph
    # symmetries (a structured start can be orthogonal to an eigenvector)
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    # M is symmetric, so its CSR arrays read as CSC are M itself
    lu = splu(M.T)
    del M
    h = np.sqrt(d1)
    u = h / np.linalg.norm(h)

    def pseudo_inverse(b):
        # (I - S)^+ b = P (h z), where M z = h (P b) and P projects off u
        b = b - u * (u @ b)
        x = h * lu.solve(h * b)
        return x - u * (u @ x)

    try:
        mu = eigsh(LinearOperator((n, n), matvec=pseudo_inverse, dtype=np.float64),
                   k=1, which="LA", v0=v0, return_eigenvectors=False)
        lam2 = 1.0 - 1.0 / float(mu[0])
        if lam2 >= 1.0 - 2.0 / d1.max():
            return lam2, delta
        del lu
        a = g.to_csr()
        # S x = H^-1 (A + I) H^-1 x
        lam_min = eigsh(LinearOperator((n, n), matvec=lambda x: (a @ (x / h) + x / h) / h,
                                       dtype=np.float64),
                        k=1, which="SA", v0=v0, return_eigenvectors=False)
    except ArpackError as exc:
        raise ConvergenceError(f"Lanczos iteration failed: {exc}") from exc
    return max(lam2, -float(lam_min[0])), delta


def _resistance_deviation(g: Graph, d1: np.ndarray, sigma2: np.ndarray) -> float:
    """delta_ss of a connected graph of n >= 2 from effective resistances.

    W is the walk on the graph with a unit self-loop at every node, so
    Tetali's formula (J. Theor. Probab. 4, 1991) gives its hitting times
    H_ij = (C/2) (R_ij + r_j - r_i), with C = n + 2|E|, R the effective
    resistances of the loop-free graph, pi = (d + 1)/C and r = R pi.  Then

        delta_ss = (C/2) sum_j pi_j^2 sigma2_j (2 r_j - K),   K = pi^T r.

    Resistance adds in series through cut vertices, so for j in a block B,
    r_j - u_B(j) is the same for all of B, where u_B(j) = sum_{y in B}
    P_B(y) R^B_jy and P_B(y) is the stationary mass that reaches B
    through y.  ``_blocks`` lists the two-node blocks first: u of one end
    is P_B of the other.  A larger block takes one Cholesky factorization
    of its Laplacian grounded at its first member, whose inverse G (zero
    on that member) gives R^B_jy = G_jj + G_yy - 2 G_jy.  The grounded
    Laplacians go through numpy's stacked Cholesky and inverse in the
    stacks of ``graphs._stacks``.  Then r at node 0 is the sum of u_B over
    the blocks' tops, and r_j = r_top + u_B(j) - u_B(top) for each block B
    below it.  The largest array is a stack of about
    ``graphs._STACK_CELLS`` entries, or the square of the largest block if
    that is larger.
    """
    cut = _blocks(g)
    total = d1.sum()
    pi = d1 / total
    mass = cut.volume / total
    two = 2 * cut.pairs
    u = np.empty(mass.size)
    u[:two] = mass[:two].reshape(-1, 2)[:, ::-1].ravel()
    # a block's grounded Laplacian drops its first row; the stacks are
    # identity on the padding
    for rows, t, loc, src, dst, m in _stacks(cut, ground=1):
        # row i of the stack is row loc[i] of the grounded Laplacian t[i] of
        # the stack, -1 for the ground
        real = loc >= 0
        lap = np.zeros((t[-1] + 1, m, m))
        lap[:, np.arange(m), np.arange(m)] = 1.0
        degree = np.bincount(src, minlength=t.size) + np.bincount(dst, minlength=t.size)
        lap[t[real], loc[real], loc[real]] = degree[real]
        # the edges the grounded Laplacians keep: those off the ground
        off = real[src] & real[dst]
        src, dst = src[off], dst[off]
        lap[t[src], loc[src], loc[dst]] = lap[t[src], loc[dst], loc[src]] = -1.0
        try:
            # G = L^-1 = F^-T F^-1 from the Cholesky factor F of each block
            finv = np.linalg.inv(np.linalg.cholesky(lap))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"block Laplacian factorization failed: {exc}") from exc
        del lap
        held = mass[rows]
        P = np.zeros((t[-1] + 1, m))
        P[t[real], loc[real]] = held[real]
        GP = (finv.transpose(0, 2, 1) @ (finv @ P[:, :, None]))[:, :, 0]
        gdiag = np.square(finv, out=finv).sum(axis=1)
        reach = np.bincount(t, weights=held)
        # u_j = G_jj sum(P) + sum_y P_y G_yy - 2 (G P)_j; G is 0 on the ground
        loc = np.maximum(loc, 0)
        u[rows] = ((gdiag * P).sum(axis=1)[t]
                   + real * (gdiag[t, loc] * reach[t] - 2.0 * GP[t, loc]))
    # every node but node 0 lies below the top of exactly one block, hop[j]:
    # r_j = r_hop[j] + step[j], summed up the tree by pointer jumping
    below = ~cut.top
    top_u, top_node = np.zeros(g.n), np.zeros(g.n, dtype=np.int64)
    top_u[cut.block[cut.top]] = u[cut.top]
    top_node[cut.block[cut.top]] = cut.node[cut.top]
    step, hop = np.zeros(g.n), np.zeros(g.n, dtype=np.int64)
    step[cut.node[below]] = u[below] - top_u[cut.block[below]]
    hop[cut.node[below]] = top_node[cut.block[below]]
    while hop.any():
        step += step[hop]
        hop = hop[hop]
    r = u[cut.top].sum() + step
    return float(0.5 * total * (pi * pi * sigma2 @ (2.0 * r - pi @ r)))


def _grounded_laplacian(g: Graph) -> sp.csr_matrix:
    """M = D - A + e0 e0^T in CSR form, each row's diagonal entry first.

    For c orthogonal to 1, M z = c forces z_0 = 0 and L z = c: M is the
    Laplacian L grounded at node 0, with no row dropped.
    """
    n = g.n
    indptr, indices = g.pattern()
    rows = indptr + np.arange(n + 1, dtype=np.int32)
    # indices first, so that np.insert's mask is gone before the values exist;
    # the values are filled in place, where np.insert would hold two copies
    diagonal_first = np.insert(indices, indptr[:-1], np.arange(n, dtype=np.int32))
    data = np.full(rows[-1], -1.0)
    data[rows[:-1]] = g.degrees()
    data[0] += 1.0
    return sp.csr_matrix((data, diagonal_first, rows), shape=(n, n))


def convergence_time(rho2: float) -> float:
    """Asymptotic steps for the consensus error to shrink by 1/e: 1/log(1/rho2).

    The contraction-free case rho2 = 0 is defined as 0.
    """
    if rho2 < 0.0 or rho2 >= 1.0:
        raise ValueError(f"rho2 must lie in [0, 1), got {rho2} (non-contracting)")
    if rho2 == 0.0:
        return 0.0
    return float(1.0 / np.log(1.0 / rho2))


def propagation_growth_rates(
    lambda_max: float, beta: float = 1.0, gamma: float = 1.0
) -> tuple[float, float]:
    """Linearized epidemic growth rates: (beta*lambda_max, beta*lambda_max - gamma)."""
    if beta <= 0.0:
        raise ValueError("infection rate beta must be positive")
    if gamma <= 0.0:
        raise ValueError("recovery rate gamma must be positive")
    si = beta * lambda_max
    return si, si - gamma


def hitting_times(sys: ConsensusSystem) -> MarkovReport:
    """Fundamental matrix Z = (I - W + 1 pi^T)^-1 and hitting times H.

    ``H[i, j]`` is the expected number of steps for the chain started at
    ``i`` to first reach ``j``: ``(Z_jj - Z_ij) / pi_j``.
    """
    n = sys.n
    M = np.eye(n) - sys.W + np.outer(np.ones(n), sys.pi)
    try:
        Z = np.linalg.solve(M, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"fundamental matrix solve failed: {exc}") from exc
    H = (np.diag(Z)[None, :] - Z) / sys.pi[None, :]
    np.fill_diagonal(H, 0.0)
    return MarkovReport(H=H)


def steady_state_deviation(
    sys: ConsensusSystem, H: np.ndarray, noise: NoiseModel
) -> float:
    """Steady-state mean-square disagreement pi^T H D_pi Sigma_e D_pi 1."""
    n = sys.n
    if H.shape != (n, n):
        raise ValueError(f"H has shape {H.shape}, expected ({n}, {n})")
    sigma2 = noise.variances(n)
    return float(sys.pi @ H @ (sys.pi * sys.pi * sigma2))


def simulate_consensus(sys: ConsensusSystem, x0, horizon: int) -> Trajectory:
    """Iterate x(t+1) = W x(t); the limit is the pi-weighted average of x0."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != (sys.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({sys.n},)")
    states = np.empty((horizon + 1, sys.n))
    states[0] = x
    for t in range(horizon):
        states[t + 1] = sys.W @ states[t]
    return Trajectory(states=states, horizon=horizon)


def simulate_noisy_consensus(
    sys: ConsensusSystem,
    noise: NoiseModel,
    horizon: int,
    replications: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of the steady-state disagreement level.

    Runs x(t+1) = W x(t) + e(t), discards the first half of the horizon
    as burn-in and averages, over time and replications, the
    stationary-weighted product of the deviation from the running
    weighted mean with its one-step forward sum:

        sum_i pi_i * d_i(t) * (d_i(t) + d_i(t+1)),   d(t) = x(t) - (pi^T x(t)) 1.

    The one-step carry-over term makes the estimator converge to the
    same quantity as the hitting-time expression evaluated by
    ``steady_state_deviation``; dropping it would measure only the
    instantaneous variance, which is strictly smaller on slowly mixing
    graphs.
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if replications < 1:
        raise ValueError("need at least one replication")
    n = sys.n
    sigma = np.sqrt(noise.variances(n))
    burn = horizon // 2
    X = np.zeros((replications, n))
    acc = 0.0
    count = 0
    for t in range(horizon):
        E = rng.standard_normal((replications, n)) * sigma
        X_next = X @ sys.W.T + E
        if t >= burn:
            d0 = X - (X @ sys.pi)[:, None]
            d1 = X_next - (X_next @ sys.pi)[:, None]
            acc += float((sys.pi * d0 * (d0 + d1)).sum(axis=1).mean())
            count += 1
        X = X_next
    return acc / count


def simulate_hitting_time(
    sys: ConsensusSystem,
    source: int,
    target: int,
    samples: int,
    rng: np.random.Generator,
    max_steps: int = 1_000_000,
) -> float:
    """Mean first-passage steps from source to target over sampled walks."""
    if source == target:
        raise ValueError("source and target must differ")
    n = sys.n
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("source/target out of range")
    cum = np.cumsum(sys.W, axis=1)
    cum[:, -1] = 1.0
    state = np.full(samples, source, dtype=np.int64)
    steps = np.zeros(samples, dtype=np.int64)
    alive = np.arange(samples)
    t = 0
    while alive.size:
        t += 1
        if t > max_steps:
            raise RuntimeError(f"walks exceeded {max_steps} steps")
        u = rng.random(alive.size)
        rows = cum[state[alive]]
        state[alive] = (rows < u[:, None]).sum(axis=1)
        arrived = state[alive] == target
        steps[alive[arrived]] = t
        alive = alive[~arrived]
    return float(steps.mean())
