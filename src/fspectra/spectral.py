"""Weighted adjacency matrices, Perron values, and full spectra.

Class searches score a whole stack of same-order matrices with one call of
LAPACK's symmetric eigensolver (``perron_values``). A single graph's Perron
value (``f_spectral_radius``) comes from power iteration on A + r_k I, r_k
the step's Rayleigh quotient: the iterate stays positive, so 0 < r_k <= rho
and every other eigenvalue lambda, -rho included, shrinks by
|lambda + r_k| / (rho + r_k) < 1 per step. Each step touches only the
nonzero entries, listed from the graph's edges with f evaluated once per
distinct degree pair, so it costs O(m) on a graph of m edges and no n x n
matrix is built. Both solvers accept rho by the same relative residual
bound, the power iteration on its positive vector and the batched solve on
each signed unit eigenvector, and the batched solve returns an error
half-width with each rho. Full spectra go through LAPACK's symmetric
eigensolver, and refuse an order above ``FULL_SPECTRUM_MAX_ORDER`` before
any matrix is built.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, NoConvergence, SizeLimit
from .graph_core import degrees, subdivided
from .weights import eval_weight

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 10 ** 6
FULL_SPECTRUM_MAX_ORDER = 64
INTERLACING_TOL = 1e-8


def check_tol(tol):
    """Raise BadParams unless the tolerance is finite and >= 0."""
    if not 0 <= tol < math.inf:
        raise BadParams(f"tol must be finite and >= 0, got {tol}")


def check_spectrum_order(n):
    """Raise SizeLimit unless a full spectrum of order n is supported."""
    if n > FULL_SPECTRUM_MAX_ORDER:
        raise SizeLimit(f"full spectrum supports order <= {FULL_SPECTRUM_MAX_ORDER}")


def f_adjacency(G, f):
    """Dense weighted adjacency matrix: entry (i, j) = f(d_i, d_j) on edges."""
    degs = degrees(G)
    M = np.zeros((G.n, G.n))
    for u, v in G.edges:
        w = eval_weight(f, degs[u], degs[v])
        M[u, v] = w
        M[v, u] = w
    return M


def _edge_weights(G, f):
    """Endpoint arrays us, vs and weights w = f(d_u, d_v) of G's edges.

    Edges come in ``G.edges`` order, the order ``f_adjacency`` walks, so a
    missing table entry is named by the same degree pair; f is evaluated
    once per distinct degree pair.
    """
    degs = degrees(G)
    edges = list(G.edges)
    memo = {}
    w = []
    for u, v in edges:
        pair = degs[u], degs[v]
        if pair not in memo:
            memo[pair] = memo[pair[::-1]] = eval_weight(f, *pair)
        w.append(memo[pair])
    us, vs = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    return us, vs, np.array(w, dtype=float)


def _require_finite(sums, entries):
    """Raise BadParams unless every row sum and every entry is finite."""
    if not (np.isfinite(sums).all() and np.isfinite(entries).all()):
        top = float(sums.max())
        raise BadParams(f"matrix entries and row sums must be finite, got row sum {top}")


@dataclass
class SpectralResult:
    """Perron value, eigenvector (unit maximum entry), and solve metadata."""

    rho: float
    vector: np.ndarray
    residual: float
    iterations: int
    tol: float


def _power_iteration(rows, cols, vals, n, tol):
    """Perron data of the n x n matrix with entry vals[k] at (rows[k], cols[k])
    and zeros elsewhere, by at most MAX_ITERATIONS steps. Each step sums a
    row's entries in the order they are listed."""
    if n == 0:
        raise BadParams("matrix must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(np.bincount(rows, vals, n), vals)
        x = np.ones(n)
        residual = 0.0
        for iteration in range(1, MAX_ITERATIONS + 1):
            x /= x.max()
            y = np.bincount(rows, vals * x[cols], n)
            rho = float(x @ y) / float(x @ x)
            rx = rho * x
            d = y - rx
            residual = float(abs(d).max())
            if not math.isfinite(residual):
                raise NoConvergence(iteration, residual)
            if residual <= tol * max(1.0, abs(rho)):
                return SpectralResult(rho, x, residual, iteration, tol)
            y += rx
            x = y
    raise NoConvergence(MAX_ITERATIONS, residual)


def perron_values(stack, tol=DEFAULT_TOL):
    """Perron data of every matrix in a (k, n, n) stack, from one LAPACK call.

    Each matrix must be symmetric and nonnegative. Returns (rho, vectors,
    errors): rho[i] is the largest eigenvalue of stack[i], vectors[i] the
    absolute value of its eigenvector scaled to unit maximum entry, and
    errors[i] = ||Mv - rho*v||_2 + n*eps*(max row sum) an error half-width
    for rho[i], with v the signed unit eigenvector: by Weyl's inequality
    some eigenvalue lies within ||Mv - rho*v||_2 of rho, and the second
    term bounds the rounding in that residual. NoConvergence (counting the
    direct solve as one iteration) is raised if any such residual exceeds
    tol * max(1, rho). The returned vectors themselves are not checked:
    when the top two eigenvalues nearly coincide, |v| can be far from an
    eigenvector while rho is accurate. A stack with a non-finite entry or
    row sum is rejected with BadParams, as in ``f_spectral_radius``.
    """
    check_tol(tol)
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise BadParams("stack must have shape (k, n, n)")
    if stack.shape[1] == 0:
        raise BadParams("matrices must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        sums = stack.sum(axis=-1)
    _require_finite(sums, stack)
    values, vectors = np.linalg.eigh(stack)
    rho = values[:, -1]
    v = vectors[:, :, -1]
    # Divide by max(1, |rho|) before the 2-norm squares the residual, so a
    # huge but finite weight cannot overflow it.
    scale = np.maximum(1.0, np.abs(rho))
    resid = (stack @ v[:, :, None])[:, :, 0] - rho[:, None] * v
    signed = np.linalg.norm(resid / scale[:, None], axis=1)
    missed = signed > tol
    if missed.any():
        raise NoConvergence(1, float((signed * scale)[missed].max()))
    x = np.abs(v)
    x /= x.max(axis=1, keepdims=True)
    return rho, x, signed * scale + stack.shape[1] * np.finfo(float).eps * sums.max(axis=1)


def f_spectral_radius(G, f, tol=DEFAULT_TOL):
    """Largest eigenvalue of the f-adjacency matrix of G by power iteration
    on G's edge list.

    Each step maps x to Mx + rho_k x, rho_k = x.Mx / x.x its Rayleigh quotient.
    ``tol`` is relative: iteration stops once max|Mx - rho*x| <= tol * max(1, rho)
    with x normalized to unit maximum entry. Deterministic for fixed input.
    For a connected graph the returned vector is strictly positive. Weights
    with a non-finite value or row sum are rejected with BadParams, and an
    iteration that overflows (a non-finite rho or residual) raises
    NoConvergence at once.
    """
    us, vs, w = _edge_weights(G, f)
    check_tol(tol)
    rows, cols, vals = np.concatenate((us, vs)), np.concatenate((vs, us)), np.concatenate((w, w))
    # Row-major with columns ascending, so each row is summed in column
    # order and the result does not depend on the edge set's hash order.
    order = np.lexsort((cols, rows))
    return _power_iteration(rows[order], cols[order], vals[order], G.n, tol)


def full_spectrum(M):
    """All eigenvalues of a symmetric matrix, sorted descending."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadParams("matrix must be square")
    check_spectrum_order(M.shape[0])
    return np.linalg.eigvalsh(M)[::-1].copy()


@dataclass
class InterlacingReport:
    """Eigenvalues before/after one edge subdivision plus the comparison outcome.

    ``holds`` asserts lambda_{i-2} >= theta_i >= lambda_{i+1} for every
    i = 1..n+1, reading out-of-range lambda indices as +/- infinity.
    """

    holds: bool
    lam: list
    theta: list
    max_violation: float


def interlacing_check(G, e, f):
    """Check the subdivision interlacing inequalities for edge e of G.

    The subdivided graph has fresh degrees, so its weights are recomputed,
    not inherited. A violation of at most INTERLACING_TOL counts as none.
    """
    check_spectrum_order(G.n + 1)
    lam = full_spectrum(f_adjacency(G, f))
    H = subdivided(G, e)
    theta = full_spectrum(f_adjacency(H, f))
    n = G.n
    worst = 0.0
    for i in range(1, n + 2):
        th = theta[i - 1]
        if i - 2 >= 1:
            worst = max(worst, th - lam[i - 3])  # need lambda_{i-2} >= theta_i
        if i + 1 <= n:
            worst = max(worst, lam[i] - th)  # need theta_i >= lambda_{i+1}
    return InterlacingReport(worst <= INTERLACING_TOL, list(lam), list(theta), worst)
