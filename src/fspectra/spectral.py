"""Weighted adjacency matrices, Perron values, and full spectra.

Class searches score a whole stack of same-order matrices with one call of
LAPACK's symmetric eigensolver (``perron_values``). A single graph's Perron
value is still computed by shifted power iteration on A + cI with c = max
row sum: the shift makes the spectrum nonnegative, so the largest
eigenvalue of A dominates in modulus even for bipartite-like spectra with
a matching -rho eigenvalue. Both accept rho by the same relative residual
bound, the power iteration on its positive vector and the batched solve on
each signed unit eigenvector. Full spectra go through LAPACK's symmetric
eigensolver.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, NoConvergence, SizeLimit
from .graph_core import degrees, subdivided
from .weights import eval_weight

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 10 ** 6
FULL_SPECTRUM_MAX_ORDER = 64
INTERLACING_TOL = 1e-8


def check_tol(tol, name="tol"):
    """Raise BadParams unless the tolerance ``name`` is finite and >= 0."""
    if not 0 <= tol < math.inf:
        raise BadParams(f"{name} must be finite and >= 0, got {tol}")


def f_adjacency(G, f):
    """Dense weighted adjacency matrix: entry (i, j) = f(d_i, d_j) on edges."""
    degs = degrees(G)
    M = np.zeros((G.n, G.n))
    for u, v in G.edges:
        w = eval_weight(f, degs[u], degs[v])
        M[u, v] = w
        M[v, u] = w
    return M


def _finite_row_sums(M):
    """Row sums of a matrix or of each matrix in a stack.

    Raises BadParams unless they and every entry are finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = M.sum(axis=-1)
    if not (np.isfinite(sums).all() and np.isfinite(M).all()):
        top = float(sums.max())
        raise BadParams(f"matrix entries and row sums must be finite, got row sum {top}")
    return sums


@dataclass
class SpectralResult:
    """Perron value, eigenvector (unit maximum entry), and solve metadata."""

    rho: float
    vector: np.ndarray
    residual: float
    iterations: int
    tol: float


def spectral_radius(M, tol=DEFAULT_TOL, max_iterations=MAX_ITERATIONS):
    """Largest eigenvalue of a symmetric nonnegative matrix by power iteration.

    ``tol`` is relative: iteration stops once max|Mx - rho*x| <= tol * max(1, rho)
    with x normalized to unit maximum entry. Deterministic for fixed input.
    For a connected underlying graph the returned vector is strictly positive.
    A matrix with a non-finite entry or row sum is rejected with BadParams,
    and an iteration that overflows (a non-finite rho or residual) raises
    NoConvergence at once.
    """
    check_tol(tol)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadParams("matrix must be square")
    n = M.shape[0]
    if n == 0:
        raise BadParams("matrix must be nonempty")
    shift = float(_finite_row_sums(M).max())
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.ones(n)
        rho = 0.0
        residual = 0.0
        for iteration in range(1, max_iterations + 1):
            x = x / x.max()
            y = M @ x
            rho = float(x @ y) / float(x @ x)
            residual = float(np.max(np.abs(y - rho * x)))
            if not math.isfinite(residual):
                raise NoConvergence(iteration, residual)
            if residual <= tol * max(1.0, abs(rho)):
                return SpectralResult(rho, x, residual, iteration, tol)
            x = y + shift * x
    raise NoConvergence(max_iterations, residual)


def perron_values(stack, tol=DEFAULT_TOL):
    """Perron data of every matrix in a (k, n, n) stack, from one LAPACK call.

    Each matrix must be symmetric and nonnegative. Returns (rho, vectors,
    residuals): rho[i] is the largest eigenvalue of stack[i], vectors[i] the
    absolute value of its eigenvector scaled to unit maximum entry, and
    residuals[i] = max|Mx - rho*x| for that vector. rho[i] is accepted on
    the signed unit eigenvector v: by Weyl's inequality some eigenvalue lies
    within ||Mv - rho*v||_2 of rho, so NoConvergence (counting the direct
    solve as one iteration) is raised if any such residual exceeds
    tol * max(1, rho). The returned vectors themselves are not checked:
    when the top two eigenvalues nearly coincide, |v| can be far from an
    eigenvector while rho is accurate. A stack with a non-finite entry or
    row sum is rejected with BadParams, as in ``spectral_radius``.
    """
    check_tol(tol)
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise BadParams("stack must have shape (k, n, n)")
    if stack.shape[1] == 0:
        raise BadParams("matrices must be nonempty")
    _finite_row_sums(stack)
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
    residuals = np.abs((stack @ x[:, :, None])[:, :, 0] - rho[:, None] * x).max(axis=1)
    return rho, x, residuals


def f_spectral_radius(G, f, tol=DEFAULT_TOL):
    """Perron data of the f-adjacency matrix of G."""
    return spectral_radius(f_adjacency(G, f), tol=tol)


def full_spectrum(M):
    """All eigenvalues of a symmetric matrix, sorted descending."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadParams("matrix must be square")
    if M.shape[0] > FULL_SPECTRUM_MAX_ORDER:
        raise SizeLimit(f"full spectrum supports order <= {FULL_SPECTRUM_MAX_ORDER}")
    return np.linalg.eigvalsh(M)[::-1].copy()


@dataclass
class InterlacingReport:
    """Eigenvalues before/after one edge subdivision plus the comparison outcome.

    ``holds`` asserts lambda_{i-2} >= theta_i >= lambda_{i+1} for every
    i = 1..n+1, reading out-of-range lambda indices as +/- infinity.
    """

    holds: bool
    lam: list = field(default_factory=list)
    theta: list = field(default_factory=list)
    max_violation: float = 0.0


def interlacing_check(G, e, f, tol=INTERLACING_TOL):
    """Check the subdivision interlacing inequalities for edge e of G.

    The subdivided graph has fresh degrees, so its weights are recomputed,
    not inherited.
    """
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
    return InterlacingReport(worst <= tol, list(lam), list(theta), worst)
