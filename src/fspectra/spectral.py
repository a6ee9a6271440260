"""Weighted adjacency matrices, Perron values, and full spectra.

Class searches score a whole stack of same-order matrices with one call of
LAPACK's symmetric eigensolver (``perron_values``). A single graph's Perron
value (``f_spectral_radius``) comes from power iteration on A + s I. At
each check, r is the Rayleigh quotient and s, the shift, lies in (0, r]:
the iterate stays positive, so 0 < r <= rho, and every other eigenvalue
lambda, -rho included, shrinks by |lambda + s| / (rho + s) < 1 per step.
The check brackets the gap rho - lambda_2 from outside, rho by its
Collatz-Wielandt upper bound and lambda_2 by a Ritz value below it, and
takes s as half that bracket, capped at r. Then lambda_2 and -rho shrink
alike, by about 1 - (rho - lambda_2) / rho per step on a small gap, where
s = r gives 1 - (rho - lambda_2) / (2 rho): a long path needs half the
steps. Most steps are plain: one gather, one multiply and one
``np.bincount`` over the entries of (A + s I) / (r + s), whose Perron
factor (rho + s) / (r + s) stays near 1, so they need no normalization.
Check steps, on a schedule that grows by one plain step per check,
normalize, refresh r and s and test the residual. Every step touches only
the nonzero entries, listed from the graph's edges with f evaluated once
per distinct degree pair, so it costs O(m) on a graph of m edges and no
n x n matrix is built. The power iteration accepts rho once its residual
on the positive vector is at most tol * rho, at any scale; the batched
solve accepts each signed unit eigenvector's residual up to
tol * max(1, rho) and returns an error half-width with each rho. Full
spectra go through LAPACK's symmetric eigensolver, and refuse an order
above ``FULL_SPECTRUM_MAX_ORDER`` before any matrix is built.
"""

import itertools
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


def _safe_shift(rows, cols, vals, x, y, d, rho, residual):
    """Shift s of the steps after a check, in (0, rho], at least (rho - lambda_2) / 2.

    x is the check's iterate, y = Mx, rho = x.y / x.x and d = y - rho x, with
    max|d| = residual > 0. Two bounds bracket the gap: rho_up = max y_v / x_v
    over the entries with x_v > 0 is the Collatz-Wielandt upper bound on rho,
    and theta, the lower Ritz value of M on span{x, d}, is at most lambda_2 by
    Cauchy interlacing. In the orthonormal basis x / |x|, d / |d| that
    restriction is [[rho, |d| / |x|], [|d| / |x|, e.Me / e.e]], e = d / residual,
    so every term is scale-free. Then s = (rho_up - theta) / 2, capped at rho,
    shrinks every other eigenvalue in [-rho, lambda_2] by at most
    (lambda_2 + s) / (rho + s) < 1 per step; a small gap lambda_2 = rho - delta
    shrinks by about 1 - delta / rho, against 1 - delta / (2 rho) for s = rho.
    A value outside (0, rho), as when a bound overflows, falls back to rho.
    """
    e = d / residual
    ee = float(e @ e)
    c = float(e @ np.bincount(rows, vals * e[cols], len(x))) / ee
    b = residual * math.sqrt(ee / float(x @ x))
    theta = (rho + c) / 2 - math.hypot((rho - c) / 2, b)
    positive = x > 0
    rho_up = float((y[positive] / x[positive]).max())
    shift = (rho_up - theta) / 2
    return shift if 0 < shift < rho else rho


def _power_iteration(rows, cols, vals, n, tol):
    """Perron data of the n x n matrix M with entry vals[k] at (rows[k], cols[k])
    and zeros elsewhere, by at most MAX_ITERATIONS steps of either kind.

    A check step normalizes x to unit maximum, takes rho = x.Mx / x.x and
    the residual max|Mx - rho x|, returns once that is at most tol * rho,
    and otherwise takes the shift s of ``_safe_shift``, 0 < s <= rho and
    s >= (rho - lambda_2) / 2 up to its fallback, and maps x to Mx + s x.
    The k-th check is followed by k plain steps x <- (M + s I)x / (rho + s),
    with no normalization and no residual, so checks fall at steps 1, 3, 6,
    10, ... and a result only ever comes from a check. Each step sums a
    row's entries in column order, so the result does not depend on the
    order the entries are listed in.
    """
    if n == 0:
        raise BadParams("matrix must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(np.bincount(rows, vals, n), vals)
        # The plain steps' entries, the listed ones and n diagonal ones,
        # row-major with columns ascending; the check steps use the listed ones.
        diagonal = np.arange(n)
        plain_rows, plain_cols = np.concatenate((rows, diagonal)), np.concatenate((cols, diagonal))
        order = np.lexsort((plain_cols, plain_rows))
        plain_rows, plain_cols = plain_rows[order], plain_cols[order]
        listed = order < len(vals)
        on_diagonal = ~listed
        rows, cols, vals = plain_rows[listed], plain_cols[listed], vals[order[listed]]
        plain_vals = np.empty(len(order))
        x = np.ones(n)
        step = 0
        for checks in itertools.count(1):
            step += 1
            x /= x.max()
            y = np.bincount(rows, vals * x[cols], n)
            rho = float(x @ y) / float(x @ x)
            d = y - rho * x
            residual = float(abs(d).max())
            if not math.isfinite(residual):
                raise NoConvergence(step, residual)
            if residual <= tol * rho:
                return SpectralResult(rho, x, residual, step, tol)
            if step == MAX_ITERATIONS:
                raise NoConvergence(step, residual)
            shift = _safe_shift(rows, cols, vals, x, y, d, rho, residual)
            y += shift * x
            x = y
            plain_vals[listed] = vals / (rho + shift)
            plain_vals[on_diagonal] = shift / (rho + shift)
            plain = min(checks, MAX_ITERATIONS - step - 1)
            for _ in range(plain):
                x = np.bincount(plain_rows, plain_vals * x[plain_cols], n)
            step += plain


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

    A check step takes x, normalized to unit maximum entry, its Rayleigh
    quotient rho_k = x.Mx / x.x, and stops once max|Mx - rho_k x| <= tol * rho_k;
    ``tol`` is relative at every scale, so rho(c f) = c rho(f) up to rounding.
    Otherwise it maps x to Mx + s_k x, where the shift s_k in (0, rho_k] is
    half the gap between an upper bound on rho (Collatz-Wielandt) and a lower
    bound on lambda_2 (a Ritz value), so the slowest other eigenvalue and
    -rho shrink alike. The k-th check is followed by k plain steps
    x <- (M + s_k I)x / (rho_k + s_k), so checks fall at steps 1, 3, 6, 10,
    ... and ``iterations`` counts both kinds. Deterministic for fixed
    input. For a connected graph the returned vector is strictly positive.
    Weights with a non-finite value or row sum are rejected with BadParams,
    and an iterate that overflows (a non-finite rho or residual at a check)
    raises NoConvergence at once.
    """
    us, vs, w = _edge_weights(G, f)
    check_tol(tol)
    return _power_iteration(
        np.concatenate((us, vs)), np.concatenate((vs, us)), np.concatenate((w, w)), G.n, tol
    )


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
