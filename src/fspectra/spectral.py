"""Weighted adjacency matrices, Perron values, and full spectra.

Class searches score a stack of same-order matrices with one call of
LAPACK's symmetric eigensolver (``perron_values``). Full spectra also go
through LAPACK, and refuse an order above ``FULL_SPECTRUM_MAX_ORDER`` before
any matrix is built.

A single graph's Perron value (``f_spectral_radius``) comes from power
iteration on M, its f-adjacency matrix, listed from the graph's edges with f
evaluated once per distinct degree pair: a step costs O(m) and no n x n
matrix is built. M is first scaled by the power of two that puts its
largest entry in [1/2, 1), which is exact, so that no product of tiny or
huge weights underflows or overflows; rho and the residual are scaled back.

A check step (``_checks``) normalizes x to unit maximum, takes the Rayleigh
quotient r = x.Mx / x.x and the residual max|Mx - r x|, and maps x to
Mx + s x. The k-th check is followed by k plain steps
x <- (M + s I) x / (r + s), one gather, multiply and ``np.bincount`` each,
unnormalized since their Perron factor (rho + s) / (r + s) stays near 1. So
checks fall at steps 1, 3, 6, 10, ..., cut so that the last allowed step is
a check. The shift s = -(theta + L) / 2 (``_safe_shift``) centres on 0 a
bracket [L, theta] of every eigenvalue but rho, theta a Ritz value at most
lambda_2 and L a floor of the spectrum, so each other eigenvalue lambda
shrinks by |lambda + s| / (rho + s) < 1 per step. On M, L is minus rho's
Collatz-Wielandt upper bound and s lies in (0, r]: M + s I is nonnegative,
and a small gap lambda_2 = rho - delta shrinks by about 1 - delta / rho per
step, where s = r gives 1 - delta / (2 rho).

A long path's gap is O(rho / n^2), so it needs O(n^2) steps. On a bipartite
graph M is [[0, C], [C^T, 0]] up to the order of the vertices, and
A = C C^T on one side U (``_Fold``) has Perron value rho^2, M's Perron
vector restricted to U, and other eigenvalues sigma_i^2 >= 0, none near
-rho^2. So a solve runs in up to three stages:

1. Checks on M from x = 1, until one accepts or the first one at step 4n or
   later does not.
2. If a BFS two-colours the graph and the side W opposite U has
   sum_W d_w^2 <= 4m, the number of products A's entries are summed from,
   checks on A from x restricted to U, until A's residual is at most
   tol / 4 times its Rayleigh quotient rho_A or the run reaches step
   MAX_ITERATIONS - 1. A is positive semidefinite, so L = 0 and
   s = -theta / 2 <= 0: a step on A, with about half the entries of
   M + s I on a path, shrinks lambda_2 as about four steps on M do.
3. Checks on M again, on a fresh schedule, from the vector lifted back by
   x_W = C^T x_U / sqrt(rho_A).

A refused fold leaves stage 1's run going on. A check on M accepts r once
its residual is at most tol * r and x has no negative entry: A + s I can
have negative diagonal entries, so a lifted vector can have negative ones.
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


class _Operator:
    """A symmetric nonnegative n x n matrix M with entry vals[k] at
    (rows[k], cols[k]) and zeros elsewhere, kept, like the plain steps'
    (M + s I) / (r + s), row-major with columns ascending: each product sums
    a row in column order whatever order the entries came in."""

    def __init__(self, rows, cols, vals, n):
        diagonal = np.arange(n)
        plain_rows, plain_cols = np.concatenate((rows, diagonal)), np.concatenate((cols, diagonal))
        order = np.lexsort((plain_cols, plain_rows))
        self.plain_rows, self.plain_cols = plain_rows[order], plain_cols[order]
        self.listed = order < len(vals)
        self.on_diagonal = ~self.listed
        self.rows, self.cols = self.plain_rows[self.listed], self.plain_cols[self.listed]
        self.vals = vals[order[self.listed]]
        self.plain_vals = np.empty(len(order))
        self.n = n

    def __matmul__(self, x):
        return np.bincount(self.rows, self.vals * x[self.cols], self.n)

    def plain_steps(self, x, rho, shift, count):
        """x after count steps x <- (M + shift I) x / (rho + shift)."""
        self.plain_vals[self.listed] = self.vals / (rho + shift)
        self.plain_vals[self.on_diagonal] = shift / (rho + shift)
        for _ in range(count):
            x = np.bincount(self.plain_rows, self.plain_vals * x[self.plain_cols], self.n)
        return x


def _two_colouring(M):
    """Side 0 or 1 of each vertex of M's graph, by a BFS per component, or
    None if some entry joins two vertices of one side (an odd cycle)."""
    start = np.searchsorted(M.rows, np.arange(M.n + 1)).tolist()
    neighbours = M.cols.tolist()
    side = [-1] * M.n
    for root in range(M.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = [root]
        for u in queue:
            for w in neighbours[start[u]:start[u + 1]]:
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return np.array(side)


class _Fold:
    """A = C C^T on one side U of a bipartite M, whose U x W block is C,
    built from M's entries divided by the largest one, so that its Perron
    value is (rho / scale)^2. Its entry (u, u') sums M[u, w] M[w, u'] over
    the w in W next to both, from one join of M's entries over the
    sum_W d_w^2 pairs that share a w."""

    def __init__(self, M, W, degree):
        self.M, self.W = M, W
        self.U = np.flatnonzero(~W)
        self.scale = float(M.vals.max())
        index = np.empty(M.n, dtype=np.intp)
        index[self.U] = np.arange(len(self.U))
        # M's entries in rows w in W, grouped by w: entry k pairs with each
        # entry of its group, first[k] to first[k] + counts[k] - 1.
        from_w = W[M.rows]
        r, c, v = M.rows[from_w], index[M.cols[from_w]], M.vals[from_w] / self.scale
        first = np.searchsorted(r, r)
        counts = degree[r]
        i = np.repeat(np.arange(len(r)), counts)
        j = np.repeat(first, counts) + np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
        keys, inverse = np.unique(c[i] * len(self.U) + c[j], return_inverse=True)
        rows, cols = np.divmod(keys, len(self.U))
        self.A = _Operator(rows, cols, np.bincount(inverse, v[i] * v[j]), len(self.U))

    @classmethod
    def of(cls, M):
        """The fold of M onto the side U whose opposite side W has the smaller
        sum_W d_w^2, or None if M's graph is not bipartite or that sum, the
        number of pairs the join makes, exceeds 4m."""
        side = _two_colouring(M)
        if side is None:
            return None
        degree = np.bincount(M.rows, minlength=M.n)
        cost = [int((degree[side == s] ** 2).sum()) for s in (0, 1)]
        w_side = int(cost[1] <= cost[0])
        if cost[w_side] > 2 * len(M.rows):
            return None
        return cls(M, side == w_side, degree)

    def lift(self, x_u, mu):
        """M's vector from A's x_u with Rayleigh quotient mu: x_W = C^T x_U / sqrt(mu),
        with C^T x_U read off M applied to x_u padded with zeros."""
        x = np.zeros(self.M.n)
        x[self.U] = x_u
        x[self.W] = (self.M @ x)[self.W] / (self.scale * math.sqrt(mu))
        return x


def _safe_shift(M, x, y, d, rho, residual, psd):
    """Shift s = -(theta + L) / 2 of the steps after a check.

    x is the check's iterate, y = Mx, rho = x.y / x.x and d = y - rho x, with
    max|d| = residual > 0. theta, the lower Ritz value of M on span{x, d}, is
    at most lambda_2 by Cauchy interlacing. In the orthonormal basis
    x / |x|, d / |d| that restriction is [[rho, |d| / |x|], [|d| / |x|, e.Me / e.e]],
    e = d / residual, so every term is scale-free. The floor L is
    -max y_v / x_v over x_v > 0 (Collatz-Wielandt), or 0 on a positive
    semidefinite M (``psd``). s is kept in (0, rho) on M, falling back to
    rho, and in (-rho / 2, 0) on a psd M, falling back to 0.
    """
    e = d / residual
    ee = float(e @ e)
    c = float(e @ (M @ e)) / ee
    b = residual * math.sqrt(ee / float(x @ x))
    theta = (rho + c) / 2 - math.hypot((rho - c) / 2, b)
    if psd:
        floor, low, cap = 0.0, -rho / 2, 0.0
    else:
        positive = x > 0
        floor, low, cap = -float((y[positive] / x[positive]).max()), 0.0, rho
    shift = -(theta + floor) / 2
    return shift if low < shift < cap else cap


def _checks(A, x, step, limit, psd):
    """The check steps of the power iteration on A from x, after ``step``
    steps: yields (step, x, rho, residual) at each, x scaled to unit maximum,
    rho = x.Ax / x.x and residual = max|Ax - rho x|, and raises NoConvergence
    on a non-finite residual. Plain steps are cut so that step ``limit`` is a
    check; ``psd`` is ``_safe_shift``'s. A yielded x is never changed.
    """
    checks = 0
    while True:
        checks += 1
        step += 1
        x /= x.max()
        y = A @ x
        rho = float(x @ y) / float(x @ x)
        d = y - rho * x
        residual = float(abs(d).max())
        if not math.isfinite(residual):
            raise NoConvergence(step, residual)
        yield step, x, rho, residual
        shift = _safe_shift(A, x, y, d, rho, residual, psd)
        y += shift * x
        plain = min(checks, limit - step - 1)
        x = A.plain_steps(y, rho, shift, plain)
        step += plain


def _stages(M, tol):
    """Every check on M of a solve, through the three stages of the module
    docstring; a check at step MAX_ITERATIONS is the last."""
    run = _checks(M, np.ones(M.n), 0, MAX_ITERATIONS, False)
    for check in run:
        yield check
        step, x = check[:2]
        if step >= 4 * M.n:
            break
    fold = _Fold.of(M) if step < MAX_ITERATIONS - 1 else None
    if fold is None:
        yield from run
        return
    for step, x_u, rho, residual in _checks(fold.A, x[fold.U], step, MAX_ITERATIONS - 1, True):
        if residual <= tol / 4 * rho or step == MAX_ITERATIONS - 1:
            break
    yield from _checks(M, fold.lift(x_u, rho), step, MAX_ITERATIONS, False)


def _power_iteration(rows, cols, vals, n, tol):
    """Perron data of the n x n matrix M with entry vals[k] at (rows[k], cols[k])
    and zeros elsewhere, from the first check on M whose residual is at most
    tol * rho and whose vector has no negative entry. ``iterations`` counts
    every step, of either kind and on either operator; NoConvergence is
    raised at MAX_ITERATIONS steps or on a non-finite residual.
    """
    if n == 0:
        raise BadParams("matrix must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(np.bincount(rows, vals, n), vals)
        e = math.frexp(vals.max(initial=0.0))[1]
        M = _Operator(rows, cols, np.ldexp(vals, -e), n)
        for step, x, rho, residual in _stages(M, tol):
            if residual <= tol * rho and x.min() >= 0:
                return SpectralResult(math.ldexp(rho, e), x, math.ldexp(residual, e), step)
            if step == MAX_ITERATIONS:
                raise NoConvergence(step, math.ldexp(residual, e))


def perron_values(stack):
    """Perron data of every matrix in a (k, n, n) stack, from one LAPACK call.

    Each matrix must be symmetric and nonnegative. Returns (rho, vectors,
    errors): rho[i] is the largest eigenvalue of stack[i], vectors[i] the
    absolute value of its eigenvector v, signed and of unit norm, scaled to
    unit maximum entry, and errors[i] = ||Mv - rho*v||_2 + n*eps*(max row sum)
    an error half-width for rho[i] (Weyl's inequality, plus a bound on the
    residual's rounding). NoConvergence (counting the direct solve as one
    iteration) is raised if a residual exceeds DEFAULT_TOL * max(1, rho). The
    vectors themselves are not checked: when the top two eigenvalues nearly
    coincide, |v| can be far from an eigenvector while rho is accurate. A
    non-finite entry or row sum is rejected with BadParams.
    """
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
    missed = signed > DEFAULT_TOL
    if missed.any():
        raise NoConvergence(1, float((signed * scale)[missed].max()))
    x = np.abs(v)
    x /= x.max(axis=1, keepdims=True)
    return rho, x, signed * scale + stack.shape[1] * np.finfo(float).eps * sums.max(axis=1)


def f_spectral_radius(G, f, tol=DEFAULT_TOL):
    """Largest eigenvalue of the f-adjacency matrix of G by power iteration
    on G's edge list (module docstring).

    It stops once max|Mx - rho x| <= tol * rho, x at unit maximum entry;
    ``tol`` is relative at every scale, so rho(c f) = c rho(f) up to
    rounding. ``iterations`` counts every step taken. Deterministic for
    fixed input, whatever the order of G's edges. For a connected graph the
    returned vector is strictly positive. Weights with a non-finite value or
    row sum are rejected with BadParams; NoConvergence is raised after
    MAX_ITERATIONS steps or on a non-finite residual.
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
    theta = full_spectrum(f_adjacency(subdivided(G, e), f))
    # theta_i - lambda_{i-2} and lambda_{i+1} - theta_i, each at most 0 where it holds.
    worst = float(np.concatenate((theta[2:] - lam[:-1], lam[1:] - theta[:-2])).max(initial=0.0))
    return InterlacingReport(worst <= INTERLACING_TOL, list(lam), list(theta), worst)
