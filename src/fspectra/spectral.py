"""Weighted adjacency matrices, Perron values, and full spectra.

Class searches score a whole stack of same-order matrices with one call of
LAPACK's symmetric eigensolver (``perron_values``). A single graph's Perron
value (``f_spectral_radius``) comes from power iteration on M + s I, M the
f-adjacency matrix. At each check, r is the Rayleigh quotient and the
shift s = -(theta + L) / 2 centres on 0 a bracket [L, theta] of every
eigenvalue but rho: theta is a Ritz value below lambda_2 and L a floor of
the spectrum, so every other eigenvalue lambda shrinks by
|lambda + s| / (rho + s) < 1 per step. On M, L = -rho_up, minus rho's
Collatz-Wielandt upper bound, and s, capped at r, lies in (0, r]: M + s I
is nonnegative, so the iterate stays positive and 0 < r <= rho. Then
lambda_2 and -rho shrink alike, by about 1 - (rho - lambda_2) / rho per
step on a small gap, where s = r gives 1 - (rho - lambda_2) / (2 rho): a
long path needs half the steps. Most steps are plain: one gather, one
multiply and one ``np.bincount`` over the entries of (M + s I) / (r + s),
whose Perron factor (rho + s) / (r + s) stays near 1, so they need no
normalization. Check steps, on a schedule that grows by one plain step per
check, normalize, refresh r and s and test the residual. Every step touches
only the nonzero entries, listed from the graph's edges with f evaluated
once per distinct degree pair, so it costs O(m) on a graph of m edges and
no n x n matrix is built.

A long path's gap is O(rho / n^2), so it needs O(n^2) steps. A path, like
every tree, is bipartite, and then M is [[0, C], [C^T, 0]] up to the order
of the vertices: rho is the largest singular value of C, and A = C C^T on one
side U has Perron value rho^2 and its other eigenvalues sigma_i^2 >= 0,
none near -rho^2. So the first check that does not accept at step 4n or
later tries to fold: if a BFS two-colours the graph, and the side W
opposite U has sum_W d_w^2 <= 4m, the number of products A's entries are
summed from, the same loop runs on A. A path's A has about 1.5 n entries
against 3 n for M + s I. A's spectrum has floor 0, not -rho^2, so its shift
is s = -theta / 2 <= 0, half a Ritz lower bound theta on lambda_2(A): it
maps [0, lambda_2] into about [-lambda_2 / 2, lambda_2 / 2]; each step on A
shrinks lambda_2 as four steps on M do. A + s I can have negative diagonal
entries, so A's iterate, and the vector lifted back from it by
x_W = C^T x_U / sqrt(rho_A), can have negative ones. The lifted vector is
accepted only by the check on M, which accepts no vector with a negative
entry. A solve that converges sooner, an odd cycle and a costly fold leave
the loop on M exactly as it was.

The power iteration accepts rho once its residual on a vector with no
negative entry is at most tol * rho, at any scale; the batched solve
accepts each signed unit eigenvector's residual up to tol * max(1, rho)
and returns an error half-width with each rho. Full spectra go through
LAPACK's symmetric eigensolver, and refuse an order above
``FULL_SPECTRUM_MAX_ORDER`` before any matrix is built.
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


class _Operator:
    """A symmetric nonnegative n x n matrix M with entry vals[k] at
    (rows[k], cols[k]) and zeros elsewhere.

    Its entries, and those of the plain steps' (M + s I) / (r + s), which
    add n diagonal ones, are kept row-major with columns ascending, so each
    product sums a row in column order whatever order the entries came in.
    """

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
    """A = C C^T on one side U of a bipartite M, whose U x W block is C.

    Built from M's entries divided by the largest one, which keeps products
    of tiny or huge weights in range, A has Perron value (rho / scale)^2 and
    M's Perron vector restricted to U. A is nonnegative and positive
    semidefinite, so none of its eigenvalues lies near -rho^2. Its entry
    (u, u') sums M[u, w] M[w, u'] over the w in W next to both, from one
    join of M's entries over the sum_W d_w^2 pairs that share a w, stored
    row-major with columns ascending like every ``_Operator``.
    """

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
    """Shift s of the steps after a check: s = -(theta + L) / 2, which centres
    the bracket [L, theta] of every eigenvalue but the Perron value on 0.

    x is the check's iterate, y = Mx, rho = x.y / x.x and d = y - rho x, with
    max|d| = residual > 0. theta, the lower Ritz value of M on span{x, d}, is
    at most lambda_2 by Cauchy interlacing. In the orthonormal basis
    x / |x|, d / |d| that restriction is [[rho, |d| / |x|], [|d| / |x|, e.Me / e.e]],
    e = d / residual, so every term is scale-free. With L at most M's least
    eigenvalue, every other eigenvalue lambda in [L, lambda_2] then has
    |lambda + s| <= lambda_2 + s < rho + s.

    On M, L = -rho_up, with rho_up = max y_v / x_v over the entries with
    x_v > 0 the Collatz-Wielandt upper bound on rho, and s = (rho_up - theta) / 2
    is capped at rho: a small gap lambda_2 = rho - delta shrinks by about
    1 - delta / rho per step, against 1 - delta / (2 rho) for s = rho. A
    positive semidefinite M (``psd``, the fold A) has L = 0, and
    s = -theta / 2 in (-rho / 2, 0] shrinks it by about 1 - 2 delta / rho,
    against 1 - delta / rho for s = 0. A shift outside those ranges, as when
    a bound overflows, falls back to rho on M and to 0 on A.
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


def _power_iteration(rows, cols, vals, n, tol):
    """Perron data of the n x n matrix M with entry vals[k] at (rows[k], cols[k])
    and zeros elsewhere, by at most MAX_ITERATIONS steps of either kind.

    A check step normalizes x to unit maximum, takes rho = x.Mx / x.x and
    the residual max|Mx - rho x|, returns once that is at most tol * rho
    and x has no negative entry, and otherwise takes the shift s of
    ``_safe_shift``, 0 < s <= rho and s >= (rho - lambda_2) / 2 up to its
    fallback, and maps x to Mx + s x.
    The k-th check is followed by k plain steps x <- (M + s I)x / (rho + s),
    with no normalization and no residual, so checks fall at steps 1, 3, 6,
    10, ... and a result only ever comes from a check on M.

    The first check that does not accept at step 4n or later tries the fold
    of ``_Fold``: if M's graph is bipartite and the fold costs at most 4m
    pairs, the same loop runs on A = C C^T from x restricted to U, with the
    schedule restarted and the shift -lambda_2(A) / 2 <= s <= 0 of A's
    floor 0, until A's residual is at most tol / 4 times its Rayleigh
    quotient rho_A. Then x_W = C^T x_U / sqrt(rho_A) lifts x back, and the
    loop goes on on M from the lifted vector, with its next check first:
    that check accepts, or, on a large residual or a negative entry left by
    A's negative shifts, the M loop continues. Otherwise the loop goes on on
    M as if nothing had been tried. ``iterations`` counts the steps on M and
    on A.
    """
    if n == 0:
        raise BadParams("matrix must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(np.bincount(rows, vals, n), vals)
        M = A = _Operator(rows, cols, vals, n)
        fold_at, limit = 4 * n, MAX_ITERATIONS
        x = np.ones(n)
        step = checks = 0
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
            if A is not M:
                if residual <= tol / 4 * rho or step == limit:
                    x, A, checks, limit = fold.lift(x, rho), M, 0, MAX_ITERATIONS
                    continue
            elif residual <= tol * rho and x.min() >= 0:
                return SpectralResult(rho, x, residual, step, tol)
            elif step == limit:
                raise NoConvergence(step, residual)
            elif fold_at <= step < limit - 1:
                fold_at = math.inf
                fold = _Fold.of(M)
                if fold is not None:
                    # A's steps stop one short of the cap, for the lift's check on M.
                    x, A, checks, limit = x[fold.U], fold.A, 0, MAX_ITERATIONS - 1
                    continue
            shift = _safe_shift(A, x, y, d, rho, residual, A is not M)
            y += shift * x
            plain = min(checks, limit - step - 1)
            x = A.plain_steps(y, rho, shift, plain)
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
    ... and ``iterations`` counts both kinds.

    A solve still unconverged at its first check at step 4n or later, on a
    bipartite graph whose side W has sum_W d_w^2 <= 4m, finishes on the fold
    A = C C^T over the other side U, where M = [[0, C], [C^T, 0]]: half the
    vertices, and no eigenvalue below 0, so its shift s_k in
    [-lambda_2(A) / 2, 0] is minus half a lower bound on lambda_2(A). Its
    vector is lifted back and accepted only by the check on M, and only
    with no negative entry (``_power_iteration``); ``iterations`` then
    counts the steps on A too. Any other solve never leaves M.

    Deterministic for fixed input. For a connected graph the returned vector
    is strictly positive. Weights with a non-finite value or row sum are rejected with BadParams,
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
