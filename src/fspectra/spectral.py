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
Mx + r x. The k-th check is followed by k plain steps
x <- (M + r I) x / (2 r), one gather, multiply and ``np.bincount`` each,
unnormalized since their Perron factor (rho + r) / (2 r) stays near 1. So
checks fall at steps 1, 3, 6, 10, ..., cut so that the last allowed step is
a check. M + r I is nonnegative, and each other eigenvalue lambda shrinks by
|lambda + r| / (rho + r) per step: -rho at once, and a small gap
lambda_2 = rho - delta by about 1 - delta / (2 rho).

A long path's gap is O(rho / n^2), so it would need O(n^2) steps. Instead,
vertices of degree at most 2 are eliminated from lambda I - M (Hoffman and
Smith's series reduction, the generalized Lu-Man method's algebra), down to
a kernel K: a few vertices for graphs made of chains, nearly all of them
for a 3 x k grid. So a solve runs in up to three stages:

1. Checks on M from x = 1, until one accepts or stage 2 starts: at the
   first check from step 4k on whose residual's decay since the previous
   check, (r_k / r_j)^(1 / (s_k - s_j)) per step, predicts a run on M past
   step 150 + 4c, as every check from that step on does; a residual that
   did not shrink predicts nothing. c counts the vertices of degree other
   than 2, each a Python step or a kernel order per evaluation. k = min(b,
   2(m - n)) + 1, b the vertices of degree above 2, bounds the kernel's
   order (a connected graph's 2-core has at most 2(m - n) branch
   vertices); a dense evaluation of order k costs about 4k steps.
2. The reduction (``_series``) is rooted at the middle one of the vertices
   where x is largest, as x is flat along long chains early on. If the root
   is a branch vertex of the 2-core, one with three or more neighbours in
   it, the hubs carry the Perron mass and all of them are kept; else the
   root alone. Every other vertex of degree at most 2 is removed. First
   the chains: maximal runs of such vertices, each ending at one or two
   other vertices, its attachments, or at a leaf. Every edge inside a
   chain joins two vertices of degree 2 and weighs w = f(2, 2), so the
   chain's pivots, its Schur complement on its attachments and its entries
   of x have closed forms in lambda / 2w (``_responses``): all chains
   together cost a fixed number of array operations per evaluation. A
   chain between two attachments joins them by a fill edge. Then the
   skeleton: the other vertices of current degree at most 2, first in,
   first out; a fill edge joins its two neighbours. At a trial lambda
   (``_evaluate``), the chains add their terms to their attachments'
   entries, and each skeleton v in turn has pivot p_v = lambda - w_vv and
   adds w_va w_vb / p_v to w_ab for each pair a, b of its neighbours at
   removal, a = b included. The least eigenpair (phi, u) of the kernel's
   Schur complement lambda I - W_KK, u positive and of unit norm, gives x_K
   = u, in closed form for one or two kernel vertices; else by eigh, whose
   small entries then come from their own rows. In reverse order, x_v =
   sum_a w_va x_a / p_v on the skeleton, and each chain vertex's x follows
   from its attachments'. As x.(lambda I - M)x = phi, lambda - phi / |x|^2
   is x's Rayleigh quotient and the Newton point of phi, which is
   increasing and concave above the removed block's Perron value. From
   lambda = r, each evaluation steps there, within a bracket: lo is the
   largest lambda whose pivots failed, and hi the smallest with phi > 0, or
   else the check's Collatz-Wielandt bound max (Mx)_v / x_v. A failed pivot
   moves halfway to hi, and a Newton point at or below lo is replaced by
   (lo + hi) / 2. Once a step is at most tol / 16 times lambda, the x of
   the evaluation at its Newton point is returned, or this x if, at the
   rate it moved since the previous evaluation, the step would move it by
   at most tol / 16 of its maximum; a Newton point that rounds to lambda
   returns this x too. A non-finite x, or 100 evaluations, refuse it.
3. Checks on M again, on a fresh schedule, from the reduced vector.

A refused reduction leaves stage 1's run going on. A check on M accepts r
once its residual is at most tol * r. No stage makes a negative entry, as
M + r I is nonnegative, back-substitution multiplies positive numbers only
and a chain's closed forms are positive wherever its pivots are; an entry
whose exact value lies below the double range reads 0.
"""

import math
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .errors import BadParams, NoConvergence, SizeLimit
from .graph_core import degrees, subdivided
from .weights import eval_weight

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 10 ** 6
FULL_SPECTRUM_MAX_ORDER = 64
INTERLACING_TOL = 1e-8
HANDOFF_STEPS = 150


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


def _edge_weights(G, f, edges=None):
    """Endpoint arrays us, vs and weights w = f(d_u, d_v) of G's edges in
    the order of ``edges`` (default ``G.edges``, as ``f_adjacency`` walks
    them), with f called once per degree pair in order of first occurrence:
    a walk calling f on each edge in that order names the same missing pair."""
    ends = np.fromiter(chain.from_iterable(edges or G.edges), np.intp, 2 * G.m).reshape(-1, 2)
    pairs = np.bincount(ends.ravel(), minlength=G.n)[ends]
    du, dv = pairs.T
    # A degree pair's sum and product name it whichever way round it comes.
    keys, values = ((du + dv) * G.n ** 2 + du * dv).tolist(), {}
    for e, key in enumerate(keys):
        if key not in values:
            values[key] = eval_weight(f, *pairs[e].tolist())
    return ends[:, 0], ends[:, 1], np.fromiter(map(values.__getitem__, keys), float, len(keys))


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
    (M + r I) / (2 r), row-major with columns ascending: each product sums
    a row in column order whatever order the entries came in."""

    def __init__(self, rows, cols, vals, n):
        diagonal = np.arange(n)
        plain_rows, plain_cols = np.concatenate((rows, diagonal)), np.concatenate((cols, diagonal))
        order = np.lexsort((plain_cols, plain_rows))
        self.plain_rows, self.plain_cols = plain_rows[order], plain_cols[order]
        self.listed = order < len(vals)
        self.rows, self.cols = self.plain_rows[self.listed], self.plain_cols[self.listed]
        self.vals = vals[order[self.listed]]
        self.plain_vals = np.full(len(order), 0.5)
        self.n = n

    def __matmul__(self, x):
        return np.bincount(self.rows, self.vals * x[self.cols], self.n)

    def plain_steps(self, x, rho, count):
        """x after count steps x <- (M + rho I) x / (2 rho)."""
        self.plain_vals[self.listed] = self.vals / (2 * rho)
        for _ in range(count):
            x = np.bincount(self.plain_rows, self.plain_vals * x[self.plain_cols], self.n)
        return x


def _checks(M, x, step):
    """The check steps of the power iteration on M from x, after ``step``
    steps: yields (step, x, rho, residual) at each, x scaled to unit maximum,
    rho = x.Mx / x.x and residual = max|Mx - rho x|, and raises NoConvergence
    on a non-finite residual. Plain steps are cut so that step
    MAX_ITERATIONS is a check. A yielded x is never changed.
    """
    checks = 0
    while True:
        checks += 1
        step += 1
        x /= x.max()
        y = M @ x
        rho = float(x @ y) / float(x @ x)
        residual = float(abs(y - rho * x).max())
        if not math.isfinite(residual):
            raise NoConvergence(step, residual)
        yield step, x, rho, residual
        plain = min(checks, MAX_ITERATIONS - step - 1)
        x = M.plain_steps(y + rho * x, rho, plain)
        step += plain


def _series(M, root):
    """The series reduction of M's graph from ``root`` (module docstring) as a
    namespace of the fields below, ``n``, M's order, and ``buffers``, two
    arrays of order n that ``_evaluate`` fills in turn. A run of removable
    vertices with no neighbour outside it is left to the skeleton. M's
    entries must depend only on their endpoints' degrees, so that every edge
    between two chain vertices weighs the same ``w`` (0 where there is none).

    Skeleton and kernel entries live in slots of one flat list, which starts
    as ``values``: one value per unordered pair a <= b of vertices outside
    chains, M's entry where M lists the pair and 0 for each diagonal or fill
    entry the elimination adds. ``skeleton`` lists the removed skeleton
    vertices in order, each as (v, the slot of w_vv, (slot of w_va, a) for
    each neighbour a at removal, and (slot of w_ab, slot of w_va, slot of
    w_vb) for each pair a <= b of them). ``entries`` holds the kernel's
    entries as arrays of rows, columns and slots, rows and columns indexing
    ``kernel``.

    A chain is listed as one run toward each of its attachments, a pendant
    chain's run without its leaf. Run entry e is the k-th of its run's R
    vertices, counted from the far end: ``gather`` holds (k, k - 1, R + 1,
    R) and ``power`` R - k, indices into the tables that ``_responses``
    builds over ``m`` = 0, 1, .... ``beta`` is the weight of the run's edge
    at its attachment and ``leaf_squares`` the square of its leaf's edge, or
    0. Leaf entries follow the run entries: a leaf's part of x is
    ``leaf_weights`` / lambda times that of run entry ``leaf_entries``.
    ``vertices`` and ``attachments`` name each entry's vertex and
    attachment. ``ends`` lists as (entries, factors, slots) the terms that
    the chains add to the slots: beta times the part of each run's R-th
    vertex to w_bb, b its attachment, and for a chain between a and b, the
    weight of its edge at a times the part of its first vertex toward b to
    w_ab, twice where a = b.
    """
    n, rows, cols = M.n, M.rows, M.cols
    degree = np.bincount(rows, minlength=n)
    start = np.append(0, np.cumsum(degree))
    # Each vertex's first and second neighbour (columns ascend along a row)
    # and their edges' weights; -1 and 0 past its degree.
    ahead = start[:-1] + np.arange(2)[:, None]
    first, second = np.where(degree > ahead - start[:-1], np.append(cols, (-1, -1))[ahead], -1).tolist()
    weights = np.append(M.vals, (0.0, 0.0))[ahead].tolist()
    kept = [root]
    if degree[root] > 2:
        # The 2-core: strip the vertices left with at most one neighbour.
        core, neighbours, start = degree.tolist(), cols.tolist(), start.tolist()
        stripped = np.flatnonzero(degree < 2).tolist()
        for v in stripped:
            for a in neighbours[start[v]:start[v + 1]]:
                core[a] -= 1
                if core[a] == 1:
                    stripped.append(a)
        if core[root] > 2:
            kept = np.flatnonzero(np.array(core) > 2).tolist()
    keep = np.zeros(n + 1, dtype=bool)
    keep[kept] = True
    low = np.append(degree < 3, False) & ~keep
    lows = low.tolist()

    def weight(u, a):
        return weights[first[u] != a][u]

    def beyond(u, a):
        return second[u] if first[u] == a else first[u]

    # runs: (vertices, attachment, beta, leaf edge squared); count: their entries.
    seen, chained, fills, runs, leaves, ends, w, count = set(), [], [], [], [], [], 0.0, 0
    # Walk each run from an end: a low vertex with at most one low neighbour.
    for v in np.flatnonzero(low[:-1] & (low[first] + low[second].astype(int) < 2)).tolist():
        if v in seen:
            continue
        chain, b = [v], first[v] if lows[first[v]] else second[v]
        a = beyond(v, b)
        while lows[b]:
            chain.append(b)
            b = beyond(b, chain[-2])
        seen.update(chain)
        if b < 0:
            chain, a, b = chain[::-1], b, a
        if b < 0:
            continue
        chained += chain
        if a >= 0:
            if a != b:
                fills.append((a, b))
            ends.append((count, weight(chain[0], a) * (2 if a == b else 1), (min(a, b), max(a, b))))
            new = [(chain, b, 0.0), (chain[::-1], a, 0.0)]
        elif len(chain) == 1:
            new = [(chain, b, 0.0)]
        else:
            leaves.append((chain[0], b, count, weight(chain[0], chain[1])))
            new = [(chain[1:], b, weight(chain[0], chain[1]) ** 2)]
        for run, b, square in new:
            count += len(run)
            runs.append((run, b, weight(run[-1], b), square))
            ends.append((count - 1, weight(run[-1], b), (b, b)))
            if len(run) > 1:
                w = weight(run[0], run[1])

    outside = np.ones(n, dtype=bool)
    outside[chained] = False
    rest = np.flatnonzero(outside).tolist()
    inner = outside[rows] & outside[cols]
    adjacent = {v: set() for v in rest}
    for a, b in [*zip(rows[inner].tolist(), cols[inner].tolist()), *fills]:
        adjacent[a].add(b)
        adjacent[b].add(a)
    pairs = inner & (rows < cols)
    slots = {pair: i for i, pair in enumerate(zip(rows[pairs].tolist(), cols[pairs].tolist()))}
    values = M.vals[pairs].tolist()
    ends = [(e, factor, slots.setdefault(pair, len(slots))) for e, factor, pair in ends]
    keep = keep.tolist()
    queue = [v for v in rest if not keep[v] and len(adjacent[v]) <= 2]
    queued = set(queue)
    skeleton = []
    for v in queue:
        near = sorted(adjacent[v])
        terms = [(slots[(v, a) if v < a else (a, v)], a) for a in near]
        fills = [(slots.setdefault((a, b), len(slots)), s, t)
                 for i, (s, a) in enumerate(terms) for t, b in terms[i:]]
        skeleton.append((v, slots.setdefault((v, v), len(slots)), terms, fills))
        for a in near:
            neighbours = adjacent[a]
            neighbours.discard(v)
            neighbours.update(near)
            neighbours.discard(a)
            if not keep[a] and a not in queued and len(neighbours) <= 2:
                queued.add(a)
                queue.append(a)
    kernel = [v for v in rest if v not in queued]
    index = {v: i for i, v in enumerate(kernel)}
    entries = [(i, i, slots[a, a]) for i, a in enumerate(kernel) if (a, a) in slots]
    entries += [(i, index[b], slots[(a, b) if a < b else (b, a)])
                for i, a in enumerate(kernel) for b in adjacent[a]]
    values += [0.0] * (len(slots) - len(values))

    sizes = np.array([len(run) for run, _, _, _ in runs], dtype=np.intp)
    R = np.repeat(sizes, sizes)
    k = np.arange(count) - np.repeat(np.cumsum(sizes) - sizes, sizes) + 1
    per_run = np.array([(b, beta, square) for _, b, beta, square in runs]).reshape(-1, 3)
    attachment, beta, square = np.repeat(per_run, sizes, axis=0).T
    vertex = np.array([v for run, _, _, _ in runs for v in run])
    leaf, leaf_attachment, leaf_entry, leaf_weight = np.array(leaves).reshape(-1, 4).T
    entry, factor, slot = np.array(ends).reshape(-1, 3).T
    return SimpleNamespace(
        n=n, values=np.array(values), skeleton=skeleton, kernel=kernel,
        entries=np.array(entries, dtype=np.intp).reshape(-1, 3).T, buffers=[np.empty(n), np.empty(n)],
        w=w, m=np.arange(R.max(initial=0) + 2, dtype=float),
        gather=np.array([k, k - 1, R + 1, R]), power=R - k, beta=beta, leaf_squares=square,
        leaf_entries=leaf_entry.astype(np.intp), leaf_weights=leaf_weight,
        vertices=np.concatenate((vertex, leaf)).astype(np.intp),
        attachments=np.concatenate((attachment, leaf_attachment)).astype(np.intp),
        ends=(entry.astype(np.intp), factor, slot.astype(np.intp)),
    )


def _responses(series, lam):
    """Each chain entry's part of x_v per unit x_b, v its vertex and b its
    attachment, at lam > 0; None if a chain's pivot is not positive.

    Along a run, eliminated from its far end, the pivots are p_1 = lam -
    l^2 / lam, l its leaf's edge or 0, and p_k = lam - w^2 / p_(k-1). So
    p_k = w q_k / q_(k-1) with q_0 = 1 and q_k = S_(k+1) - kappa S_k,
    kappa = l^2 / (lam w), where S_k = U_(k-1)(lam / 2w) is sinh(k theta) /
    sinh(theta) for lam = 2w cosh(theta), sin(k t) / sin(t) for lam = 2w
    cos(t), and k at lam = 2w. Back-substitution from x_b gives the k-th of
    R vertices beta q_(k-1) / (w q_R), and the leaf l / lam times the first
    vertex's part. Above 2w these are scaled so that nothing overflows:
    s_k = S_k e^(-(k-1) theta) lies in [0, k], r_k = q_k e^(-k theta) =
    s_(k+1) - l^2 / (lam mu) s_k with mu = w e^theta = lam / (1 + e^(-2
    theta)), the pivots' limit, and the k-th vertex gets beta r_(k-1) / (mu
    r_R) e^(-(R-k) theta). Below 2w, s = S, r = q and mu = w.
    """
    w = series.w
    d = lam - 2 * w
    if d > 0:
        # theta = acosh(lam / 2w), with no digits lost to lam / 2w near 1.
        # e^-theta underflows from theta = 745 on, so larger thetas, and
        # w = 0, read as 750.
        theta = min(2 * math.asinh(math.sqrt(d / (4 * w))), 750.0) if w else 750.0
        s = np.expm1(series.m * (-2 * theta)) / math.expm1(-2 * theta)
        scale = np.exp(series.m * -theta)
        mu = lam / (1 + math.exp(-2 * theta))
    else:
        t = 2 * math.asin(math.sqrt(-d / (4 * w)))
        s = np.sin(series.m * t) / math.sin(t) if t else series.m
        scale = np.ones_like(series.m)
        mu = w
    g = s[series.gather]
    r = g[::2] - series.leaf_squares / (lam * mu) * g[1::2]
    if not r.min(initial=math.inf) > 0:
        return None
    y = series.beta / mu * r[0] / r[1] * scale[series.power]
    return np.concatenate((y, series.leaf_weights / lam * y[series.leaf_entries]))


def _evaluate(series, lam):
    """(phi, x) at lam, or None if lam or a pivot is not positive; x is one of
    the series' two buffers, filled in turn, so it outlasts one more call."""
    y = _responses(series, lam) if lam > 0 else None
    if y is None:
        return None
    entry, factor, slot = series.ends
    w = (series.values + np.bincount(slot, factor * y[entry], len(series.values))).tolist()
    pivots = []
    for _, diagonal, _, fills in series.skeleton:
        p = lam - w[diagonal]
        if not p > 0:
            return None
        pivots.append(p)
        for s, a, b in fills:
            w[s] += w[a] * w[b] / p
    values = [w[s] for s in series.entries[2].tolist()]
    if len(series.kernel) == 1:
        phi, u = lam - sum(values), [1.0]
    else:
        S = np.zeros((len(series.kernel),) * 2)
        S[series.entries[0], series.entries[1]] = np.negative(values)
        p_k = lam + S.diagonal()
        if len(S) == 2:
            # In closed form, each entry a sum of terms of one sign.
            h = math.hypot(d := (p_k[1] - p_k[0]) / 2, c := -S[0, 1])
            u = np.array([d + h, c] if d >= 0 else [c, h - d])
            phi, u = float(p_k.mean() - h), u / math.hypot(*u)
        else:
            np.fill_diagonal(S, p_k)
            phi, u = np.linalg.eigh(S)
            phi, u = float(phi[0]), abs(u[:, 0])
            # eigh gives each u_i to about lam * eps; its row, u_i = sum_j w_ij
            # u_j / (lam - w_ii - phi), does better where that pivot > lam u_i.
            p_k -= phi
            np.fill_diagonal(S, 0.0)
            swept = p_k > lam * u
            u[swept] = -(S @ u)[swept] / p_k[swept]
    known = dict(zip(series.kernel, map(float, u)))
    for (v, _, terms, _), p in zip(reversed(series.skeleton), reversed(pivots)):
        total = 0.0
        for s, a in terms:
            total += w[s] * known[a]
        known[v] = total / p
    x = series.buffers[0]
    series.buffers.reverse()
    x.fill(0.0)
    x[list(known)] = list(known.values())
    x += np.bincount(series.vertices, y * x[series.attachments], series.n)
    return phi, x


def _reduced(M, series, x, rho, tol):
    """Stage 2 from a check's x and Rayleigh quotient rho: the reduced
    vector, or None where the reduction is refused."""
    y, positive = M @ x, x > 0
    # rho lies above lo, where pivots fail, and at or below hi.
    lo, hi = 0.0, float((y[positive] / x[positive]).max())
    lam, previous, converged = rho, None, False
    for _ in range(100):
        evaluated = _evaluate(series, lam)
        if evaluated is None:
            lo, lam, converged = lam, (lam + hi) / 2, False
            continue
        phi, z = evaluated
        if not np.isfinite(z).all():
            return None
        if converged:
            return z
        if phi > 0:
            hi = min(hi, lam)
        step = phi / float(z @ z)
        converged = abs(step) <= tol / 16 * lam
        # A vector that would move by at most tol / 16 of its maximum over
        # the last step, at the rate it moved since the previous evaluation,
        # needs no evaluation at the Newton point.
        if converged and previous is not None:
            moved = float(abs(z - previous[1]).max())
            if abs(step) * moved <= tol / 16 * z.max() * abs(lam - previous[0]):
                return z
        previous = lam, z
        lam -= step
        if lam == previous[0]:
            return z
        if lam <= lo:
            lam, converged = (lo + hi) / 2, False
    return None


def _stages(M, tol):
    """Every check on M of a solve, through the three stages of the module
    docstring; a check at step MAX_ITERATIONS is the last."""
    run = _checks(M, np.ones(M.n), 0)
    last = handoff = None

    def beyond(budget):
        # Decaying at its rate since the last check, the residual (positive,
        # as neither check accepted) would still exceed tol * rho at ``budget``.
        steps_left = budget - step
        return steps_left <= 0 or residual < last[1] and tol * rho < residual * (
            residual / last[1]) ** (steps_left / (step - last[0]))

    for check in run:
        yield check
        step, x, rho, residual = check
        if last is not None and beyond(HANDOFF_STEPS):
            if handoff is None:  # (start, budget)
                branches = np.count_nonzero((degree := np.bincount(M.rows, minlength=M.n)) > 2)
                handoff = (4 * min(branches, max(len(M.rows) - 2 * M.n, 0)) + 4,
                           HANDOFF_STEPS + 4 * np.count_nonzero(degree != 2))
            if step >= handoff[0] and beyond(handoff[1]):
                break
        last = step, residual
    top = np.flatnonzero(x == x.max())
    x = _reduced(M, _series(M, int(top[len(top) // 2])), x, rho, tol)
    yield from run if x is None else _checks(M, x, step)


def _power_iteration(rows, cols, vals, n, tol):
    """Perron data of the n x n matrix M with entry vals[k] at (rows[k], cols[k])
    and zeros elsewhere, from the first check on M whose residual is at most
    tol * rho. ``iterations`` counts the power steps of stages 1 and 3, of
    either kind; NoConvergence is raised at MAX_ITERATIONS steps or on a
    non-finite residual.
    """
    if n == 0:
        raise BadParams("matrix must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(np.bincount(rows, vals, n), vals)
        e = math.frexp(vals.max(initial=0.0))[1]
        M = _Operator(rows, cols, np.ldexp(vals, -e), n)
        for step, x, rho, residual in _stages(M, tol):
            if residual <= tol * rho:
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
    on G's edge list, with series reduction for slow solves (module
    docstring): a solve whose residual decay predicts a run past 150 power
    steps, plus 4 for each vertex of degree other than 2, hands off to it.

    It stops once max|Mx - rho x| <= tol * rho, x at unit maximum entry;
    ``tol`` is relative at every scale, so rho(c f) = c rho(f) up to
    rounding. ``iterations`` counts the power steps of stages 1 and 3, not
    the reduction's evaluations. Deterministic for fixed input, whatever the
    order of G's edges. For a connected graph the returned vector is
    nonnegative, and positive except where the exact Perron entry lies below
    the double range: such an entry reads 0. Weights with a non-finite value
    or row sum are rejected with BadParams; NoConvergence is raised after
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
