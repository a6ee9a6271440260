"""Alpha-normal certification of weighted graphs (Lu-Man method at k = 2).

A weighted incidence matrix B assigns a value to every (vertex, incident
edge) pair. With edge weights w(e) = f(d_u, d_v) and a level alpha, B
certifies bounds on the Perron value rho of the weighted adjacency matrix:

    vertex sums all = 1 and edge products B(u,e)B(v,e)/w(e)^2 all = alpha,
    with consistent cycle ratios  =>  rho = alpha^(-1/2)  (normal);
    sums <= 1 and products >= alpha  =>  rho <= alpha^(-1/2)  (subnormal);
    sums >= 1 and products <= alpha, consistent  =>  rho >= alpha^(-1/2).

The principal incidence matrix built from the Perron eigenvector is always
consistently alpha(G)-normal with alpha(G) = rho^(-2).

On internal paths the interior equations reduce to the scalar recurrence
x_n = 1 - alpha'/x_{n-1} with alpha' = f(2,2)^2 * alpha, solved in closed
form by

    F_theta(x) = (1 - tanh(theta) * tanh(x * theta / 2)) / 2,
    theta = arccosh(alpha'^(-1/2) / 2),

which is what makes hand-built certificates on theta/infty/infty-star
shaped graphs possible.
"""

import math
from dataclasses import dataclass

from .errors import (
    BadParams,
    BadSplit,
    IncompleteIncidence,
)
from .graph_core import degrees, fundamental_cycles, internal_paths, is_connected
from .spectral import check_tol, f_spectral_radius
from .weights import eval_weight

NORMALITY_TOL = 1e-8
RECURRENCE_TOL = 1e-10
SHIFT_TOL = 1e-12

# Relative headroom accepted when alpha' computed from an eigensolver lands
# a hair above the exact boundary 1/4 (cycles hit the boundary exactly).
_ALPHA_PRIME_SLACK = 1e-9


def alpha_of(G, f):
    """alpha(G) = rho_f(G)^(-2), the certification level of G itself."""
    return _alpha(f_spectral_radius(G, f).rho)


def _alpha(rho):
    if rho <= 0:
        raise BadParams("alpha is undefined for a graph with rho = 0")
    try:
        return rho ** -2
    except OverflowError:
        raise BadParams(f"alpha = rho^-2 is not a finite float for rho = {rho:.6g}") from None


class IncidenceWeights:
    """Finite, nonnegative values on (vertex, incident edge) pairs of a host graph.

    Keys are (v, (a, b)) with a < b and v in {a, b}. Construction rejects
    keys that are not incidences of the host graph; completeness is checked
    where it matters, in classify_normality.
    """

    def __init__(self, graph, values):
        self.graph = graph
        vals = {}
        for (v, e), val in dict(values).items():
            a, b = e
            key = (min(a, b), max(a, b))
            if key not in graph.edges or v not in key:
                raise BadParams(f"({v}, {key}) is not an incidence of the host graph")
            if val < 0:
                raise BadParams(f"negative incidence value at ({v}, {key})")
            if not math.isfinite(val):
                raise BadParams(f"non-finite incidence value at ({v}, {key})")
            vals[(v, key)] = float(val)
        self._values = vals

    def value(self, v, e):
        a, b = e
        key = (v, (min(a, b), max(a, b)))
        if key not in self._values:
            raise IncompleteIncidence(f"no value stored for {key}")
        return self._values[key]

    def items(self):
        return self._values.items()


def principal_incidence(G, f):
    """The incidence matrix B(v, uv) = w(uv) * x_u / (rho * x_v) from the
    Perron eigenvector x.

    For connected G every vertex sum equals 1 and every edge product equals
    alpha(G) up to eigensolver error.
    """
    return _principal(G, f)[1]


def _principal(G, f):
    """(alpha(G), principal incidence of G), from one solve.

    Connectivity is checked before solving: on a disconnected graph the
    Perron vector is not positive and the solve need not converge. A Perron
    entry whose exact value lies below the double range reads 0, and is
    refused before any division.
    """
    if not is_connected(G):
        raise BadParams("principal incidence needs a connected graph")
    res = f_spectral_radius(G, f)
    alpha = _alpha(res.rho)
    x = res.vector
    zero = int(x.argmin())
    if x[zero] == 0:
        raise BadParams(f"principal incidence needs a positive Perron vector, but vertex {zero}'s entry reads 0")
    degs = degrees(G)
    values = {}
    for u, v in G.edges:
        w = eval_weight(f, degs[u], degs[v])
        values[(u, (u, v))] = w * x[v] / (res.rho * x[u])
        values[(v, (u, v))] = w * x[u] / (res.rho * x[v])
    return alpha, IncidenceWeights(G, values)


@dataclass
class NormalityReport:
    """Classification of an incidence matrix at level alpha.

    vertex_slack[v] = 1 - sum of B(v, .);  edge_slack[e] = product/w^2 - alpha.
    A slack within tol counts as zero; `strictly_*` means the inequality
    pattern holds but some slack exceeds tol. ``incidence`` is the B that
    was classified.
    """

    alpha: float
    classification: str
    consistent: bool
    tol: float
    vertex_slack: dict
    edge_slack: dict
    incidence: IncidenceWeights


def classify_normality(G, f, B, alpha, tol=NORMALITY_TOL, weight_overrides=None):
    """Classify B at level alpha; edge weights default to f on current degrees.

    ``weight_overrides`` maps selected edges to replacement weights; it
    exists for the length-1 internal-path construction, where the produced
    certificate applies to a reweighted matrix (see incidence_from_splits).
    Consistency is verified on a fundamental cycle basis, which spans all
    cycle products. ``tol`` must be finite and >= 0.
    """
    check_tol(tol)
    degs = degrees(G)
    overrides = {}
    if weight_overrides:
        overrides = {
            (min(a, b), max(a, b)): float(w) for (a, b), w in weight_overrides.items()
        }

    vertex_sum = {v: 0.0 for v in range(G.n)}
    edge_slack = {}
    for u, v in sorted(G.edges):
        bu = B.value(u, (u, v))
        bv = B.value(v, (u, v))
        vertex_sum[u] += bu
        vertex_sum[v] += bv
        w = overrides.get((u, v), eval_weight(f, degs[u], degs[v]))
        edge_slack[(u, v)] = bu * bv / (w * w) - alpha
    vertex_slack = {v: 1.0 - s for v, s in vertex_sum.items()}

    slacks = [*vertex_slack.values(), *edge_slack.values()]
    sub_ok = all(s >= -tol for s in slacks)
    sup_ok = all(s <= tol for s in slacks)
    if sub_ok and sup_ok:
        classification = "normal"
    elif sub_ok:
        classification = "strictly_subnormal"
    elif sup_ok:
        classification = "strictly_supernormal"
    else:
        classification = "none"

    consistent = all(_cycle_consistent(B, cycle, tol) for cycle in fundamental_cycles(G))
    return NormalityReport(alpha, classification, consistent, tol, vertex_slack, edge_slack, B)


def _cycle_consistent(B, cycle, tol):
    """True when the ratios B(b, ab) / B(a, ab) around the closed walk
    ``cycle`` are all positive and multiply to 1 within tol."""
    log_product = 0.0
    for a, b in zip(cycle, cycle[1:]):
        e = (min(a, b), max(a, b))
        num = B.value(b, e)
        den = B.value(a, e)
        if num <= 0.0 or den <= 0.0:
            return False
        log_product += math.log(num) - math.log(den)
    return abs(math.expm1(log_product)) <= tol


@dataclass(frozen=True)
class FThetaContext:
    """Parameters of the closed-form internal-path solution.

    alpha_prime = f(2,2)^2 * alpha must lie in (0, 1/4]; any graph that
    contains a cycle satisfies this automatically because rho >= 2 f(2,2).
    theta = arccosh(alpha_prime^(-1/2) / 2), zero exactly at the boundary.
    """

    alpha_prime: float
    theta: float
    f22: float
    weight: object

    @classmethod
    def from_alpha_prime(cls, alpha_prime, f):
        if alpha_prime <= 0:
            raise BadParams("alpha' must be positive")
        if alpha_prime > 0.25:
            if alpha_prime <= 0.25 * (1.0 + _ALPHA_PRIME_SLACK):
                alpha_prime = 0.25
            else:
                raise BadParams(f"alpha' = {alpha_prime} outside (0, 1/4]")
        theta = math.acosh(0.5 / math.sqrt(alpha_prime))
        return cls(alpha_prime, theta, eval_weight(f, 2, 2), f)

    @classmethod
    def from_alpha(cls, alpha, f):
        f22 = eval_weight(f, 2, 2)
        return cls.from_alpha_prime(f22 * f22 * alpha, f)

    @classmethod
    def from_theta(cls, theta, f):
        if theta < 0:
            raise BadParams("theta must be >= 0")
        alpha_prime = (0.5 / math.cosh(theta)) ** 2
        return cls(alpha_prime, float(theta), eval_weight(f, 2, 2), f)

    def beta(self, d):
        r = eval_weight(self.weight, d, 2) / self.f22
        return r * r

    def f_theta(self, x):
        """F_theta(x) = (1 - tanh(theta) tanh(x theta / 2)) / 2, in (0, 1)."""
        return 0.5 * (1.0 - math.tanh(self.theta) * math.tanh(0.5 * x * self.theta))


def check_recurrence(ctx, p, q, window):
    """Verify x_n = F_theta(p+q-2n) solves x_n = 1 - alpha'/x_{n-1} within
    RECURRENCE_TOL.

    The check runs over n in [-window, window]; the sequence never touches
    zero because F_theta maps into (0, 1).
    """
    worst = 0.0
    for n in range(-window, window + 1):
        prev = ctx.f_theta(p + q - 2 * (n - 1))
        cur = ctx.f_theta(p + q - 2 * n)
        worst = max(worst, abs(cur - (1.0 - ctx.alpha_prime / prev)))
    return worst <= RECURRENCE_TOL


def path_endpoint_values(l, l1, l2, d0, dl, ctx):
    """Endpoint incidence values (beta(d0) F(l1), beta(dl) F(l2)) for a path
    of length l split as l1 + l2 = 2l.

    The symmetric split l1 = l2 = l is the similar-endpoints case. For
    l = 1 the values are still well defined but certify a reweighted edge;
    see incidence_from_splits.
    """
    if l < 1:
        raise BadSplit("internal path length must be >= 1")
    if l1 + l2 != 2 * l:
        raise BadSplit(f"split ({l1}, {l2}) must sum to 2*{l}")
    return ctx.beta(d0) * ctx.f_theta(l1), ctx.beta(dl) * ctx.f_theta(l2)


@dataclass
class InequalityReport:
    """Worst margins of the two F_theta grid inequalities.

    shift: F(a) + F(-b) - F(a-b) - F(0) >= 0 for a >= b >= 0.
    doubling: 4 F(2x) - 3 F(x) > 0 for x >= 3 (strict when theta > 0).
    """

    shift_holds: bool
    shift_margin: float
    shift_witness: tuple | None
    doubling_holds: bool
    doubling_margin: float
    doubling_witness: float | None


def inequality_oracles(ctx, shift_pairs=None, doubling_grid=None):
    """Evaluate both F_theta inequalities of the FThetaContext ``ctx`` on
    grids, returning worst margins. The shift inequality holds when its
    worst margin is at least -SHIFT_TOL; the doubling one must be positive.
    """
    if shift_pairs is None:
        shift_pairs = [(a, b) for a in range(11) for b in range(a + 1)]
    if doubling_grid is None:
        doubling_grid = [3.0 + 0.5 * k for k in range(15)]

    F = ctx.f_theta
    shift_margin = math.inf
    shift_witness = None
    for a, b in shift_pairs:
        if not (a >= b >= 0):
            raise BadParams(f"shift grid needs a >= b >= 0, got ({a}, {b})")
        margin = F(a) + F(-b) - F(a - b) - F(0)
        if margin < shift_margin:
            shift_margin = margin
            shift_witness = (a, b)

    doubling_margin = math.inf
    doubling_witness = None
    for x in doubling_grid:
        if x < 3:
            raise BadParams(f"doubling grid needs x >= 3, got {x}")
        margin = 4.0 * F(2 * x) - 3.0 * F(x)
        if margin < doubling_margin:
            doubling_margin = margin
            doubling_witness = x

    return InequalityReport(
        shift_holds=shift_margin >= -SHIFT_TOL,
        shift_margin=shift_margin,
        shift_witness=shift_witness if shift_margin < -SHIFT_TOL else None,
        doubling_holds=doubling_margin > 0.0,
        doubling_margin=doubling_margin,
        doubling_witness=doubling_witness if doubling_margin <= 0.0 else None,
    )


@dataclass
class SplitCertificate:
    """An incidence matrix built from path splits, plus bookkeeping.

    ``weight_overrides`` is nonempty exactly when a length-1 internal path
    was reweighted from f(d0, dl) to f(d0, 2); the certificate then speaks
    about the reweighted matrix, whose Perron value is at most the original
    one for weights increasing in x.
    """

    incidence: IncidenceWeights
    weight_overrides: dict


def incidence_from_splits(G, f, alpha, splits=None, modify_short_edges=False):
    """Build an incidence matrix on a pendant-free graph from path splits.

    Every edge of G must lie on an internal path (min degree 2 plus at
    least one branch vertex). ``splits`` maps indices into internal_paths(G)
    to (l1, l2) pairs with l1 + l2 = 2*length; omitted paths use the
    symmetric split. Closed paths must stay symmetric, which keeps their
    cycle ratios consistent. Interior vertex sums come out exactly 1 and
    every edge product exactly alpha * w(e)^2; branch-vertex sums are
    whatever the chosen splits make them, which is the whole point.

    A length-1 path needs ``modify_short_edges=True``: its edge is
    reweighted to f(d0, 2) and its far end is read as degree 2, so its
    endpoint pair is (beta(d0) F(l1), F(l2)), with product alpha' * beta(d0),
    exact because beta(2) = 1.
    """
    paths = internal_paths(G)
    if not paths:
        raise BadParams("graph has no internal paths (no vertex of degree >= 3)")
    covered = set()
    for p in paths:
        covered.update(p.edge_sequence())
    if covered != set(G.edges):
        raise BadParams("graph has edges outside internal paths (pendants?)")

    ctx = FThetaContext.from_alpha(alpha, f)
    degs = degrees(G)
    splits = dict(splits or {})
    values = {}
    overrides = {}

    for idx, path in enumerate(paths):
        verts = path.vertices
        l = path.length
        l1, l2 = splits.get(idx, (l, l))
        if l1 + l2 != 2 * l:
            raise BadSplit(f"split ({l1}, {l2}) for path {idx} must sum to {2 * l}")
        if path.closed and l1 != l2:
            raise BadSplit("closed internal paths require a symmetric split")
        d0, dl = degs[verts[0]], degs[verts[-1]]
        edge_seq = path.edge_sequence()

        if l == 1:
            if not modify_short_edges:
                raise BadSplit(
                    "length-1 internal path needs modify_short_edges=True; "
                    "the certificate then covers a reweighted edge"
                )
            overrides[edge_seq[0]] = eval_weight(f, d0, 2)
            dl = 2
        c_start, c_end = path_endpoint_values(l, l1, l2, d0, dl, ctx)
        values[(verts[0], edge_seq[0])] = c_start
        values[(verts[-1], edge_seq[-1])] = c_end
        for i in range(1, l):
            x_i = ctx.f_theta(l1 - 2 * i)
            values[(verts[i], edge_seq[i])] = x_i
            values[(verts[i], edge_seq[i - 1])] = 1.0 - x_i

    return SplitCertificate(IncidenceWeights(G, values), overrides)


def certify(G, f, tol=NORMALITY_TOL):
    """Principal-incidence certification of G: returns (alpha, report).

    For any connected graph this classifies as normal and consistent, which
    is the exactness half of the method. G is solved once; the report's
    ``incidence`` is the principal incidence matrix. A disconnected G raises
    BadParams before any solve.
    """
    alpha, B = _principal(G, f)
    return alpha, classify_normality(G, f, B, alpha, tol=tol)
