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
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, BadSplit, IncompleteIncidence
from .graph_core import degrees, fundamental_cycles, internal_paths, is_connected
from .spectral import _edge_weights, check_tol, f_spectral_radius
from .weights import eval_weight

NORMALITY_TOL = 1e-8

# Relative headroom accepted when alpha' computed from an eigensolver lands
# a hair above the exact boundary 1/4 (cycles hit the boundary exactly).
_ALPHA_PRIME_SLACK = 1e-9

# The classification for (every slack >= -tol, every slack <= tol).
_CLASSES = {(True, True): "normal", (True, False): "strictly_subnormal",
            (False, True): "strictly_supernormal", (False, False): "none"}


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

    ``values`` maps keys (v, (a, b)) with v in {a, b} to values. They are kept as
    ``ends[k] = (B(a, e), B(b, e))`` for the k-th sorted host edge e = (a, b),
    NaN where ``values`` gives none. Construction refuses keys that are not
    incidences of the host graph and values that are negative or not finite;
    completeness is checked where it matters, in classify_normality.
    """

    def __init__(self, graph, values):
        self.graph, self.edges = graph, graph.sorted_edges()
        ends = {e: [math.nan, math.nan] for e in self.edges}
        for (v, (a, b)), val in dict(values).items():
            key = (a, b) if a < b else (b, a)
            if key not in ends or v not in key:
                raise BadParams(f"({v}, {key}) is not an incidence of the host graph")
            if val < 0:
                raise BadParams(f"negative incidence value at ({v}, {key})")
            if not math.isfinite(val):
                raise BadParams(f"non-finite incidence value at ({v}, {key})")
            ends[key][key.index(v)] = val
        self.ends = np.array(list(ends.values()), float).reshape(-1, 2)

    @classmethod
    def _of_ends(cls, graph, edges, ends):
        """B whose ``ends`` array over ``edges`` = graph.sorted_edges() is taken as it is."""
        B = cls.__new__(cls)
        B.graph, B.edges, B.ends = graph, edges, ends
        return B

    def value(self, v, e):
        key = (min(e), max(e))
        k = bisect_left(self.edges, key)
        if self.edges[k:k + 1] != [key] or v not in key or math.isnan(val := self.ends[k, key.index(v)]):
            raise IncompleteIncidence(f"no value stored for {(v, key)}")
        return float(val)

    def items(self):
        """((v, e), B(v, e)) for every stored value, in sorted edge order."""
        return [((v, e), b) for e, pair in zip(self.edges, self.ends.tolist())
                for v, b in zip(e, pair) if not math.isnan(b)]


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
    edges = G.sorted_edges()
    us, vs, w = _edge_weights(G, f, edges)
    return alpha, IncidenceWeights._of_ends(G, edges, np.column_stack((w * x[vs] / (res.rho * x[us]),
                                                                      w * x[us] / (res.rho * x[vs]))))


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
    cycle products. ``tol`` must be finite and >= 0. B must be built on G's
    edges and hold a value for each of their ends.
    """
    check_tol(tol)
    overrides = {(min(a, b), max(a, b)): float(w) for (a, b), w in (weight_overrides or {}).items()}
    edges = G.sorted_edges()
    if B.edges != edges:
        raise BadParams("the incidence matrix's host edges are not the graph's edges")
    ends = B.ends
    missing = np.isnan(ends).ravel()
    if missing.any():  # the first unset (vertex, edge) in sorted edge order
        k, i = divmod(int(missing.argmax()), 2)
        raise IncompleteIncidence(f"no value stored for {(edges[k][i], edges[k])}")
    index = dict(zip(edges, range(len(edges))))
    us, vs, w = _edge_weights(G, f, edges)
    for e in overrides.keys() & index.keys():
        w[index[e]] = overrides[e]
    ww = w * w
    if not ww.all():
        raise BadParams(f"edge {edges[int(ww.argmin())]}'s weight squares to 0: its edge slack is undefined")
    with np.errstate(all="ignore"):  # inf and nan as in float arithmetic
        edge_slack = ends[:, 0] * ends[:, 1] / ww - alpha
    vertex_slack = 1.0 - np.bincount(np.column_stack((us, vs)).ravel(), ends.ravel(), G.n)

    slacks = np.concatenate((vertex_slack, edge_slack))
    classification = _CLASSES[bool((slacks >= -tol).all()), bool((slacks <= tol).all())]
    pairs = ends.tolist()
    consistent = all(_cycle_consistent(pairs, index, cycle, tol) for cycle in fundamental_cycles(G))
    return NormalityReport(alpha, classification, consistent, tol, dict(enumerate(vertex_slack.tolist())),
                           dict(zip(edges, edge_slack.tolist())), B)


def _cycle_consistent(pairs, index, cycle, tol):
    """True when the ratios B(b, ab) / B(a, ab) around the closed walk ``cycle``, read
    from ``pairs[index[e]] = (B(u, e), B(v, e))``, are positive and multiply to 1 within tol."""
    log_product = 0.0
    for a, b in zip(cycle, cycle[1:]):
        den, num = pairs[index[a, b]] if a < b else pairs[index[b, a]][::-1]
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
        if alpha_prime > 0.25 * (1.0 + _ALPHA_PRIME_SLACK):
            raise BadParams(f"alpha' = {alpha_prime} outside (0, 1/4]")
        alpha_prime = min(alpha_prime, 0.25)
        theta = math.acosh(0.5 / math.sqrt(alpha_prime))
        return cls(alpha_prime, theta, eval_weight(f, 2, 2), f)

    @classmethod
    def from_alpha(cls, alpha, f):
        f22 = eval_weight(f, 2, 2)
        return cls.from_alpha_prime(f22 * f22 * alpha, f)

    def beta(self, d):
        r = eval_weight(self.weight, d, 2) / self.f22
        return r * r

    def f_theta(self, x):
        """F_theta(x) = (1 - tanh(theta) tanh(x theta / 2)) / 2, in (0, 1)."""
        return 0.5 * (1.0 - math.tanh(self.theta) * math.tanh(0.5 * x * self.theta))


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
    if {e for p in paths for e in p.edge_sequence()} != G.edges:
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
                raise BadSplit("length-1 internal path needs modify_short_edges=True; "
                               "the certificate then covers a reweighted edge")
            overrides[edge_seq[0]] = eval_weight(f, d0, 2)
            dl = 2
        values[(verts[0], edge_seq[0])] = ctx.beta(d0) * ctx.f_theta(l1)
        values[(verts[-1], edge_seq[-1])] = ctx.beta(dl) * ctx.f_theta(l2)
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
