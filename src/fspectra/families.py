"""Constructors for the named graph families used throughout the library.

Each family is one row of the ``_FAMILIES`` table: its spec token, its
parameter count, the offset that gives its order from the parameter sum,
and a builder. Builders join hub vertices by paths and cycles
(``_attach_paths``) and hang pendant vertices on hubs (``_pendants``).

Labeling convention: hub vertices (degree >= 3 in the base shape) come
first, then path/cycle interior vertices in construction order, then
pendant vertices. This makes file output reproducible; isomorphism
questions always go through graph_core.canonical_form.

Family spec grammar (parsed by :func:`parse_family`):

    path:n | cycle:n | star:n | double-star:a,b | theta:l1,l2,l3
    | infty:l1,l2,l3 | infty-star:l1,l2 | c3:s,t,r | c4:s,t,r,q
    | theta122:a,b | sn-plus-e:n | c3-dot-p3 | k5-minus-p4
"""

from dataclasses import dataclass
from typing import Callable

from .errors import BadParams, SizeLimit
from .graph_core import GRAPH_MAX_ORDER, Graph, degrees, internal_paths, is_connected


def _check(ok, message):
    if not ok:
        raise BadParams(message)


def _attach_paths(hubs, *paths):
    """Hubs 0..hubs-1 joined by (a, b, length) paths, in order, with interior
    vertices numbered from hubs on; a == b closes a cycle at a."""
    edges, n = [], hubs
    for a, b, length in paths:
        chain = [a, *range(n, n + length - 1), b]
        edges.extend(zip(chain, chain[1:]))
        n += length - 1
    return Graph(n, edges)


def _pendants(n, edges, counts):
    """Base graph on 0..n-1 plus counts[h] pendants on h, numbered from n."""
    edges = list(edges)
    for hub, count in enumerate(counts):
        edges.extend((hub, v) for v in range(n, n + count))
        n += count
    return Graph(n, edges)


_C3 = ((0, 1), (1, 2), (0, 2))


def _path(k):
    _check(k >= 1, "path needs order >= 1")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def _cycle(k):
    _check(k >= 3, "cycle needs order >= 3")
    return _attach_paths(1, (0, 0, k))


def _star(k):
    _check(k >= 1, "star needs order >= 1")
    return _pendants(1, (), (k - 1,))


def _double_star(a, b):
    _check(a >= 1 and b >= 1, "double star needs center degrees >= 1")
    return _pendants(2, [(0, 1)], (a - 1, b - 1))


def _theta(*ls):
    _check(min(ls) >= 1, "theta path lengths must be >= 1")
    _check(ls.count(1) <= 1, "theta admits at most one path of length 1")
    return _attach_paths(2, *((0, 1, l) for l in ls))


def _infty(l1, l2, l3):
    _check(l1 >= 3 and l2 >= 3, "infty cycle lengths must be >= 3")
    _check(l3 >= 1, "infty connecting path length must be >= 1")
    return _attach_paths(2, (0, 0, l1), (1, 1, l2), (0, 1, l3))


def _infty_star(l1, l2):
    _check(l1 >= 3 and l2 >= 3, "infty-star cycle lengths must be >= 3")
    return _attach_paths(1, (0, 0, l1), (0, 0, l2))


def _pendants_on(n, edges):
    """Builder for a fixed base graph with a pendant count per hub."""
    def build(*counts):
        _check(min(counts) >= 0, "pendant counts must be >= 0")
        return _pendants(n, edges, counts)
    return build


def _sn_plus_e(k):
    _check(k >= 3, "star-plus-edge needs order >= 3")
    return _pendants(3, _C3, (k - 3,))


@dataclass(frozen=True)
class _Family:
    token: str  # spelling in spec strings
    arity: int  # number of parameters
    offset: int  # order = sum(params) + offset
    build: Callable  # params -> Graph; BadParams on values outside the domain


_FAMILIES = {
    "path": _Family("path", 1, 0, _path),
    "cycle": _Family("cycle", 1, 0, _cycle),
    "star": _Family("star", 1, 0, _star),
    "double_star": _Family("double-star", 2, 0, _double_star),
    "theta": _Family("theta", 3, -1, _theta),
    "infty": _Family("infty", 3, -1, _infty),
    "infty_star": _Family("infty-star", 2, -1, _infty_star),
    "c3_pendants": _Family("c3", 3, 3, _pendants_on(3, _C3)),
    "c4_pendants": _Family("c4", 4, 4, _pendants_on(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
    # theta(1,2,2) with hubs 0 and 1.
    "theta122_pendants": _Family(
        "theta122", 2, 4, _pendants_on(4, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)])
    ),
    "sn_plus_e": _Family("sn-plus-e", 1, 0, _sn_plus_e),
    "c3_dot_p3": _Family("c3-dot-p3", 0, 5, lambda: Graph(5, [*_C3, (0, 3), (3, 4)])),
    "k5_minus_p4": _Family(
        "k5-minus-p4", 0, 5,
        lambda: Graph(5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)]),
    ),
}

FAMILY_KINDS = tuple(_FAMILIES)
_TOKEN_TO_KIND = {row.token: kind for kind, row in _FAMILIES.items()}


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise BadParams(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))

    def __str__(self):
        token = _FAMILIES[self.kind].token
        if not self.params:
            return token
        return token + ":" + ",".join(str(p) for p in self.params)


def parse_family(text):
    """Parse a family spec string (grammar in the module docstring)."""
    text = text.strip()
    token, _, tail = text.partition(":")
    kind = _TOKEN_TO_KIND.get(token)
    if kind is None:
        raise BadParams(f"unrecognized family spec {text!r}")
    params = ()
    if tail:
        try:
            params = tuple(int(p) for p in tail.split(","))
        except ValueError:
            raise BadParams(f"bad family parameters in {text!r}") from None
    return FamilySpec(kind, params)


def make(spec):
    """Construct the graph described by a FamilySpec.

    Guaranteed orders/sizes: theta(l1,l2,l3) and infty(l1,l2,l3) have
    n = l1+l2+l3-1 and m = l1+l2+l3; infty_star(l1,l2) has n = l1+l2-1 and
    m = l1+l2; c3_pendants(s,t,r) has n = 3+s+t+r. All outputs are simple
    and connected. Raises SizeLimit, before building anything, for an order
    above GRAPH_MAX_ORDER, then BadParams for a wrong parameter count.
    """
    family = _FAMILIES[spec.kind]
    order = sum(spec.params) + family.offset
    if order > GRAPH_MAX_ORDER:
        raise SizeLimit(f"families support order <= {GRAPH_MAX_ORDER}, got {order}")
    if len(spec.params) != family.arity:
        raise BadParams(
            f"{spec.kind} needs {family.arity} parameter(s), got {len(spec.params)}"
        )
    return family.build(*spec.params)


def forbidden_fixtures():
    """The six graphs that cannot occur induced in a largest-rho_f graph."""
    specs = [
        FamilySpec("path", (5,)),
        FamilySpec("cycle", (5,)),
        FamilySpec("c3_dot_p3"),
        FamilySpec("infty_star", (3, 3)),
        FamilySpec("theta", (1, 2, 3)),
        FamilySpec("k5_minus_p4"),
    ]
    return [make(s) for s in specs]


def identify_pendant_free_bicyclic(G):
    """Recognize a pendant-free bicyclic graph as a theta/infty/infty_star spec.

    A connected graph with m = n + 1 and minimum degree 2 subdivides one of
    the three kernels of cyclomatic number 2, read off its internal paths:
    three open paths make a theta, two closed and one open an infty, two
    closed alone an infty-star. Returns None for any other graph.
    """
    if G.m != G.n + 1 or not is_connected(G) or min(degrees(G)) < 2:
        return None
    paths = internal_paths(G)
    closed = sorted(p.length for p in paths if p.closed)
    open_ = sorted(p.length for p in paths if not p.closed)
    kind = {(0, 3): "theta", (2, 1): "infty", (2, 0): "infty_star"}[len(closed), len(open_)]
    return FamilySpec(kind, (*closed, *open_))
