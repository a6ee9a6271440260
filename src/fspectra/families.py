"""Constructors for the named graph families used throughout the library.

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

from .errors import BadParams, SizeLimit
from .graph_core import GRAPH_MAX_ORDER, Graph, degrees, internal_paths, is_connected

FAMILY_KINDS = (
    "path",
    "cycle",
    "star",
    "double_star",
    "theta",
    "infty",
    "infty_star",
    "c3_pendants",
    "c4_pendants",
    "theta122_pendants",
    "sn_plus_e",
    "c3_dot_p3",
    "k5_minus_p4",
)

_KIND_TO_TOKEN = {
    "path": "path",
    "cycle": "cycle",
    "star": "star",
    "double_star": "double-star",
    "theta": "theta",
    "infty": "infty",
    "infty_star": "infty-star",
    "c3_pendants": "c3",
    "c4_pendants": "c4",
    "theta122_pendants": "theta122",
    "sn_plus_e": "sn-plus-e",
    "c3_dot_p3": "c3-dot-p3",
    "k5_minus_p4": "k5-minus-p4",
}
_TOKEN_TO_KIND = {v: k for k, v in _KIND_TO_TOKEN.items()}

# A family's order is the sum of its parameters plus this offset (0 if absent).
_ORDER_OFFSET = {
    "theta": -1,
    "infty": -1,
    "infty_star": -1,
    "c3_pendants": 3,
    "c4_pendants": 4,
    "theta122_pendants": 4,
    "c3_dot_p3": 5,
    "k5_minus_p4": 5,
}


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise BadParams(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))

    def __str__(self):
        token = _KIND_TO_TOKEN[self.kind]
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


def _need(spec, count):
    if len(spec.params) != count:
        raise BadParams(f"{spec.kind} needs {count} parameter(s), got {len(spec.params)}")
    return spec.params


def _attach_cycle(edges, hub, length, next_id):
    prev = hub
    for _ in range(length - 1):
        edges.append((prev, next_id))
        prev = next_id
        next_id += 1
    edges.append((prev, hub))
    return next_id


def _attach_path(edges, a, b, length, next_id):
    if length == 1:
        edges.append((a, b))
        return next_id
    prev = a
    for _ in range(length - 1):
        edges.append((prev, next_id))
        prev = next_id
        next_id += 1
    edges.append((prev, b))
    return next_id


def make(spec):
    """Construct the graph described by a FamilySpec.

    Guaranteed orders/sizes: theta(l1,l2,l3) and infty(l1,l2,l3) have
    n = l1+l2+l3-1 and m = l1+l2+l3; infty_star(l1,l2) has n = l1+l2-1 and
    m = l1+l2; c3_pendants(s,t,r) has n = 3+s+t+r. All outputs are simple
    and connected. Raises SizeLimit, before building anything, for an order
    above GRAPH_MAX_ORDER.
    """
    kind = spec.kind
    order = sum(spec.params) + _ORDER_OFFSET.get(kind, 0)
    if order > GRAPH_MAX_ORDER:
        raise SizeLimit(f"families support order <= {GRAPH_MAX_ORDER}, got {order}")

    if kind == "path":
        (k,) = _need(spec, 1)
        if k < 1:
            raise BadParams("path needs order >= 1")
        return Graph(k, [(i, i + 1) for i in range(k - 1)])

    if kind == "cycle":
        (k,) = _need(spec, 1)
        if k < 3:
            raise BadParams("cycle needs order >= 3")
        return Graph(k, [(i, (i + 1) % k) for i in range(k)])

    if kind == "star":
        (k,) = _need(spec, 1)
        if k < 1:
            raise BadParams("star needs order >= 1")
        return Graph(k, [(0, i) for i in range(1, k)])

    if kind == "double_star":
        a, b = _need(spec, 2)
        if a < 1 or b < 1:
            raise BadParams("double star needs center degrees >= 1")
        edges = [(0, 1)]
        nid = 2
        for _ in range(a - 1):
            edges.append((0, nid))
            nid += 1
        for _ in range(b - 1):
            edges.append((1, nid))
            nid += 1
        return Graph(nid, edges)

    if kind == "theta":
        l1, l2, l3 = _need(spec, 3)
        ls = (l1, l2, l3)
        if min(ls) < 1:
            raise BadParams("theta path lengths must be >= 1")
        if sum(1 for l in ls if l == 1) > 1:
            raise BadParams("theta admits at most one path of length 1")
        edges = []
        nid = 2
        for l in ls:
            nid = _attach_path(edges, 0, 1, l, nid)
        return Graph(nid, edges)

    if kind == "infty":
        l1, l2, l3 = _need(spec, 3)
        if l1 < 3 or l2 < 3:
            raise BadParams("infty cycle lengths must be >= 3")
        if l3 < 1:
            raise BadParams("infty connecting path length must be >= 1")
        edges = []
        nid = 2
        nid = _attach_cycle(edges, 0, l1, nid)
        nid = _attach_cycle(edges, 1, l2, nid)
        nid = _attach_path(edges, 0, 1, l3, nid)
        return Graph(nid, edges)

    if kind == "infty_star":
        l1, l2 = _need(spec, 2)
        if l1 < 3 or l2 < 3:
            raise BadParams("infty-star cycle lengths must be >= 3")
        edges = []
        nid = 1
        nid = _attach_cycle(edges, 0, l1, nid)
        nid = _attach_cycle(edges, 0, l2, nid)
        return Graph(nid, edges)

    if kind == "c3_pendants":
        s, t, r = _need(spec, 3)
        if min(s, t, r) < 0:
            raise BadParams("pendant counts must be >= 0")
        edges = [(0, 1), (1, 2), (0, 2)]
        nid = 3
        for hub, count in ((0, s), (1, t), (2, r)):
            for _ in range(count):
                edges.append((hub, nid))
                nid += 1
        return Graph(nid, edges)

    if kind == "c4_pendants":
        s, t, r, q = _need(spec, 4)
        if min(s, t, r, q) < 0:
            raise BadParams("pendant counts must be >= 0")
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        nid = 4
        for hub, count in ((0, s), (1, t), (2, r), (3, q)):
            for _ in range(count):
                edges.append((hub, nid))
                nid += 1
        return Graph(nid, edges)

    if kind == "theta122_pendants":
        a, b = _need(spec, 2)
        if a < 0 or b < 0:
            raise BadParams("pendant counts must be >= 0")
        # theta(1,2,2) with hubs 0, 1; pendants attach to the hubs.
        edges = [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)]
        nid = 4
        for hub, count in ((0, a), (1, b)):
            for _ in range(count):
                edges.append((hub, nid))
                nid += 1
        return Graph(nid, edges)

    if kind == "sn_plus_e":
        (k,) = _need(spec, 1)
        if k < 3:
            raise BadParams("star-plus-edge needs order >= 3")
        edges = [(0, i) for i in range(1, k)]
        edges.append((1, 2))
        return Graph(k, edges)

    if kind == "c3_dot_p3":
        _need(spec, 0)
        return Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])

    if kind == "k5_minus_p4":
        _need(spec, 0)
        removed = {(0, 1), (1, 2), (2, 3)}
        edges = [
            (i, j)
            for i in range(5)
            for j in range(i + 1, 5)
            if (i, j) not in removed
        ]
        return Graph(5, edges)

    raise BadParams(f"unknown family kind {kind!r}")


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

    Returns None when G is not of one of the three shapes.
    """
    if G.n < 4 or G.m != G.n + 1 or not is_connected(G):
        return None
    degs = degrees(G)
    if min(degs) < 2:
        return None
    hubs = sorted(v for v in range(G.n) if degs[v] > 2)
    paths = internal_paths(G)
    if sorted(d for d in degs if d > 2) == [4] and len(hubs) == 1:
        lens = sorted(p.length for p in paths if p.closed)
        if len(lens) == 2 and len(paths) == 2:
            return FamilySpec("infty_star", tuple(lens))
        return None
    if sorted(d for d in degs if d > 2) != [3, 3] or len(hubs) != 2:
        return None
    closed = sorted(p.length for p in paths if p.closed)
    open_ = [p for p in paths if not p.closed]
    if not closed and len(open_) == 3:
        return FamilySpec("theta", tuple(sorted(p.length for p in open_)))
    if len(closed) == 2 and len(open_) == 1:
        return FamilySpec("infty", (*closed, open_[0].length))
    return None
