"""Independent oracle for benchmark answers.

Nothing here imports fspectra. Matrices are built from edge lists with this
file's own weight formulas and solved with ``np.linalg.eigvalsh``; families,
pendant-free bicyclic shapes and forbidden fixtures are rebuilt from their
definitions; graph identity is judged by invariants and a small backtracking
isomorphism test. Every ``check_*`` function returns a list of error strings
(empty when the answer is right) and runs outside the timed regions.
"""

import ast
import math
import re
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

# extremal's documented default: values within 1e-7 of the optimum tie.
TIE_TOL = 1e-7
REL_TOL = 1e-9
# Class counts at n = 8 and 9: A000055 (trees), A001429 (unicyclic) and
# A001435 (bicyclic).
OEIS_COUNTS = {
    ("trees", 8): 23, ("trees", 9): 47,
    ("unicyclic", 8): 89, ("unicyclic", 9): 240,
    ("bicyclic", 8): 236, ("bicyclic", 9): 797,
}
CLASS_EXTRA_EDGES = {"trees": -1, "unicyclic": 0, "bicyclic": 1}
# The normality tolerance of fspectra's certify and classify_normality.
NORMALITY_TOL = 1e-8

_FORMULAS = {
    "abc": lambda x, y: math.sqrt((x + y - 2) / (x * y)),
    "randic": lambda x, y: 1.0 / math.sqrt(x * y),
    "sombor": lambda x, y: math.sqrt(x * x + y * y),
    "zagreb1": lambda x, y: float(x + y),
    "zagreb2": lambda x, y: float(x * y),
    "recip-randic": lambda x, y: math.sqrt(x * y),
}


# ------------------------------------------------------------------ weights


def weight_fn(w):
    """f(x, y) for a weight dict; returns None for a missing table pair."""
    if w["kind"] == "named":
        formula = _FORMULAS[w["name"]]
        return lambda x, y: formula(min(x, y), max(x, y))
    if w["kind"] == "const":
        c = float(w["c"])
        return lambda x, y: c
    table = {(x, y): float(v) for x, y, v in w["entries"]}
    return lambda x, y: table.get((min(x, y), max(x, y)))


def degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def matrix(n, edges, w):
    """Weighted adjacency matrix, or None when a table pair is missing."""
    f = weight_fn(w) if isinstance(w, dict) else w
    deg = degrees(n, edges)
    M = np.zeros((n, n))
    for u, v in edges:
        val = f(deg[u], deg[v])
        if val is None:
            return None
        M[u, v] = M[v, u] = val
    return M


def rho(n, edges, w):
    M = matrix(n, edges, w)
    return None if M is None else float(np.linalg.eigvalsh(M)[-1])


def rhos(graphs, w):
    """Perron values of many graphs (None where skipped); same-order stacks
    go through one batched eigvalsh call."""
    out = [None] * len(graphs)
    by_order = {}
    for i, (n, edges) in enumerate(graphs):
        M = matrix(n, edges, w)
        if M is not None:
            by_order.setdefault(n, []).append((i, M))
    for items in by_order.values():
        vals = np.linalg.eigvalsh(np.stack([M for _, M in items]))[:, -1]
        for (i, _), v in zip(items, vals):
            out[i] = float(v)
    return out


def close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(1.0, abs(b))


# -------------------------------------------------------------- closed forms


def closed_form(family, w):
    """Closed-form Perron value for path (constant weight), cycle and star."""
    kind, _, tail = family.partition(":")
    if kind not in ("path", "cycle", "star"):
        return None
    f = weight_fn(w)
    n = int(tail)
    if kind == "path" and w["kind"] == "const" and n >= 2:
        return 2.0 * w["c"] * math.cos(math.pi / (n + 1))
    if kind == "cycle":
        return 2.0 * f(2, 2)
    if kind == "star" and n >= 3:
        return f(n - 1, 1) * math.sqrt(n - 1)
    return None


def self_check():
    """The oracle's own solver against the closed forms; returns errors."""
    errors = []
    cases = [
        ("path:7", {"kind": "const", "c": 1.5}),
        ("path:40", {"kind": "const", "c": 0.7}),
        ("cycle:9", {"kind": "named", "name": "sombor"}),
        ("cycle:12", {"kind": "table", "entries": [[2, 2, 1.25]]}),
        ("star:6", {"kind": "named", "name": "abc"}),
        ("star:30", {"kind": "named", "name": "sombor"}),
    ]
    for family, w in cases:
        n, edges = build_family(family)
        got, want = rho(n, edges, w), closed_form(family, w)
        if not close(got, want, 1e-12):
            errors.append(f"oracle {family}: eigvalsh {got!r} != closed form {want!r}")
    return errors


# ----------------------------------------------------------------- families


def _path_edges(edges, a, b, length, nid):
    prev = a
    for _ in range(length - 1):
        edges.append((prev, nid))
        prev, nid = nid, nid + 1
    edges.append((prev, b))
    return nid


def _cycle_edges(edges, hub, length, nid):
    return _path_edges(edges, hub, hub, length, nid)


def _pendants(edges, hubs_counts, nid):
    for hub, count in hubs_counts:
        for _ in range(count):
            edges.append((hub, nid))
            nid += 1
    return nid


def build_family(family):
    """(n, sorted edges) of a family spec string such as 'theta:3,3,2'."""
    kind, _, tail = family.partition(":")
    p = [int(t) for t in tail.split(",")] if tail else []
    edges = []
    if kind == "path":
        n = p[0]
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        n = p[0]
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "star":
        n = p[0]
        edges = [(0, i) for i in range(1, n)]
    elif kind == "sn-plus-e":
        n = p[0]
        edges = [(0, i) for i in range(1, n)] + [(1, 2)]
    elif kind == "double-star":
        edges = [(0, 1)]
        n = _pendants(edges, [(0, p[0] - 1), (1, p[1] - 1)], 2)
    elif kind == "theta":
        n = 2
        for length in p:
            n = _path_edges(edges, 0, 1, length, n)
    elif kind == "infty":
        n = _cycle_edges(edges, 0, p[0], 2)
        n = _cycle_edges(edges, 1, p[1], n)
        n = _path_edges(edges, 0, 1, p[2], n)
    elif kind == "infty-star":
        n = _cycle_edges(edges, 0, p[0], 1)
        n = _cycle_edges(edges, 0, p[1], n)
    elif kind == "c3":
        edges = [(0, 1), (1, 2), (0, 2)]
        n = _pendants(edges, list(zip(range(3), p)), 3)
    elif kind == "c4":
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        n = _pendants(edges, list(zip(range(4), p)), 4)
    elif kind == "theta122":
        edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
        n = _pendants(edges, [(0, p[0]), (1, p[1])], 4)
    elif kind == "c3-dot-p3":
        n, edges = 5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)]
    elif kind == "k5-minus-p4":
        n = 5
        edges = [e for e in combinations(range(5), 2) if e not in {(0, 1), (1, 2), (2, 3)}]
    else:
        raise ValueError(f"oracle has no builder for {family!r}")
    return n, sorted((min(u, v), max(u, v)) for u, v in edges)


def pendant_free_bicyclic(n):
    """Spec strings of every pendant-free bicyclic graph of order n: the
    theta, infinity and infinity-star shapes with n + 1 edges."""
    total = n + 1
    specs = []
    for l1 in range(1, total):
        for l2 in range(max(l1, 2), total):
            l3 = total - l1 - l2
            if l3 >= l2:
                specs.append(f"theta:{l1},{l2},{l3}")
    for l1 in range(3, total):
        for l2 in range(l1, total):
            l3 = total - l1 - l2
            if l3 >= 1:
                specs.append(f"infty:{l1},{l2},{l3}")
    for l1 in range(3, total):
        l2 = total - l1
        if l2 >= l1:
            specs.append(f"infty-star:{l1},{l2}")
    return specs


def paper_minimisers(n):
    """The paper's minimiser pair {theta(s,s,t), infty(s,s,t)}, 2s + t = n + 1,
    with s and t as equal as possible."""
    m = n + 1
    s = next(s for s in range(1, m) if m - 2 * s >= 1 and abs(s - (m - 2 * s)) <= 1)
    t = m - 2 * s
    a, b, c = sorted((s, s, t))
    return {f"theta:{a},{b},{c}", f"infty:{s},{s},{t}"}


FORBIDDEN = ("path:5", "cycle:5", "c3-dot-p3", "infty-star:3,3", "theta:1,2,3", "k5-minus-p4")


# ----------------------------------------------------------- graph identity


def is_connected(n, edges):
    if n == 0:
        return True
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def invariant(n, edges):
    """Degree sequence plus adjacency and Laplacian spectra (rounded)."""
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0
    L = np.diag(A.sum(axis=1)) - A
    spec = lambda X: tuple(np.round(np.linalg.eigvalsh(X), 6) + 0.0)  # noqa: E731
    return (n, len(edges), tuple(sorted(degrees(n, edges))), spec(A), spec(L))


def is_isomorphic(g, h):
    """Backtracking isomorphism test with colour refinement; small graphs."""
    (n, eg), (nh, eh) = g, h
    if n != nh or len(eg) != len(eh):
        return False
    cg, ch = _refine(n, eg), _refine(n, eh)
    if sorted(cg) != sorted(ch):
        return False
    sg = {(min(u, v), max(u, v)) for u, v in eg}
    sh = {(min(u, v), max(u, v)) for u, v in eh}
    adj = [[] for _ in range(n)]
    for u, v in sg:
        adj[u].append(v)
        adj[v].append(u)
    order, seen = [], set()
    for root in sorted(range(n), key=lambda v: cg[v]):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(adj[v]):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    mapping, used = {}, set()

    def extend(k):
        if k == n:
            return True
        v = order[k]
        for cand in range(n):
            if cand in used or ch[cand] != cg[v]:
                continue
            if all(((min(v, u), max(v, u)) in sg) == ((min(cand, mapping[u]), max(cand, mapping[u])) in sh)
                   for u in order[:k]):
                mapping[v] = cand
                used.add(cand)
                if extend(k + 1):
                    return True
                used.discard(cand)
                del mapping[v]
        return False

    return extend(0)


def _refine(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = [len(a) for a in adj]
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return sigs
        colors = new


class GraphIndex:
    """Find a graph among a list by exact edges, then invariants, then
    isomorphism."""

    def __init__(self, graphs):
        self.graphs = graphs
        self.exact = {}
        self.by_invariant = {}
        for i, (n, edges) in enumerate(graphs):
            self.exact[(n, frozenset(map(tuple, edges)))] = i
            self.by_invariant.setdefault(invariant(n, edges), []).append(i)

    def find(self, n, edges):
        i = self.exact.get((n, frozenset(map(tuple, edges))))
        if i is not None:
            return i
        for j in self.by_invariant.get(invariant(n, edges), []):
            if is_isomorphic((n, edges), self.graphs[j]):
                return j
        return None

    def duplicates(self):
        """Index pairs of isomorphic members."""
        out = []
        for group in self.by_invariant.values():
            for a, b in combinations(group, 2):
                if is_isomorphic(self.graphs[a], self.graphs[b]):
                    out.append((a, b))
        return out


_PFB_INDEX = {}


def pfb_index(n):
    if n not in _PFB_INDEX:
        specs = pendant_free_bicyclic(n)
        _PFB_INDEX[n] = (specs, GraphIndex([build_family(s) for s in specs]))
    return _PFB_INDEX[n]


def shape_tag(n, edges):
    """Spec string of a pendant-free bicyclic shape, else '-'."""
    if n < 4 or len(edges) != n + 1 or min(degrees(n, edges)) < 2:
        return "-"
    specs, index = pfb_index(n)
    i = index.find(n, edges)
    return "-" if i is None else specs[i]


def decode(encoding):
    """Graph of a canonical encoding 'n:bits' (column-major upper triangle)."""
    head, _, bits = encoding.partition(":")
    n = int(head)
    edges, idx = [], 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx] == "1":
                edges.append((i, j))
            idx += 1
    return n, edges


def contains_induced(g, h):
    n, edges = g
    k, hedges = h
    target = _small_code(k, hedges)
    es = {(min(u, v), max(u, v)) for u, v in edges}
    for subset in combinations(range(n), k):
        pos = {v: i for i, v in enumerate(subset)}
        sub = [(pos[u], pos[v]) for u, v in es if u in pos and v in pos]
        if len(sub) == len(hedges) and _small_code(k, sub) == target:
            return True
    return False


def _small_code(k, edges):
    return _code(k, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))


@lru_cache(maxsize=None)
def _code(k, edges):
    best = None
    for perm in permutations(range(k)):
        code = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))
        if best is None or code < best:
            best = code
    return best


def cycle_basis(n, edges):
    """Fundamental cycles [v0, ..., v0] of a BFS tree from vertex 0."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent, depth, order = {0: None}, {0: 0}, [0]
    for v in order:
        for u in sorted(adj[v]):
            if u not in parent:
                parent[u], depth[u] = v, depth[v] + 1
                order.append(u)
    tree = {(min(v, p), max(v, p)) for v, p in parent.items() if p is not None}
    cycles = []
    for u, v in sorted((min(a, b), max(a, b)) for a, b in edges):
        if (u, v) in tree:
            continue
        left, right = [u], [v]
        a, b = u, v
        while a != b:
            if depth[a] >= depth[b]:
                a = parent[a]
                left.append(a)
            else:
                b = parent[b]
                right.append(b)
        cycles.append(left + right[-2::-1] + [u])
    return cycles


# ---------------------------------------------------------------- classes


_CLASS_INDEX = {}


def _class_index(graphs):
    if id(graphs) not in _CLASS_INDEX:
        _CLASS_INDEX[id(graphs)] = GraphIndex(graphs)
    return _CLASS_INDEX[id(graphs)]


def check_class(name, order, graphs):
    """A program-enumerated class: OEIS count, membership, no duplicates."""
    errors = []
    want = OEIS_COUNTS.get((name, order))
    if want is not None and len(graphs) != want:
        errors.append(f"{name} n={order}: {len(graphs)} graphs, OEIS says {want}")
    for n, edges in graphs:
        if n != order or len(edges) != order + CLASS_EXTRA_EDGES[name] or not is_connected(n, edges):
            errors.append(f"{name} n={order}: member {edges} is not in the class")
            break
    dups = _class_index(graphs).duplicates()
    if dups:
        errors.append(f"{name} n={order}: {len(dups)} isomorphic pairs, e.g. {dups[0]}")
    return errors


def class_members(name, order, classes):
    """(graphs, index) of a search class; pendant-free bicyclic is rebuilt here."""
    if name == "pendant_free_bicyclic":
        specs, index = pfb_index(order)
        return index.graphs, index
    graphs = classes[f"{name}:{order}"]
    return graphs, _class_index(graphs)


# --------------------------------------------------------------- extremal


def expected_extremal(graphs, w, objective):
    """(values, best, winner index set, ambiguous index set, skipped)."""
    values = rhos(graphs, w)
    scored = [v for v in values if v is not None]
    best = min(scored) if objective == "min" else max(scored)
    slack = REL_TOL * max(1.0, abs(best))
    winners, ambiguous = set(), set()
    for i, v in enumerate(values):
        if v is None:
            continue
        gap = abs(v - best)
        if gap <= TIE_TOL - slack:
            winners.add(i)
        elif gap <= TIE_TOL + slack:
            ambiguous.add(i)
    return values, best, winners, ambiguous, values.count(None)


def parse_report(text):
    """Rows (rho, tag, encoding) and footer fields of a report_tsv text."""
    rows, footer = [], {}
    for line in text.splitlines():
        if line.startswith("# value="):
            for field in line[2:].split("\t"):
                key, _, val = field.partition("=")
                footer[key] = val
        elif line and not line.startswith("#"):
            r, tag, enc = line.split("\t")
            rows.append((float(r), tag, enc))
    return rows, footer


def check_extremal(job, classes, report):
    """``report``: {"tsv": text, and optionally "value", "examined",
    "skipped", "winners" (edge lists)} from the program."""
    errors = []
    graphs, index = class_members(job["class"], job["order"], classes)
    values, best, want, ambiguous, skipped = expected_extremal(graphs, job["weight"], job["objective"])
    rows, footer = parse_report(report["tsv"])
    examined = report.get("examined", int(footer.get("examined", -1)))
    got_skipped = report.get("skipped", int(footer.get("skipped", -1)))
    if "value" in report and not close(report["value"], best):
        errors.append(f"value {report['value']!r} != oracle {best!r}")
    if abs(float(footer.get("value", "nan")) - best) > 5.1e-7 + REL_TOL * abs(best):
        errors.append(f"printed value {footer.get('value')} != oracle {best:.9f}")
    if (examined, got_skipped) != (len(graphs) - skipped, skipped):
        errors.append(f"examined/skipped {examined}/{got_skipped}, oracle {len(graphs) - skipped}/{skipped}")
    winners = report.get("winners") or [decode(enc) for _, _, enc in rows]
    if len(rows) != len(winners):
        errors.append(f"{len(rows)} report rows for {len(winners)} winners")
    found = []
    for (n, edges), (r, tag, enc) in zip(winners, rows):
        i = index.find(n, edges)
        if i is None:
            errors.append(f"winner {edges} is not a member of the class")
            continue
        found.append(i)
        if abs(r - values[i]) > 5.1e-7 + REL_TOL * abs(values[i]):
            errors.append(f"row rho {r} != oracle {values[i]:.9f}")
        if tag != shape_tag(n, edges):
            errors.append(f"row tag {tag!r} != oracle {shape_tag(n, edges)!r}")
        if index.find(*decode(enc)) != i:
            errors.append(f"row encoding {enc} does not decode to its winner")
    got = set(found)
    if len(got) != len(found):
        errors.append("a winner is reported twice")
    if not (want <= got <= want | ambiguous):
        errors.append(f"winner set of {len(got)} graphs != oracle's {len(want)}")
    if (job["class"] == "pendant_free_bicyclic" and job["objective"] == "min"
            and job["weight"]["kind"] != "table"):
        specs, _ = pfb_index(job["order"])
        oracle_pair = {specs[i] for i in want}
        if oracle_pair != paper_minimisers(job["order"]):
            errors.append(f"oracle minimisers {sorted(oracle_pair)} differ from the paper's pair")
    return errors


# ----------------------------------------------------------------- verify

_MAIN_LINE = re.compile(r"^(PASS|FAIL) \S+ n=(\d+): winners (\[.*\]) expected (\[.*\])$")
_FORBIDDEN_LINE = re.compile(r"^(PASS|FAIL) \S+ (trees|unicyclic|bicyclic) n=(\d+): max winner avoids all six fixtures$")


def expected_verify(job, classes):
    """Expected check lines ({n or class: sorted lines}) and exit code."""
    w = job["weight"]
    expect = {}
    if job["theorem"] == "main-bicyclic":
        for n in range(8, 13):
            specs, index = pfb_index(n)
            _, _, want, ambiguous, _ = expected_extremal(index.graphs, w, "min")
            if ambiguous:
                raise ValueError(f"ambiguous tie for main-bicyclic n={n}")
            winners = sorted(specs[i] for i in want)
            status = "PASS" if set(winners) == paper_minimisers(n) else "FAIL"
            expect[n] = [(status, winners)]
    else:
        fixtures = [build_family(s) for s in FORBIDDEN]
        for name in ("trees", "unicyclic", "bicyclic"):
            graphs = classes[f"{name}:8"]
            _, _, want, ambiguous, _ = expected_extremal(graphs, w, "max")
            if ambiguous:
                raise ValueError(f"ambiguous tie for forbidden-subgraphs {name}")
            expect[name] = sorted(
                ("FAIL" if any(contains_induced(graphs[i], h) for h in fixtures) else "PASS",)
                for i in want
            )
    failed = any(line[0] == "FAIL" for lines in expect.values() for line in lines)
    return expect, 1 if failed else 0


def check_verify(job, classes, stdout, code):
    errors = []
    expect, want_code = expected_verify(job, classes)
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    got = {}
    for line in lines:
        if job["theorem"] == "main-bicyclic":
            m = _MAIN_LINE.match(line)
            if not m:
                errors.append(f"unparsed line {line!r}")
                continue
            got.setdefault(int(m.group(2)), []).append((m.group(1), sorted(ast.literal_eval(m.group(3)))))
        else:
            m = _FORBIDDEN_LINE.match(line)
            if not m:
                errors.append(f"unparsed line {line!r}")
                continue
            got.setdefault(m.group(2), []).append((m.group(1),))
    got = {k: sorted(v) for k, v in got.items()}
    if got != expect:
        errors.append(f"check lines {got} != oracle {expect}")
    if code != want_code:
        errors.append(f"exit code {code}, oracle expects {want_code}")
    return errors


def check_cli_rho(job, stdout, code):
    """``fspectra rho``: one 'rho <value>' line, exit code 0."""
    n, edges = build_family(job["family"])
    want = rho(n, edges, job["weight"])
    m = re.fullmatch(r"rho (\S+)\n", stdout)
    if code != 0 or m is None:
        return [f"exit code {code}, output {stdout[:80]!r}"]
    if abs(float(m.group(1)) - want) > 5.1e-7 + REL_TOL * want:
        return [f"printed rho {m.group(1)} != oracle {want:.9f}"]
    return []


# ------------------------------------------------------------ point queries


def _perron_ok(n, edges, w, value, errors):
    want = rho(n, edges, w)
    if not close(value, want):
        errors.append(f"rho {value!r} != oracle {want!r}")
    return want


def _subdivided(n, edges, e):
    a, b = e
    rest = [tuple(x) for x in edges if (min(x), max(x)) != (min(a, b), max(a, b))]
    return n + 1, sorted(rest + [(min(a, n), max(a, n)), (min(b, n), max(b, n))])


def _same_edges(a, b):
    return {(min(u, v), max(u, v)) for u, v in a} == {(min(u, v), max(u, v)) for u, v in b}


def _classify(vertex_slack, edge_slack, tol):
    v, e = list(vertex_slack), list(edge_slack)
    if all(abs(s) <= tol for s in v + e):
        return "normal"
    if all(s >= -tol for s in v + e):
        return "strictly_subnormal"
    if all(s <= tol for s in v + e):
        return "strictly_supernormal"
    return "none"


def check_point(job, answer):
    """Check one point-query answer; ``answer['edges']`` is the input graph
    the program built, which must be the named family."""
    errors = []
    w = job["weight"]
    n, edges = answer["n"], [tuple(e) for e in answer["edges"]]
    n0, edges0 = build_family(job["family"])
    if invariant(n, edges) != invariant(n0, edges0):
        return [f"input graph is not {job['family']}"]
    kind = job["kind"]
    if kind == "rho":
        want = _perron_ok(n, edges, w, answer["rho"], errors)
        form = closed_form(job["family"], w)
        if form is not None and not close(answer["rho"], form):
            errors.append(f"rho {answer['rho']!r} != closed form {form!r}")
        x = np.asarray(answer["vector"])
        M = matrix(n, edges, w)
        if x.min() < 0 or abs(x.max() - 1.0) > 1e-12:
            errors.append("eigenvector is not nonnegative with unit maximum")
        elif np.abs(M @ x - want * x).max() > 1e-8 * max(1.0, want):
            errors.append("eigenvector residual too large")
    elif kind == "spectrum":
        want = np.linalg.eigvalsh(matrix(n, edges, w))[::-1]
        got = np.asarray(answer["spectrum"])
        scale = max(1.0, float(np.abs(want).max()))
        if got.shape != want.shape or np.abs(got - want).max() > REL_TOL * scale:
            errors.append("spectrum differs from eigvalsh")
    elif kind == "certify":
        want = rho(n, edges, w)
        if not close(answer["alpha"], want ** -2):
            errors.append(f"alpha {answer['alpha']!r} != oracle {want ** -2!r}")
        # Any verdict but "none" is a true bound here, since alpha is
        # checked; a verdict weaker than "normal" is reported by the caller.
        slack = max(answer["max_vertex_slack"], answer["max_edge_slack"])
        if not answer["consistent"] or answer["classification"] == "none":
            errors.append(f"principal certificate is {answer['classification']}, consistent={answer['consistent']}")
        elif (answer["classification"] == "normal") != (slack <= NORMALITY_TOL):
            errors.append(f"verdict {answer['classification']} does not match slack {slack!r}")
    elif kind == "split":
        want = rho(n, edges, w)
        alpha = answer["alpha"]
        if not close(alpha, want ** -2):
            errors.append(f"alpha {alpha!r} != oracle {want ** -2!r}")
        f, deg = weight_fn(w), degrees(n, edges)
        B = {(v, (a, b)): val for v, a, b, val in answer["B"]}
        vsum = [0.0] * n
        eslack = []
        for a, b in sorted(edges):
            vsum[a] += B[(a, (a, b))]
            vsum[b] += B[(b, (a, b))]
            wt = f(deg[a], deg[b])
            eslack.append(B[(a, (a, b))] * B[(b, (a, b))] / (wt * wt) - alpha)
        cls = _classify([1.0 - s for s in vsum], eslack, NORMALITY_TOL)
        if cls != answer["classification"]:
            errors.append(f"classification {answer['classification']} != oracle {cls}")
        consistent = True
        for cycle in cycle_basis(n, edges):
            log = 0.0
            for a, b in zip(cycle, cycle[1:]):
                e = (min(a, b), max(a, b))
                if min(B[(b, e)], B[(a, e)]) <= 0.0:
                    log = math.inf
                    break
                log += math.log(B[(b, e)]) - math.log(B[(a, e)])
            consistent &= log != math.inf and abs(math.expm1(log)) <= NORMALITY_TOL
        if consistent != answer["consistent"]:
            errors.append(f"consistency {answer['consistent']} != oracle {consistent}")
        bound = alpha ** -0.5
        if cls == "normal" and consistent and not close(want, bound, 1e-7):
            errors.append(f"normal certificate but rho {want!r} != alpha^-1/2 {bound!r}")
    elif kind == "subdivide":
        n1, e1 = _subdivided(n, edges, answer["edge"])
        if answer["sub_n"] != n1 or not _same_edges(answer["sub_edges"], e1):
            errors.append("subdivided graph is wrong")
        else:
            _perron_ok(n1, e1, w, answer["rho"], errors)
    elif kind == "kelmans":
        u, v = answer["u"], answer["v"]
        adj = {x: set() for x in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        moved = sorted(x for x in adj[u] if x != v and x not in adj[v])
        new = {(min(a, b), max(a, b)) for a, b in edges}
        for x in moved:
            new.discard((min(u, x), max(u, x)))
            new.add((min(v, x), max(v, x)))
        new = sorted(new)
        if answer["moved"] != moved or not _same_edges(answer["res_edges"], new):
            errors.append("Kelmans result is wrong")
        else:
            flags = {
                "connected": is_connected(n, new),
                "isomorphic_to_input": is_isomorphic((n, edges), (n, new)),
                "endpoints_nonadjacent": v not in adj[u],
            }
            for key, val in flags.items():
                if answer[key] != val:
                    errors.append(f"Kelmans flag {key}={answer[key]}, oracle {val}")
            _perron_ok(n, new, w, answer["rho"], errors)
    elif kind == "best_cycle":
        e = tuple(answer["edge"])
        rest = [x for x in edges if (min(x), max(x)) != (min(e), max(e))]
        if len(rest) != len(edges) - 1 or not is_connected(n, rest):
            errors.append(f"edge {e} is not a cycle edge")
        n1, e1 = _subdivided(n, edges, e)
        if not _same_edges(answer["sub_edges"], e1):
            errors.append("subdivided graph is wrong")
        elif rho(n1, e1, w) > rho(n, edges, w) * (1 + REL_TOL):
            errors.append("cycle subdivision increased the Perron value")
    elif kind == "interlacing":
        lam = np.linalg.eigvalsh(matrix(n, edges, w))[::-1]
        n1, e1 = _subdivided(n, edges, answer["edge"])
        theta = np.linalg.eigvalsh(matrix(n1, e1, w))[::-1]
        scale = max(1.0, float(np.abs(theta).max()))
        if (len(answer["lam"]) != n or len(answer["theta"]) != n1
                or np.abs(np.asarray(answer["lam"]) - lam).max() > REL_TOL * scale
                or np.abs(np.asarray(answer["theta"]) - theta).max() > REL_TOL * scale):
            errors.append("interlacing spectra differ from eigvalsh")
        worst = 0.0
        for i in range(1, n + 2):
            if i - 2 >= 1:
                worst = max(worst, theta[i - 1] - lam[i - 3])
            if i + 1 <= n:
                worst = max(worst, lam[i] - theta[i - 1])
        if abs(worst - answer["max_violation"]) > REL_TOL * scale:
            errors.append(f"max violation {answer['max_violation']!r} != oracle {worst!r}")
        if answer["holds"] != (worst <= 1e-8):
            errors.append(f"holds={answer['holds']} but oracle violation is {worst!r}")
    else:
        errors.append(f"unknown job kind {kind!r}")
    return errors
