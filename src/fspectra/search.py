"""Exhaustive small-order enumeration and extremal verification.

Connected graphs are enumerated one per isomorphism class by growing: all
trees by leaf addition, then one edge at a time. Growth works on adjacency
lists and bitmasks: each kept candidate's canonical code (an int from
``graph_core.canonical_code``) goes into a set per level, and a ``Graph`` is
built only once per class, when the level's sorted codes are decoded into
canonically labeled representatives. Growth adds one leaf or edge per
twin orbit: a leaf goes on one vertex per twin class, and a new edge joins
one pair per unordered pair of twin classes, because permuting twins is an
automorphism and maps the skipped graphs onto kept ones.

A grown candidate H = G + e is kept only if e is a canonical last addition
(canonical deletion, after McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998). Let D(H) be the removable leaves (trees) or non-bridge
edges (m >= n) of H with the largest key: the sorted endpoint degrees, then
the sorted neighbour-degree lists of the endpoints. H is kept iff e is in
D(H). The key is an isomorphism invariant, so every isomorphism H -> H'
maps D(H) onto D(H'), and growth stays complete. Every connected H with
m >= n has a cycle, so D(H) is non-empty. Take e in D(H): H - e is
connected with m - 1 edges, so an isomorphism s maps it onto a listed
parent G, and s(H) = G + s(e) with s(e) in D(s(H)). Twin pruning tried a
pair p = t(s(e)) for some automorphism t of G, so the candidate
G + p = t(s(H)) has p in its D and is kept. Trees run the same argument with
leaves. The key does not separate every orbit of D(H), so a class can still
keep several candidates, and the dedup by canonical code stays.

Every search scores its candidates once, solving all candidates of one order
in a single batched eigensolve, keeps the extremal value and the candidates
tied with it, and reports winners in canonical order. Each named
verification is one small function in the ``_CHECKS`` table.
"""

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import BadParams, MissingTableEntry, SizeLimit
from .families import FamilySpec, forbidden_fixtures, identify_pendant_free_bicyclic, make
from .graph_core import (
    Graph,
    base_graph,
    canonical_code,
    canonical_form,
    contains_induced,
    degrees,
    graph_of_code,
    is_isomorphic,
    twins,
)
from .spectral import check_tol, f_adjacency, f_spectral_radius, perron_values

ENUMERATION_MAX_ORDER = 9
TIE_TOL = 1e-7


def enumerate_pendant_free_bicyclic(n):
    """Family specs of all pendant-free bicyclic graphs of order n.

    Theta(l1<=l2<=l3) with l1+l2+l3 = n+1 (at most one length 1),
    infty(l1<=l2, l3) with cycles >= 3 and path >= 1, and
    infty_star(l1<=l2) with cycles summing to n+1. No two specs are
    isomorphic.
    """
    if n < 4:
        raise BadParams("pendant-free bicyclic graphs need order >= 4")
    total = n + 1
    specs = []
    for l1 in range(1, total // 3 + 1):
        for l2 in range(max(l1, 2), (total - l1) // 2 + 1):
            l3 = total - l1 - l2
            if l3 < l2:
                continue
            specs.append(FamilySpec("theta", (l1, l2, l3)))
    for l1 in range(3, total + 1):
        for l2 in range(l1, total + 1):
            l3 = total - l1 - l2
            if l3 >= 1:
                specs.append(FamilySpec("infty", (l1, l2, l3)))
    for l1 in range(3, total // 2 + 1):
        l2 = total - l1
        if l2 >= l1:
            specs.append(FamilySpec("infty_star", (l1, l2)))
    return specs


def _plus_edge(adj, masks, u, v):
    """Adjacency lists and masks of the graph given by ``adj`` and ``masks``
    with edge uv added."""
    adj, masks = list(adj), list(masks)
    adj[u] += (v,)
    adj[v] += (u,)
    masks[u] |= 1 << v
    masks[v] |= 1 << u
    return adj, masks


def _classes(n, codes):
    """One canonically labeled graph per code, in code order."""
    return tuple(graph_of_code(n, code) for code in sorted(codes))


def _degree_key(adj, a, b):
    da, db = len(adj[a]), len(adj[b])
    return (da, db) if da <= db else (db, da)


def _neighbour_key(adj, a, b):
    return tuple(sorted(tuple(sorted(len(adj[y]) for y in adj[x])) for x in (a, b)))


def _bridge_sides(G):
    """Map each bridge (a, b) of G to the vertex mask of a's side of G - ab."""
    sides = {}
    for a, b in G.edges:
        masks = list(G.masks)
        masks[a] &= ~(1 << b)
        masks[b] &= ~(1 << a)
        seen = frontier = 1 << a
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        if not (seen >> b) & 1:
            sides[(a, b)] = seen
    return sides


def _keeps(adj, e, rivals, sides):
    """Whether e is a canonical last addition to the graph with lists ``adj``.

    ``rivals`` are the other leaf or edge deletions of that graph, each
    given as an edge; a rival beats e when its key is larger and it is
    removable. ``sides`` maps the rivals that are bridges of the graph
    minus e to one side's vertex mask, so such a rival is removable only
    if e crosses it; leaf deletions are always removable.
    """
    u, v = e
    key = _degree_key(adj, u, v)
    neighbours = None
    for a, b in rivals:
        rival = _degree_key(adj, a, b)
        if rival < key:
            continue
        if rival == key:
            if neighbours is None:
                neighbours = _neighbour_key(adj, u, v)
            if _neighbour_key(adj, a, b) <= neighbours:
                continue
        side = sides.get((a, b))
        if side is None or ((side >> u) ^ (side >> v)) & 1:
            return False
    return True


@lru_cache(maxsize=None)
def _trees(n):
    if n == 1:
        return (Graph(1, []),)
    codes = set()
    for T in _trees(n - 1):
        for v in sorted(set(twins(T))):
            adj, masks = _plus_edge(T.adj + ((),), T.masks + (0,), v, T.n)
            leaves = [(x, a[0]) for x, a in enumerate(adj[: T.n]) if len(a) == 1]
            if _keeps(adj, (T.n, v), leaves, {}):
                codes.add(canonical_code(n, adj, masks))
    return _classes(n, codes)


@lru_cache(maxsize=None)
def enumerate_connected(n, m):
    """All connected graphs with n vertices and m edges, one per iso class.

    Returns canonical representatives sorted by canonical form; cached, so
    treat the result as read-only.
    """
    if n > ENUMERATION_MAX_ORDER:
        raise SizeLimit(f"enumeration supports order <= {ENUMERATION_MAX_ORDER}")
    if n < 1 or m < 0 or m > n * (n - 1) // 2:
        raise BadParams(f"no simple graphs with n={n}, m={m}")
    if m < n - 1:
        return ()
    if m == n - 1:
        return _trees(n)
    codes = set()
    for G in enumerate_connected(n, m - 1):
        present = G.edges
        rep = twins(G)
        sides = _bridge_sides(G)
        tried = set()
        for u in range(n):
            for v in range(u + 1, n):
                key = frozenset((rep[u], rep[v]))
                if (u, v) in present or key in tried:
                    continue
                tried.add(key)
                adj, masks = _plus_edge(G.adj, G.masks, u, v)
                if _keeps(adj, (u, v), present, sides):
                    codes.add(canonical_code(n, adj, masks))
    return _classes(n, codes)


# The search classes: name -> the isomorph-free list of its graphs at order n.
_CLASSES = {
    "trees": lambda n: list(enumerate_connected(n, n - 1)),
    "unicyclic": lambda n: list(enumerate_connected(n, n)),
    "bicyclic": lambda n: list(enumerate_connected(n, n + 1)),
    "pendant_free_bicyclic": lambda n: [make(s) for s in enumerate_pendant_free_bicyclic(n)],
}

SEARCH_CLASSES = tuple(_CLASSES)


def class_graphs(class_name, n):
    """The isomorph-free list of graphs making up a search class at order n."""
    build = _CLASSES.get(class_name)
    if build is None:
        raise BadParams(f"unknown search class {class_name!r}")
    return build(n)


@dataclass
class SearchReport:
    """Extremal outcome over one enumerated class.

    ``winners`` collects every graph within ``tie_tol`` of the extremal
    value, sorted by canonical form; ``winner_values`` holds their Perron
    values in the same order. ``skipped`` counts candidates a table weight
    could not evaluate (missing degree pairs); they are excluded from the
    optimum.
    """

    class_name: str
    order: int
    weight: object
    objective: str
    winners: list
    value: float
    examined: int
    skipped: int
    elapsed: float
    tie_tol: float = TIE_TOL
    winner_values: list = field(default_factory=list)


def _scored(items, f, graph_of=lambda G: G):
    """(rho, item) for every item whose graph f can evaluate, in input order.

    The f-adjacency matrices of each order fill one stack, solved by one
    ``perron_values`` call.
    """
    by_order = {}
    for i, item in enumerate(items):
        G = graph_of(item)
        by_order.setdefault(G.n, []).append((i, G))
    rho = {}
    for n, members in by_order.items():
        stack = np.empty((len(members), n, n))
        kept = []
        for i, G in members:
            try:
                stack[len(kept)] = f_adjacency(G, f)
            except MissingTableEntry:
                continue
            kept.append(i)
        if kept:
            rho.update(zip(kept, perron_values(stack[: len(kept)])[0].tolist()))
    return [(rho[i], item) for i, item in enumerate(items) if i in rho]


def _best(scored, objective, tie_tol, where):
    """The extremal rho of (rho, item) pairs and the pairs within tie_tol of it.

    Raises BadParams naming ``where`` when f could evaluate none of them.
    """
    if not scored:
        raise BadParams(f"no evaluable graphs in {where}")
    best = (min if objective == "min" else max)(v for v, _ in scored)
    return best, [(v, item) for v, item in scored if abs(v - best) <= tie_tol]


def extremal(class_name, n, f, objective="min", tie_tol=TIE_TOL):
    """Exact extremal set of rho_f over an enumerated class."""
    if objective not in ("min", "max"):
        raise BadParams("objective must be 'min' or 'max'")
    check_tol(tie_tol, "tie_tol")
    start = time.perf_counter()
    graphs = class_graphs(class_name, n)
    scored = _scored(graphs, f)
    best, ties = _best(scored, objective, tie_tol, f"class {class_name} at n={n}")
    ties.sort(key=lambda t: canonical_form(t[1]))
    return SearchReport(
        class_name=class_name,
        order=n,
        weight=f,
        objective=objective,
        winners=[G for _, G in ties],
        value=best,
        examined=len(scored),
        skipped=len(graphs) - len(scored),
        elapsed=time.perf_counter() - start,
        tie_tol=tie_tol,
        winner_values=[v for v, _ in ties],
    )


def report_records(report):
    """Machine-readable rows: (canonical encoding, rho, family tag)."""
    rows = []
    for G, rho in zip(report.winners, report.winner_values):
        n, bits = canonical_form(G)
        enc = f"{n}:" + "".join(str(b) for b in bits)
        spec = identify_pendant_free_bicyclic(G)
        rows.append((enc, rho, str(spec) if spec else "-"))
    return rows


def report_tsv(report):
    head = (
        f"# class={report.class_name}\torder={report.order}"
        f"\tweight={report.weight}\tobjective={report.objective}"
    )
    lines = [head]
    for enc, rho, tag in report_records(report):
        lines.append(f"{rho:.6f}\t{tag}\t{enc}")
    lines.append(
        f"# value={report.value:.6f}\texamined={report.examined}"
        f"\tskipped={report.skipped}\telapsed={report.elapsed:.3f}s"
    )
    return "\n".join(lines) + "\n"


@dataclass
class CheckLine:
    status: str  # PASS | FAIL | OBS
    text: str


@dataclass
class TheoremReport:
    """Structured verification outcome: one CheckLine per instance checked.

    ``passed`` is None for observational (conjecture) runs, which never
    assert.
    """

    theorem: str
    passed: bool | None
    checks: list = field(default_factory=list)

    def add(self, ok, text):
        self.checks.append(CheckLine("PASS" if ok else "FAIL", text))

    def observe(self, text):
        self.checks.append(CheckLine("OBS", text))

    def finalize(self):
        statuses = {c.status for c in self.checks}
        self.passed = None if statuses <= {"OBS"} else "FAIL" not in statuses
        return self


class _Ranges(NamedTuple):
    s_values: tuple
    t_values: tuple
    n_values: tuple
    m_values: tuple
    class_names: tuple
    tie_tol: float


def _balanced(kind, m):
    """The theta- or infty-type spec (s, s, t) of size m with 2s + t = m and
    |s - t| <= 1, as a string; theta lengths are listed sorted."""
    for s in range(1, m):
        t = m - 2 * s
        if t >= 1 and abs(s - t) <= 1:
            lengths = tuple(sorted((s, s, t))) if kind == "theta" else (s, s, t)
            return str(FamilySpec(kind, lengths))
    raise BadParams(f"no balanced split for m={m}")


def _pendant_free_of_kind(kind, m):
    return [sp for sp in enumerate_pendant_free_bicyclic(m - 1) if sp.kind == kind]


def _winner_specs(report):
    out = set()
    for G in report.winners:
        spec = identify_pendant_free_bicyclic(G)
        out.add(str(spec) if spec else repr(G))
    return out


def _each_winner(rep, f, r, class_name, objective, ok, label):
    """Search the class at every order in r and add one check per winner.

    ``label`` is formatted with f, class_name, n and rho (the extremal value).
    """
    for n in r.n_values:
        report = extremal(class_name, n, f, objective, r.tie_tol)
        text = label.format(f=f, class_name=class_name, n=n, rho=report.value)
        for G in report.winners:
            rep.add(ok(G), text)


def _check_theta_infty_equality(rep, f, r):
    for s in r.s_values:
        for t in r.t_values:
            a = f_spectral_radius(make(FamilySpec("theta", (s, s, t))), f).rho
            b = f_spectral_radius(make(FamilySpec("infty", (s, s, t))), f).rho
            rep.add(
                abs(a - b) <= r.tie_tol,
                f"{f} theta({s},{s},{t})={a:.9f} infty({s},{s},{t})={b:.9f}",
            )


def _check_base_graph_reduction(rep, f, r):
    _each_winner(
        rep, f, r, "bicyclic", "min",
        lambda G: min(degrees(G)) >= 2,
        "{f} n={n}: min winner pendant-free (rho={rho:.6f})",
    )


def _check_type_minimal(kind, rep, f, r):
    for m in r.m_values:
        expect = _balanced(kind, m)
        scored = _scored(_pendant_free_of_kind(kind, m), f, make)
        _, ties = _best(scored, "min", r.tie_tol, f"the {kind}-type class at m={m}")
        winners = {str(sp) for _, sp in ties}
        rep.add(
            winners == {expect},
            f"{f} m={m}: min {kind}-type winners {sorted(winners)} expected [{expect}]",
        )


def _check_infty_star_domination(rep, f, r):
    for m in r.m_values:
        if m < 9:
            raise BadParams("infty-star domination needs size >= 9")
        thetas = _scored(_pendant_free_of_kind("theta", m), f, make)
        theta_best, _ = _best(thetas, "min", r.tie_tol, f"the theta-type class at m={m}")
        stars = [FamilySpec("infty_star", (l1, m - l1)) for l1 in range(3, m // 2 + 1)]
        for rho, sp in _scored(stars, f, make):
            l1, l2 = sp.params
            rep.add(
                theta_best < rho - r.tie_tol,
                f"{f} m={m}: best theta {theta_best:.6f} < infty-star({l1},{l2}) {rho:.6f}",
            )


def _check_main_bicyclic(rep, f, r):
    for n in r.n_values:
        if n < 8:
            raise BadParams("main theorem instances need order >= 8")
        expect = {_balanced("theta", n + 1), _balanced("infty", n + 1)}
        winners = _winner_specs(extremal("pendant_free_bicyclic", n, f, "min", r.tie_tol))
        rep.add(
            winners == expect,
            f"{f} n={n}: winners {sorted(winners)} expected {sorted(expect)}",
        )


def _check_forbidden_subgraphs(rep, f, r):
    fixtures = forbidden_fixtures()
    for class_name in r.class_names:
        _each_winner(
            rep, f, r, class_name, "max",
            lambda G: not any(contains_induced(G, H) for H in fixtures),
            "{f} {class_name} n={n}: max winner avoids all six fixtures",
        )


def _check_max_unicyclic_base(rep, f, r):
    c3 = make(FamilySpec("cycle", (3,)))
    _each_winner(
        rep, f, r, "unicyclic", "max",
        lambda G: is_isomorphic(base_graph(G), c3),
        "{f} n={n}: max unicyclic winner has base C3",
    )


def _check_max_bicyclic_base(rep, f, r):
    targets = [make(FamilySpec("theta", (1, 2, 2))), make(FamilySpec("theta", (2, 2, 2)))]
    _each_winner(
        rep, f, r, "bicyclic", "max",
        lambda G: any(is_isomorphic(base_graph(G), T) for T in targets),
        "{f} n={n}: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)",
    )


# The conjectured maximiser of each class at order n.
_CONJECTURED = {
    "trees": lambda n: FamilySpec("double_star", (math.ceil(n / 2), n // 2)),
    "unicyclic": lambda n: FamilySpec("c3_pendants", (math.ceil((n - 3) / 2), (n - 3) // 2, 0)),
    "bicyclic": lambda n: FamilySpec("theta122_pendants", (math.ceil((n - 4) / 2), (n - 4) // 2)),
}


def _check_conjecture_pstarstar(rep, f, r):
    for class_name in r.class_names:
        for n in r.n_values:
            if class_name not in _CONJECTURED:
                raise BadParams(f"conjecture check has no target for {class_name!r}")
            spec = _CONJECTURED[class_name](n)
            target = make(spec)
            report = extremal(class_name, n, f, "max", r.tie_tol)
            match = any(is_isomorphic(G, target) for G in report.winners)
            rep.observe(
                f"{f} {class_name} n={n}: observed max "
                f"{'matches' if match else 'differs from'} conjectured {spec} "
                f"(rho={report.value:.6f})"
            )


# Named verifications, in the order the CLI lists them. Each check runs one
# weight over the ranges and adds its lines to the report.
_CHECKS = {
    "theta-infty-equality": _check_theta_infty_equality,
    "base-graph-reduction": _check_base_graph_reduction,
    "theta-minimal": partial(_check_type_minimal, "theta"),
    "infty-minimal": partial(_check_type_minimal, "infty"),
    "infty-star-domination": _check_infty_star_domination,
    "main-bicyclic": _check_main_bicyclic,
    "forbidden-subgraphs": _check_forbidden_subgraphs,
    "max-unicyclic-base": _check_max_unicyclic_base,
    "max-bicyclic-base": _check_max_bicyclic_base,
    "conjecture-pstarstar": _check_conjecture_pstarstar,
}

THEOREMS = tuple(_CHECKS)


def verify_theorem(
    theorem,
    weights,
    s_values=(3, 4, 5),
    t_values=(2, 3, 4),
    n_values=(8,),
    m_values=(9,),
    class_names=("trees", "unicyclic", "bicyclic"),
    tie_tol=TIE_TOL,
):
    """Run one named verification and return a TheoremReport.

    ``weights`` is a list of WeightSpec. Callers pick ranges small enough
    for exhaustive checking; everything here is desk scale.
    """
    check = _CHECKS.get(theorem)
    if check is None:
        raise BadParams(f"unknown theorem id {theorem!r}")
    rep = TheoremReport(theorem, None)
    ranges = _Ranges(s_values, t_values, n_values, m_values, class_names, tie_tol)
    for f in weights:
        check(rep, f, ranges)
    return rep.finalize()
