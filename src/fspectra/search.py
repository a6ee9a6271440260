"""Exhaustive small-order enumeration and extremal verification.

Each size of connected graph has one generator. Every size with m <= n + 1
is built from rooted trees, listed once per size as sorted nested tuples.
A tree (m = n - 1) is rooted at its centroid: either one rooted tree whose
root subtrees have at most (n - 1) // 2 vertices each, or, for even n, two
rooted trees of order n / 2 with their roots joined. Unicyclic (m = n) and
bicyclic (m = n + 1) graphs are built from their cores, the base graphs
left once pendant vertices are stripped: the cycles C_k and the
pendant-free bicyclic graphs, with a rooted tree hung on each core vertex.
An assignment of (size, tree index) to the core vertices is built only if
it is lexicographically smallest over the core's automorphisms, which a
backtracking search over refined colour classes lists once per core. So
each class is built once by ``_members``, as a ``Graph`` with the
construction's labels and no canonical code. ``class_graphs`` returns the
members as built, and ``enumerate_connected`` computes one canonical code
per class to return canonically labeled representatives. ``EXCESS`` gives
m - n for each search class that these generators list, up to order
``CANONICAL_MAX_VERTICES`` (12), where canonical codes stop.

Denser sizes (m >= n + 2) grow one edge at a time from the level below.
Growth works on adjacency lists and bitmasks: each kept candidate's
canonical code (an int from ``graph_core.canonical_code``) goes into a set
per level, which replaces the level below once grown, and a ``Graph`` is
built only once per class, when a level's codes are decoded to grow the
next level or, sorted, into the canonically labeled representatives. A new
edge joins one pair per unordered pair of twin classes, because permuting
twins is an automorphism and maps the skipped graphs onto kept ones.

A grown candidate H = G + e is kept only if e is a canonical last addition
(canonical deletion, after McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998). Let D(H) be the non-bridge edges of H with the largest
key: the sorted endpoint degrees, then the sorted neighbour-degree lists
of the endpoints. H is kept iff e is in D(H). The key is an isomorphism
invariant, so every isomorphism H -> H' maps D(H) onto D(H'), and growth
stays complete. Every connected H with m >= n has a cycle, so D(H) is
non-empty. Take e in D(H): H - e is connected with m - 1 edges, so an
isomorphism s maps it onto a listed parent G, and s(H) = G + s(e) with
s(e) in D(s(H)). Twin pruning tried a pair p = t(s(e)) for some
automorphism t of G, so the candidate G + p = t(s(H)) has p in its D and
is kept. The key does not separate every orbit of D(H), so a class can
still keep several candidates, and the dedup by canonical code stays.

Every search scores its candidates once, in batched eigensolves over
chunks of at most ``CHUNK_BYTES`` of matrices, keeps the extremal value
and the candidates tied with it (by ``_tied``: values at most the sum of
their ``perron_values`` error half-widths apart), and reports winners as
canonically labeled representatives in canonical order, each written as
its ``n:bits`` ``graph_core.encoding``, so ``extremal`` refuses an order
past ``CANONICAL_MAX_VERTICES`` before it lists the class. Each named
verification is one small ``_CHECKS`` function that names the ranges it
reads as keyword parameters with defaults; ``verify_theorem`` refuses
any other range. The checks on pendant-free bicyclic graphs score family
specs and compare spec strings, so they run up to ``GRAPH_MAX_ORDER``.
"""

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .errors import BadParams, MissingTableEntry, SizeLimit
from .families import FamilySpec, forbidden_fixtures, identify_pendant_free_bicyclic, make
from .graph_core import (
    CANONICAL_MAX_VERTICES,
    GRAPH_MAX_ORDER,
    Graph,
    _refine,
    base_graph,
    canonical_code,
    canonical_form,
    contains_induced,
    degrees,
    encoding,
    graph_of_code,
    twins,
)
from .spectral import f_adjacency, perron_values

# Largest order enumerate_connected lists for sizes m >= n + 2, whose levels
# at orders 10 and 11 run to millions of classes.
ENUMERATION_MAX_ORDER = 9
# Bytes of f-adjacency matrices a search holds at once (at least one matrix).
CHUNK_BYTES = 2 ** 24


def iter_pendant_free_bicyclic(n):
    """Yield the family specs of all pendant-free bicyclic graphs of order n.

    Theta(l1<=l2<=l3) with l1+l2+l3 = n+1 (at most one length 1),
    infty(l1<=l2, l3) with cycles >= 3 and path >= 1, and
    infty_star(l1<=l2) with cycles summing to n+1. No two specs are
    isomorphic. Raises SizeLimit, before the first spec, for an order above
    GRAPH_MAX_ORDER, where ``make`` stops.
    """
    if n < 4:
        raise BadParams("pendant-free bicyclic graphs need order >= 4")
    if n > GRAPH_MAX_ORDER:
        raise SizeLimit(f"pendant-free bicyclic graphs need order <= {GRAPH_MAX_ORDER}, got {n}")
    total = n + 1
    for l1 in range(1, total // 3 + 1):
        for l2 in range(max(l1, 2), (total - l1) // 2 + 1):
            l3 = total - l1 - l2
            if l3 >= l2:
                yield FamilySpec("theta", (l1, l2, l3))
    for l1 in range(3, total + 1):
        for l2 in range(l1, total + 1):
            l3 = total - l1 - l2
            if l3 >= 1:
                yield FamilySpec("infty", (l1, l2, l3))
    for l1 in range(3, total // 2 + 1):
        l2 = total - l1
        if l2 >= l1:
            yield FamilySpec("infty_star", (l1, l2))


def enumerate_pendant_free_bicyclic(n):
    """List of ``iter_pendant_free_bicyclic(n)``, refusing a bad order first."""
    return list(iter_pendant_free_bicyclic(n))


def _plus_edge(adj, masks, u, v):
    """Adjacency lists and masks of the graph given by ``adj`` and ``masks``
    with edge uv added."""
    adj, masks = list(adj), list(masks)
    adj[u] += (v,)
    adj[v] += (u,)
    masks[u] |= 1 << v
    masks[v] |= 1 << u
    return adj, masks


def _neighbour_key(deg, adj, a, b, memo):
    """The sorted pair of the sorted neighbour-degree tuples of a and b.

    ``memo`` maps each vertex to its tuple, so a vertex's tuple is built
    once however many keys share it.
    """
    pair = []
    for x in (a, b):
        t = memo.get(x)
        if t is None:
            t = memo[x] = tuple(sorted(map(deg.__getitem__, adj[x])))
        pair.append(t)
    ta, tb = pair
    return (ta, tb) if ta <= tb else (tb, ta)


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

    ``rivals`` are the other edges of that graph; a rival beats e when its
    key is larger and it is removable. ``sides`` maps the rivals that are
    bridges of the graph minus e to one side's vertex mask, so such a rival
    is removable only if e crosses it.
    """
    deg = [len(a) for a in adj]
    u, v = e
    key = (deg[u], deg[v]) if deg[u] <= deg[v] else (deg[v], deg[u])
    memo = {}
    neighbours = None
    for a, b in rivals:
        da, db = deg[a], deg[b]
        rival = (da, db) if da <= db else (db, da)
        if rival < key:
            continue
        if rival == key:
            if neighbours is None:
                neighbours = _neighbour_key(deg, adj, u, v, memo)
            if _neighbour_key(deg, adj, a, b, memo) <= neighbours:
                continue
        side = sides.get((a, b))
        if side is None or ((side >> u) ^ (side >> v)) & 1:
            return False
    return True


@lru_cache(maxsize=None)
def _rooted_trees(s):
    """Every rooted tree on s vertices once, in sorted order. A tree is the
    sorted tuple of its root's subtrees, each in the same form, so () is a
    lone root and equal tuples mean isomorphic rooted trees."""
    if s == 1:
        return ((),)
    out = []

    def extend(rest, top, children):
        # Subtrees are picked in non-increasing (size, index) order, with
        # ``top`` the last pick, so each multiset of subtrees comes once.
        if not rest:
            out.append(tuple(sorted(children)))
            return
        for size in range(min(rest, top[0]), 0, -1):
            trees = _rooted_trees(size)
            last = top[1] if size == top[0] else len(trees) - 1
            for i in range(last, -1, -1):
                extend(rest - size, (size, i), children + [trees[i]])

    extend(s - 1, (s - 1, len(_rooted_trees(s - 1)) - 1), [])
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _rooted_tree_edges(s):
    """The edges (parent, child) of each tree of ``_rooted_trees(s)``, with
    the root labeled 0 and the other vertices 1..s-1 in preorder."""
    def edges(tree, root, out):
        for child in tree:
            v = len(out) + 1
            out.append((root, v))
            edges(child, v, out)
        return out

    return tuple(tuple(edges(t, 0, [])) for t in _rooted_trees(s))


def _centroid_trees(n):
    """Every tree on n vertices once, labeled as built from its centroid:
    a rooted tree of order n with root subtrees of at most (n - 1) // 2
    vertices, or (even n) two of order n / 2, indices a <= b, roots joined."""
    members = []
    for edges in _rooted_tree_edges(n):
        # Preorder labels: each root subtree spans up to the next root child.
        kids = [b for a, b in edges if a == 0] + [n]
        if all(b - a <= (n - 1) // 2 for a, b in zip(kids, kids[1:])):
            members.append(Graph(n, edges))
    if n % 2 == 0:
        h = n // 2
        for a, b in combinations_with_replacement(_rooted_tree_edges(h), 2):
            members.append(Graph(n, [*a, (0, h), *((x + h, y + h) for x, y in b)]))
    return members


def _automorphisms(adj):
    """Every automorphism of the connected graph with lists ``adj``, each as
    the tuple of vertex images.

    Backtracking maps the vertices in breadth-first order, each onto an
    unused vertex of its refined colour whose adjacency to the images of
    the vertices already mapped matches.
    """
    n = len(adj)
    colors = _refine(n, adj)
    order = [0]
    for v in order:
        order.extend(u for u in adj[v] if u not in order)
    near = [set(a) for a in adj]
    image = [0] * n
    used = [False] * n
    out = []

    def extend(i):
        if i == n:
            out.append(tuple(image))
            return
        v = order[i]
        for w in range(n):
            if used[w] or colors[w] != colors[v]:
                continue
            if all((u in near[v]) == (image[u] in near[w]) for u in order[:i]):
                image[v], used[w] = w, True
                extend(i + 1)
                used[w] = False

    extend(0)
    return tuple(out)


@lru_cache(maxsize=None)
def _core(spec):
    """Edges and automorphisms of the core graph ``make(spec)``."""
    G = make(spec)
    return tuple(G.sorted_edges()), _automorphisms(G.adj)


def _compositions(total, parts):
    """Every tuple of ``parts`` positive ints summing to ``total``."""
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _check_size(n, m):
    """Refuse an (n, m) that enumeration does not list: SizeLimit above
    CANONICAL_MAX_VERTICES (m <= n + 1, where canonical codes stop) or else
    ENUMERATION_MAX_ORDER, BadParams where no simple graph exists."""
    if n > (CANONICAL_MAX_VERTICES if m <= n + 1 else ENUMERATION_MAX_ORDER):
        raise SizeLimit(
            f"enumeration supports order <= {CANONICAL_MAX_VERTICES} with at most n + 1 "
            f"edges and order <= {ENUMERATION_MAX_ORDER} otherwise"
        )
    if n < 1 or m < 0 or m > n * (n - 1) // 2:
        raise BadParams(f"no simple graphs with n={n}, m={m}")


def _hung(n, m):
    """Every connected graph with n vertices and m = n or n + 1 edges, once
    per isomorphism class, labeled as built.

    Such a graph is its core (base graph) with a rooted tree hung on each
    core vertex: the cycles C_k for m = n, the pendant-free bicyclic graphs
    for m = n + 1. Two graphs on one core are isomorphic iff an automorphism
    of the core carries one's trees onto the other's, so an assignment of
    (size, tree index) to the core vertices is built only if no
    automorphism permutes it to a lexicographically smaller one. Sizes are
    compared first: only the automorphisms fixing the sizes can reorder the
    tree indices.
    """
    if m == n:
        cores = [FamilySpec("cycle", (k,)) for k in range(3, n + 1)]
    else:
        cores = [sp for k in range(4, n + 1) for sp in enumerate_pendant_free_bicyclic(k)]
    members = []
    for spec in cores:
        core_edges, autos = _core(spec)
        for sizes in _compositions(n, len(autos[0])):
            fixing = []
            for p in autos:
                moved = tuple(map(sizes.__getitem__, p))
                if moved < sizes:
                    break
                if moved == sizes:
                    fixing.append(p)
            else:
                for pick in product(*(range(len(_rooted_trees(s))) for s in sizes)):
                    if all(pick <= tuple(map(pick.__getitem__, p)) for p in fixing):
                        members.append(_hang(n, core_edges, sizes, pick))
    return members


def _hang(n, core_edges, sizes, pick):
    """The core with tree ``pick[v]`` of ``_rooted_trees(sizes[v])`` rooted
    at each core vertex v; tree vertices are numbered on from the core's."""
    edges = list(core_edges)
    top = len(sizes) - 1
    for v, (s, i) in enumerate(zip(sizes, pick)):
        edges += [(top + a if a else v, top + b) for a, b in _rooted_tree_edges(s)[i]]
        top += s - 1
    return Graph(n, edges)


def _members(n, m):
    """Every connected graph with n vertices and m <= n + 1 edges, once per
    isomorphism class, labeled as built: centroid trees or hung cores."""
    _check_size(n, m)
    return _centroid_trees(n) if m == n - 1 else _hung(n, m)


def enumerate_connected(n, m):
    """All connected graphs with n vertices and m edges, one per iso class.

    Returns canonical representatives sorted by canonical form.
    """
    _check_size(n, m)
    if m < n - 1:
        return ()
    codes = [canonical_code(n, G.adj, G.masks) for G in _members(n, min(m, n + 1))]
    for _ in range(n + 1, m):
        grown = set()
        for code in codes:
            G = graph_of_code(n, code)
            present = G.edges
            rep = twins(G.masks)
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
                        grown.add(canonical_code(n, adj, masks))
        codes = grown
    return tuple(graph_of_code(n, code) for code in sorted(codes))


# Edges minus vertices of the search classes that enumeration lists.
EXCESS = {"trees": -1, "unicyclic": 0, "bicyclic": 1}

SEARCH_CLASSES = (*EXCESS, "pendant_free_bicyclic")


def class_graphs(class_name, n):
    """The isomorph-free list of graphs making up a search class at order n.

    Members keep the labels they were built with, not canonical ones.
    """
    if class_name == "pendant_free_bicyclic":
        return [make(s) for s in enumerate_pendant_free_bicyclic(n)]
    if class_name not in EXCESS:
        raise BadParams(f"unknown search class {class_name!r}")
    return _members(n, n + EXCESS[class_name])


@dataclass
class SearchReport:
    """Extremal outcome over one enumerated class.

    ``winners`` collects every graph tied with the extremal value (by
    ``_tied``) as its canonically labeled representative, sorted by
    canonical form; ``winner_values`` holds their Perron values in the same
    order.
    ``skipped`` counts candidates a table weight could not evaluate (missing
    degree pairs); they are excluded from the optimum.
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
    winner_values: list


def _scored(items, f, graph_of=lambda G: G):
    """(rho, err, item), err the solve's error half-width, for every item
    whose graph f can evaluate, in input order.

    Every item's graph has one order. Items are taken in chunks whose
    matrices fit CHUNK_BYTES (at least one), and each chunk's graphs are
    built, stacked and solved by one ``perron_values`` call, so a search
    holds one chunk of matrices however many items it scores.
    """
    n = graph_of(items[0]).n
    per = max(1, CHUNK_BYTES // (8 * n * n))
    stack = np.empty((min(len(items), per), n, n))
    scored = []
    for start in range(0, len(items), per):
        kept = []
        for item in items[start : start + per]:
            try:
                stack[len(kept)] = f_adjacency(graph_of(item), f)
            except MissingTableEntry:
                continue
            kept.append(item)
        if kept:
            rho, _, err = perron_values(stack[: len(kept)])
            scored += zip(rho.tolist(), err.tolist(), kept)
    return scored


def _tied(a, b):
    """Whether two (rho, err, ...) triples tie: their rhos differ by at most
    the sum of their error half-widths. Every tie a search or a check
    decides is decided here."""
    return abs(a[0] - b[0]) <= a[1] + b[1]


def _best(scored, objective, where):
    """The extremal (rho, err, item) triple and every triple tied with it.

    Raises BadParams naming ``where`` when f could evaluate none of them.
    """
    if not scored:
        raise BadParams(f"no evaluable graphs in {where}")
    top = (min if objective == "min" else max)(scored, key=lambda t: t[0])
    return top, [t for t in scored if _tied(t, top)]


def extremal(class_name, n, f, objective="min"):
    """Exact extremal set of rho_f over an enumerated class."""
    if objective not in ("min", "max"):
        raise BadParams("objective must be 'min' or 'max'")
    if n > CANONICAL_MAX_VERTICES:
        raise SizeLimit(f"canonical form supports at most {CANONICAL_MAX_VERTICES} vertices")
    start = time.perf_counter()
    graphs = class_graphs(class_name, n)
    scored = _scored(graphs, f)
    top, ties = _best(scored, objective, f"class {class_name} at n={n}")
    ranked = sorted((canonical_code(n, G.adj, G.masks), rho) for rho, _, G in ties)
    return SearchReport(
        class_name=class_name,
        order=n,
        weight=f,
        objective=objective,
        winners=[graph_of_code(n, code) for code, _ in ranked],
        value=top[0],
        examined=len(scored),
        skipped=len(graphs) - len(scored),
        elapsed=time.perf_counter() - start,
        winner_values=[rho for _, rho in ranked],
    )


def report_records(report):
    """Machine-readable rows: (canonical encoding, rho, family tag). Winners
    are canonical representatives, so ``graph_core.encoding`` reads each
    encoding off the winner's own labels, with no canonical search."""
    rows = []
    for G, rho in zip(report.winners, report.winner_values):
        spec = identify_pendant_free_bicyclic(G)
        rows.append((encoding(G), rho, str(spec) if spec else "-"))
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
    """Structured verification outcome: one CheckLine per instance checked."""

    theorem: str
    checks: list = field(default_factory=list)

    def add(self, ok, text):
        self.checks.append(CheckLine("PASS" if ok else "FAIL", text))

    def observe(self, text):
        self.checks.append(CheckLine("OBS", text))


def _balanced(kind, m, specs):
    """The string of the listed kind-type spec with lengths s, s, t and
    |s - t| <= 1, where an infty's equal pair are its cycles; BadParams when
    no listed spec of size m is balanced."""
    for sp in specs:
        p = sp.params
        if sp.kind == kind and max(p) - min(p) <= 1 and (kind == "theta" or p[0] == p[1]):
            return str(sp)
    raise BadParams(f"no balanced {kind}-type graph has {m} edges")


def _pendant_free_of_kind(kind, m):
    listed = enumerate_pendant_free_bicyclic(m - 1) if m > 4 else []
    specs = [sp for sp in listed if sp.kind == kind]
    if not specs:
        raise BadParams(f"no {kind}-type graph has {m} edges")
    return specs


def _min_specs(specs, f, where):
    """The strings of the family specs tied for the smallest rho_f."""
    _, ties = _best(_scored(specs, f, make), "min", where)
    return {str(sp) for *_, sp in ties}


def _each_winner(rep, f, n_values, class_name, objective, ok, label):
    """Search the class at every order in n_values and add one check per winner.

    ``label`` is formatted with f, class_name, n and rho (the extremal value).
    """
    for n in n_values:
        report = extremal(class_name, n, f, objective)
        text = label.format(f=f, class_name=class_name, n=n, rho=report.value)
        for G in report.winners:
            rep.add(ok(G), text)


def _check_theta_infty_equality(rep, f, s_values=(3, 4, 5), t_values=(2, 3, 4)):
    for s in s_values:
        for t in t_values:
            pair = [f_adjacency(make(FamilySpec(k, (s, s, t))), f) for k in ("theta", "infty")]
            rho, _, err = perron_values(np.stack(pair))
            theta, infty = zip(rho.tolist(), err.tolist())
            rep.add(
                _tied(theta, infty),
                f"{f} theta({s},{s},{t})={theta[0]:.9f} infty({s},{s},{t})={infty[0]:.9f}",
            )


def _check_base_graph_reduction(rep, f, n_values=(8,)):
    _each_winner(
        rep, f, n_values, "bicyclic", "min",
        lambda G: min(degrees(G)) >= 2,
        "{f} n={n}: min winner pendant-free (rho={rho:.6f})",
    )


def _check_type_minimal(kind, rep, f, m_values=(9,)):
    for m in m_values:
        specs = _pendant_free_of_kind(kind, m)
        expect = _balanced(kind, m, specs)
        winners = _min_specs(specs, f, f"the {kind}-type class at m={m}")
        rep.add(
            winners == {expect},
            f"{f} m={m}: min {kind}-type winners {sorted(winners)} expected [{expect}]",
        )


def _check_infty_star_domination(rep, f, m_values=(9,)):
    for m in m_values:
        if m < 9:
            raise BadParams("infty-star domination needs size >= 9")
        thetas = _scored(_pendant_free_of_kind("theta", m), f, make)
        theta, _ = _best(thetas, "min", f"the theta-type class at m={m}")
        for star in _scored(_pendant_free_of_kind("infty_star", m), f, make):
            l1, l2 = star[2].params
            rep.add(
                theta[0] < star[0] and not _tied(theta, star),
                f"{f} m={m}: best theta {theta[0]:.6f} < infty-star({l1},{l2}) {star[0]:.6f}",
            )


def _check_main_bicyclic(rep, f, n_values=(8,)):
    for n in n_values:
        if n < 8:
            raise BadParams("main theorem instances need order >= 8")
        specs = enumerate_pendant_free_bicyclic(n)
        expect = {_balanced(kind, n + 1, specs) for kind in ("theta", "infty")}
        winners = _min_specs(specs, f, f"class pendant_free_bicyclic at n={n}")
        rep.add(
            winners == expect,
            f"{f} n={n}: winners {sorted(winners)} expected {sorted(expect)}",
        )


def _check_forbidden_subgraphs(rep, f, class_names=tuple(EXCESS), n_values=(8,)):
    fixtures = forbidden_fixtures()
    for class_name in class_names:
        _each_winner(
            rep, f, n_values, class_name, "max",
            lambda G: not any(contains_induced(G, H) for H in fixtures),
            "{f} {class_name} n={n}: max winner avoids all six fixtures",
        )


def _check_max_unicyclic_base(rep, f, n_values=(8,)):
    _each_winner(
        rep, f, n_values, "unicyclic", "max",
        lambda G: base_graph(G).n == 3,
        "{f} n={n}: max unicyclic winner has base C3",
    )


def _check_max_bicyclic_base(rep, f, n_values=(8,)):
    targets = ("theta:1,2,2", "theta:2,2,2")
    _each_winner(
        rep, f, n_values, "bicyclic", "max",
        lambda G: str(identify_pendant_free_bicyclic(base_graph(G))) in targets,
        "{f} n={n}: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)",
    )


# The conjectured maximiser of each class at order n.
_CONJECTURED = {
    "trees": lambda n: FamilySpec("double_star", (math.ceil(n / 2), n // 2)),
    "unicyclic": lambda n: FamilySpec("c3_pendants", (math.ceil((n - 3) / 2), (n - 3) // 2, 0)),
    "bicyclic": lambda n: FamilySpec("theta122_pendants", (math.ceil((n - 4) / 2), (n - 4) // 2)),
}


def _check_conjecture_pstarstar(rep, f, class_names=tuple(EXCESS), n_values=(8,)):
    for class_name in class_names:
        for n in n_values:
            spec = _CONJECTURED[class_name](n)
            target = graph_of_code(*canonical_form(make(spec)))
            report = extremal(class_name, n, f, "max")
            match = target in report.winners
            rep.observe(
                f"{f} {class_name} n={n}: observed max "
                f"{'matches' if match else 'differs from'} conjectured {spec} "
                f"(rho={report.value:.6f})"
            )


# Named verifications, in the order the CLI lists them. Each check runs one
# weight over the ranges it names as keyword parameters and adds its lines.
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


def verify_theorem(theorem, weights, **ranges):
    """Run one named verification and return a TheoremReport.

    ``weights`` is a list of WeightSpec. ``ranges`` sets only ranges that
    the theorem's check names (its defaults fill the rest); any other is
    refused with BadParams before any work. Ranges are desk scale, and the
    class checks speak of trees, unicyclic and bicyclic graphs only.
    """
    check = _CHECKS.get(theorem)
    if check is None:
        raise BadParams(f"unknown theorem id {theorem!r}")
    # The check's parameters after those a partial binds, then rep and f.
    bound = len(getattr(check, "args", ()))
    code = getattr(check, "func", check).__code__
    reads = code.co_varnames[bound + 2:code.co_argcount]
    if not ranges.keys() <= set(reads):
        given = ", ".join(sorted(ranges))
        raise BadParams(f"theorem {theorem} reads {', '.join(reads)}; it was given {given}")
    for c in ranges.get("class_names", ()):
        if c not in EXCESS:
            raise BadParams(f"verify classes are trees, unicyclic and bicyclic, not {c!r}")
    rep = TheoremReport(theorem)
    for f in weights:
        check(rep, f, **ranges)
    return rep
