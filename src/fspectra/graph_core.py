"""Simple undirected graphs: representation, structural queries, isomorphism.

Vertices are integers 0..n-1. Graphs are immutable values; every transform
returns a new graph. Isomorphism has one mechanism, the integer code of
``canonical_code``: graphs of equal order are isomorphic iff their codes
are equal. The text exchange format is

    n m
    u v      (one line per edge, 0-based indices, any order)

and the parser rejects loops and duplicate edges.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import BadParams, Disconnected, EdgeNotFound, NoCycle, SizeLimit

CANONICAL_MAX_VERTICES = 12
INDUCED_MAX_VERTICES = 16
# Largest order read from a file or built from a family spec. Single-graph
# Perron solves run on the edge list, but stacks (``perron_values``) and
# spectra (``full_spectrum``, ``interlacing_check``) still take the dense
# n x n matrix of ``f_adjacency``, 32 MB at this order.
GRAPH_MAX_ORDER = 2000


class Graph:
    """Immutable simple undirected graph on n labeled vertices.

    ``edges`` holds each edge once as (u, v) with u < v. ``adj`` (each
    vertex's neighbours, ascending) and ``masks`` (each vertex's neighbour
    bits) are built on first access and then kept: a Perron solve reads
    ``edges`` only, so it builds neither.
    """

    __slots__ = ("n", "edges", "adj", "masks", "_hash")

    def __init__(self, n, edges=()):
        if n < 0:
            raise BadParams("vertex count must be >= 0")
        norm = set()
        for u, v in edges:
            if u == v:
                raise BadParams(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise BadParams(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(norm)
        self._hash = hash((n, self.edges))

    def __getattr__(self, name):
        # Python calls this only where normal lookup fails: for ``adj`` and
        # ``masks``, until their slots are set here.
        if name == "adj":
            # In sorted edge order each list gets its smaller neighbours,
            # then its larger ones, each ascending.
            lists = [[] for _ in range(self.n)]
            for u, v in sorted(self.edges):
                lists[u].append(v)
                lists[v].append(u)
            self.adj = tuple(map(tuple, lists))
            return self.adj
        if name == "masks":
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self.masks = tuple(masks)
            return self.masks
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def m(self):
        return len(self.edges)

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self):
        return sorted(self.edges)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


@dataclass(frozen=True)
class InternalPath:
    """A maximal path whose endpoints have degree >= 3 and interior degree 2.

    ``vertices`` lists v_0 .. v_l in order; ``closed`` means v_0 == v_l (the
    path wraps a cycle hanging at a single branch vertex).
    """

    vertices: tuple
    closed: bool

    @property
    def length(self):
        return len(self.vertices) - 1

    def edge_sequence(self):
        vs = self.vertices
        return [(min(a, b), max(a, b)) for a, b in zip(vs, vs[1:])]


def degrees(G):
    """Degree of every vertex, indexed by vertex, counted off the edge set
    so that G's adjacency lists need not be built."""
    deg = [0] * G.n
    for u, v in G.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def is_connected(G):
    if G.n <= 1:
        return True
    seen = 1
    stack = [0]
    seen_count = 1
    while stack:
        v = stack.pop()
        for u in G.adj[v]:
            if not (seen >> u) & 1:
                seen |= 1 << u
                seen_count += 1
                stack.append(u)
    return seen_count == G.n


def base_graph(G):
    """Strip pendant vertices repeatedly; relabel the survivors 0..k-1.

    The result is the unique minimal subgraph with the same cyclomatic
    number and minimum degree >= 2; applying base_graph twice equals
    applying it once.
    """
    if not is_connected(G):
        raise Disconnected("base graph needs a connected graph")
    if G.m < G.n:
        raise NoCycle("a tree has no base graph")
    deg = degrees(G)
    alive = [True] * G.n
    queue = [v for v in range(G.n) if deg[v] == 1]
    while queue:
        v = queue.pop()
        alive[v] = False
        for u in G.adj[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] == 1:
                    queue.append(u)
    kept = [v for v in range(G.n) if alive[v]]
    relabel = {v: i for i, v in enumerate(kept)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in G.edges
        if alive[u] and alive[v]
    ]
    return Graph(len(kept), edges)


def internal_paths(G):
    """All maximal internal paths of G, including closed ones.

    Open paths are oriented from their smaller endpoint; closed paths start
    and end at their branch vertex with the lexicographically smaller
    traversal direction. Returns an empty list when no vertex has degree 3+.
    """
    if not is_connected(G):
        raise Disconnected("internal paths need a connected graph")
    deg = degrees(G)
    seen = set()  # (start, first step) of the reverse of each path listed
    out = []
    for v0 in range(G.n):
        if deg[v0] < 3:
            continue
        for w in G.adj[v0]:
            if (v0, w) in seen:
                continue
            seq = [v0, w]
            while deg[seq[-1]] == 2:
                a, b = G.adj[seq[-1]]
                seq.append(a if a != seq[-2] else b)
            if deg[seq[-1]] < 3:
                continue  # pendant chain, not an internal path
            seen.add((seq[-1], seq[-2]))
            closed = seq[0] == seq[-1]
            tup = tuple(seq)
            rev = tuple(reversed(seq))
            if closed:
                tup = min(tup, rev)
            elif tup[-1] < tup[0]:
                tup = rev
            out.append(InternalPath(tup, closed))
    out.sort(key=lambda p: (p.length, p.vertices))
    return out


def fundamental_cycles(G):
    """Vertex sequences of a fundamental cycle basis (BFS tree + chords).

    Each cycle is returned as [v0, v1, ..., v0]. Raises Disconnected for
    disconnected input; returns [] for trees.
    """
    parent = [-1] * G.n
    depth = [0] * G.n
    order = [0]
    seen = {0}
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for u in G.adj[v]:
            if u not in seen:
                seen.add(u)
                parent[u] = v
                depth[u] = depth[v] + 1
                order.append(u)
    if len(order) < G.n:
        raise Disconnected("cycle basis needs a connected graph")
    tree = set()
    for v in range(G.n):
        if parent[v] >= 0:
            tree.add((min(v, parent[v]), max(v, parent[v])))
    cycles = []
    for u, v in sorted(G.edges):
        if (u, v) in tree:
            continue
        pa, pb = u, v
        left, right = [pa], [pb]
        while depth[pa] > depth[pb]:
            pa = parent[pa]
            left.append(pa)
        while depth[pb] > depth[pa]:
            pb = parent[pb]
            right.append(pb)
        while pa != pb:
            pa, pb = parent[pa], parent[pb]
            left.append(pa)
            right.append(pb)
        cycles.append(left + list(reversed(right[:-1])) + [u])
    return cycles


def contains_induced(G, H):
    """True iff some vertex subset of G induces a graph isomorphic to H.

    Each |H|-subset's induced lists and masks are read off ``G.masks``, with
    no ``Graph`` built; one whose sorted degrees match H's is compared with
    H by canonical code. H may have at most CANONICAL_MAX_VERTICES vertices.
    """
    if G.n > INDUCED_MAX_VERTICES:
        raise SizeLimit(
            f"induced-subgraph search supports at most {INDUCED_MAX_VERTICES} vertices"
        )
    if H.n > G.n:
        return False
    target = canonical_code(H.n, H.adj, H.masks)
    target_deg = sorted(map(len, H.adj))
    for subset in combinations(range(G.n), H.n):
        inside = sum(1 << v for v in subset)
        rows = [G.masks[v] & inside for v in subset]
        if sorted(r.bit_count() for r in rows) != target_deg:
            continue
        adj = [[j for j, u in enumerate(subset) if r >> u & 1] for r in rows]
        if canonical_code(H.n, adj, [sum(1 << j for j in a) for a in adj]) == target:
            return True
    return False


def _refine(n, adj):
    """Iteratively refined vertex colours of the graph with lists ``adj``.

    Colours start as degree ranks; each round ranks the pairs (colour,
    sorted neighbour colours). A round that splits no cell would give every
    vertex its old id again, so refinement stops there. Colour ids are
    iso-invariant.
    """
    palette = {d: i for i, d in enumerate(sorted({len(a) for a in adj}))}
    colors = [palette[len(a)] for a in adj]
    cells = len(palette)
    while cells < n:
        get = colors.__getitem__
        sigs = [(c, tuple(sorted(map(get, a)))) for c, a in zip(colors, adj)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(palette) == cells:
            break
        colors = [palette[s] for s in sigs]
        cells = len(palette)
    return colors


def twins(masks):
    """Map each vertex to the smallest vertex of its twin class, given each
    vertex's neighbourhood mask.

    u and v are twins when they have the same open neighbourhood or the
    same closed one. An open mask never equals another vertex's closed one,
    so both kinds share one dict, no vertex has both kinds of twin, the
    classes partition the vertices, and every permutation inside a class is
    an automorphism of the graph.
    """
    rep = list(range(len(masks)))
    first = {}
    for v, mask in enumerate(masks):
        closed = mask | 1 << v
        if mask in first:
            rep[v] = first[mask]
        elif closed in first:
            rep[v] = first[closed]
        else:
            first[mask] = first[closed] = v
    return rep


def canonical_code(n, adj, masks):
    """Canonical code of the graph with adjacency lists ``adj`` and masks.

    The code is the lexicographically largest column-major upper-triangle
    adjacency bitstring, read as an int with its first bit most significant,
    over all vertex orderings compatible with the refined colour classes.
    Equal codes of equal order mean isomorphic graphs. Found by branch and
    bound over those orderings; at each position the search tries one
    unused vertex per twin class, since swapping two unused twins fixes the
    prefix and so leaves the subtree's bitstrings unchanged. A candidate's
    column is read from its own adjacency list: ``bit[u]`` is 1 << (n - 1 -
    position of u) for an assigned u and 0 otherwise, so the sum over the
    candidate's neighbours, shifted right by n - p, is its column against
    the first p positions. Assigning or releasing a position touches one
    entry. Supports n <= 12.
    """
    if n > CANONICAL_MAX_VERTICES:
        raise SizeLimit(f"canonical form supports at most {CANONICAL_MAX_VERTICES} vertices")
    colors = _refine(n, adj)
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    cells = [by_color[c] for c in sorted(by_color) for _ in by_color[c]]
    rep = twins(masks)
    total = n * (n - 1) // 2
    bit = [0] * n  # also the used flags: an assigned vertex has a nonzero bit
    get = bit.__getitem__
    best = -1

    def dfs(p, code):
        nonlocal best
        if p == n:
            best = max(best, code)
            return
        rest = total - p * (p + 1) // 2  # bits after this position's column
        shift = n - p
        cands = []
        tried = set()
        for v in cells[p]:
            if bit[v] or rep[v] in tried:
                continue
            tried.add(rep[v])
            cands.append((sum(map(get, adj[v])) >> shift, v))
        cands.sort(reverse=True)
        for col, v in cands:
            # Recompare against best on every child: a sibling's subtree may
            # have raised it. Candidates are sorted descending, so the first
            # prefix below best's ends the loop.
            prefix = code << p | col
            if prefix < best >> rest:
                break
            bit[v] = 1 << shift - 1
            dfs(p + 1, prefix)
            bit[v] = 0

    dfs(0, 0)
    return best


def graph_of_code(n, code):
    """The canonically labeled graph of order n with the given code."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph(n, [e for k, e in enumerate(reversed(pairs)) if code >> k & 1])


def canonical_form(G):
    """Canonical key (n, ``canonical_code`` of G); equal keys iff the graphs
    are isomorphic. Supports n <= 12."""
    return (G.n, canonical_code(G.n, G.adj, G.masks))


def encoding(G):
    """The text ``n:bits`` of G under its own labels: its column-major
    upper-triangle adjacency bits, first bit first. For a canonically
    labeled graph the bits are its canonical code in binary."""
    return f"{G.n}:" + "".join("01"[m >> i & 1] for j, m in enumerate(G.masks) for i in range(j))


def parse_graph_text(text):
    """Parse the `n m` / edge-list text format; rejects loops and duplicates."""
    tokens = text.split()
    if len(tokens) < 2:
        raise BadParams("graph text must start with 'n m'")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise BadParams("graph header must be two integers") from None
    if n > GRAPH_MAX_ORDER:
        raise SizeLimit(f"graphs support order <= {GRAPH_MAX_ORDER}, got {n}")
    body = tokens[2:]
    if len(body) != 2 * m:
        raise BadParams(f"expected {2 * m} edge endpoints, found {len(body)}")
    edges = []
    seen = set()
    for k in range(m):
        try:
            u, v = int(body[2 * k]), int(body[2 * k + 1])
        except ValueError:
            raise BadParams(f"bad edge tokens {body[2 * k]!r} {body[2 * k + 1]!r}") from None
        if u == v:
            raise BadParams(f"loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise BadParams(f"duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


def format_graph_text(G):
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.sorted_edges())
    return "\n".join(lines) + "\n"


def read_graph_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def write_graph_file(G, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(G))


def subdivided(G, e):
    """G with edge e = (u, v) replaced by u-w, w-v for a fresh vertex w."""
    u, v = e
    key = (min(u, v), max(u, v))
    if key not in G.edges:
        raise EdgeNotFound(f"edge {key} not in graph")
    w = G.n
    edges = [x for x in G.edges if x != key]
    edges.extend([(key[0], w), (key[1], w)])
    return Graph(G.n + 1, edges)
