"""Shared test utilities: random graphs and brute-force oracles.

The oracles here are deliberately naive (whole-permutation-group searches,
full subset scans) so they stay independent of the library's optimized
implementations.
"""

from itertools import combinations, permutations, product

from fspectra.graph_core import Graph, _refine, canonical_code


def random_connected_graph(rng, n, extra_edges=0):
    """Random spanning tree plus extra random edges; always connected."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[:extra_edges])
    return Graph(n, edges)


def relabeled(G, perm):
    """Copy of G with vertex v renamed perm[v]."""
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def induced_subgraph(G, vertices):
    """Induced subgraph on the given vertices, relabeled by position."""
    vertices = tuple(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    return Graph(len(vertices), [(pos[u], pos[v]) for u, v in G.edges if u in pos and v in pos])


def brute_canonical(G):
    """Min edge-set encoding over all n! permutations. Oracle only."""
    best = None
    for perm in permutations(range(G.n)):
        enc = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in G.edges
        ))
        if best is None or enc < best:
            best = enc
    return (G.n, best)


def bits_in_order(G, order):
    """Column-major upper-triangle adjacency bits of G listed in ``order``."""
    return tuple(
        int(G.has_edge(order[i], order[j])) for j in range(1, G.n) for i in range(j)
    )


def brute_canonical_code(n, adj):
    """``canonical_code(n, adj, masks)`` by exhaustive search.

    Takes adjacency lists in any order, of any graph, connected or not.
    The code is the largest column-major upper-triangle bitstring, read as
    an int with its first bit most significant, over every vertex ordering
    compatible with the refined colour cells. No pruning of any kind.
    Oracle only; fine for n <= 7.
    """
    colors = _refine(n, adj)
    classes = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
    neighbours = [set(a) for a in adj]
    best = 0
    for parts in product(*(permutations(cls) for cls in classes)):
        order = [v for part in parts for v in part]
        code = 0
        for j in range(1, n):
            for i in range(j):
                code = code << 1 | (order[i] in neighbours[order[j]])
        best = max(best, code)
    return best


def brute_twins(G):
    """Smallest vertex with the same open or closed neighbourhood, by scan."""
    def nbhd(v, closed):
        return frozenset(G.adj[v]) | ({v} if closed else set())
    return [
        next(
            u for u in range(G.n)
            if nbhd(u, False) == nbhd(v, False) or nbhd(u, True) == nbhd(v, True)
        )
        for v in range(G.n)
    ]


def brute_automorphisms(G):
    """Every vertex permutation that maps G's edge set onto itself, as a
    tuple of images, by scanning all n! permutations. Fine for n <= 8."""
    return {
        perm
        for perm in permutations(range(G.n))
        if all(G.has_edge(perm[u], perm[v]) for u, v in G.edges)
    }


def grown_codes(graphs):
    """Canonical codes of every graph G + e, for G in ``graphs`` and e any
    pair not an edge of G: grow-and-dedup with no pruning and no keep rule.
    Codes come from the library kernel, which the brute oracles above
    check on their own."""
    codes = set()
    for G in graphs:
        for u, v in combinations(range(G.n), 2):
            if not G.has_edge(u, v):
                H = Graph(G.n, G.edges | {(u, v)})
                codes.add(canonical_code(H.n, H.adj, H.masks))
    return codes


def complete_multipartite(*parts):
    """K_{parts[0], parts[1], ...}: vertices in different parts are adjacent."""
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(side)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]])


def brute_is_isomorphic(G, H):
    if G.n != H.n or G.m != H.m:
        return False
    return brute_canonical(G) == brute_canonical(H)


def brute_contains_induced(G, H):
    """Subset-and-permutation scan. Oracle only; fine for n <= 7 hosts."""
    if H.n > G.n:
        return False
    h_edges = H.edges
    for subset in combinations(range(G.n), H.n):
        sub_edges = frozenset(
            (min(a, b), max(a, b))
            for a, b in combinations(subset, 2)
            if G.has_edge(a, b)
        )
        if len(sub_edges) != len(h_edges):
            continue
        pos = {v: i for i, v in enumerate(subset)}
        rel = Graph(H.n, [(pos[a], pos[b]) for a, b in sub_edges])
        if brute_is_isomorphic(rel, H):
            return True
    return False


def brute_connected_classes(n, m):
    """One graph per isomorphism class of connected n-vertex m-edge graphs.

    Scans every m-subset of the n*(n-1)/2 possible edges in order. The first
    connected subset of each class not yet seen is its representative, and
    all n! relabelings of it are then marked seen, so the rest of its orbit
    is skipped. Usable for n <= 7.
    """
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    perms = list(permutations(range(n)))
    seen = set()
    classes = []
    for chosen in combinations(all_pairs, m):
        if chosen in seen or not _connected(n, chosen):
            continue
        classes.append(Graph(n, chosen))
        for perm in perms:
            seen.add(tuple(sorted(
                (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
                for u, v in chosen
            )))
    return classes


def _connected(n, edges):
    """Whether the edges span vertices 0..n-1 as one component (union-find)."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    parts = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            parts -= 1
    return parts == 1


def family_corpus(max_n=10):
    """A spread of named-family graphs with 3 <= n <= max_n.

    Contains paths, cycles, stars, stars-plus-edge, double stars, pendant
    triangles and squares, pendant theta(1,2,2), every pendant-free
    bicyclic shape, and the two fixed five-vertex fixtures.
    """
    from fspectra.families import FamilySpec, make
    from fspectra.search import enumerate_pendant_free_bicyclic

    out = []
    for n in range(3, max_n + 1):
        out.append(make(FamilySpec("path", (n,))))
        out.append(make(FamilySpec("cycle", (n,))))
        out.append(make(FamilySpec("star", (n,))))
        out.append(make(FamilySpec("sn_plus_e", (n,))))
        out.append(make(FamilySpec("double_star", ((n + 1) // 2, n // 2))))
        if n >= 4:
            out.append(make(FamilySpec("c3_pendants", ((n - 2) // 2, (n - 3) // 2, 0))))
            out.append(make(FamilySpec("theta122_pendants", ((n - 3) // 2, (n - 4) // 2))))
            out.extend(make(s) for s in enumerate_pendant_free_bicyclic(n))
        if n >= 5:
            out.append(make(FamilySpec("c4_pendants", (n - 4, 0, 0, 0))))
    out.append(make(FamilySpec("c3_dot_p3")))
    out.append(make(FamilySpec("k5_minus_p4")))
    return out


def core_branches(adjacent):
    """The vertices with at least three neighbours in the 2-core, the graph
    left once vertices of at most one remaining neighbour are removed, one
    at a time until none is left. ``adjacent`` lists each vertex's
    neighbours as a set and is not changed."""
    left = {v: set(near) for v, near in enumerate(adjacent)}
    while stripped := [v for v, near in left.items() if len(near) <= 1]:
        for v in stripped:
            for a in left.pop(v):
                left[a].discard(v)
    return sorted(v for v, near in left.items() if len(near) >= 3)


def peeled_kernel(adjacent, root):
    """The vertices left by removing, first in first out, every vertex with
    at most two neighbours that is not kept, each removal joining its
    neighbours: the kernel of a series reduction, one vertex at a time. The
    kept vertices are the 2-core's branch vertices (``core_branches``) if
    ``root`` is one of them, else ``root`` alone. ``adjacent`` lists each
    vertex's neighbours as a set and is consumed."""
    branches = core_branches(adjacent)
    kept = set(branches) if root in branches else {root}
    queue = [v for v, near in enumerate(adjacent) if v not in kept and len(near) <= 2]
    queued = set(queue)
    for v in queue:
        near = adjacent[v]
        for a in near:
            adjacent[a].discard(v)
            adjacent[a].update(near - {a})
            if a not in kept and a not in queued and len(adjacent[a]) <= 2:
                queued.add(a)
                queue.append(a)
    return [v for v in range(len(adjacent)) if v not in queued]


def eager_lists(G):
    """Adjacency lists and neighbour masks of G, built eagerly: one pass
    over the edges, then each list sorted."""
    lists = [[] for _ in range(G.n)]
    masks = [0] * G.n
    for u, v in G.edges:
        lists[u].append(v)
        lists[v].append(u)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(tuple(sorted(a)) for a in lists), tuple(masks)


def dict_principal(G, f):
    """(alpha, principal incidence) as an ``IncidenceWeights`` built from a
    (vertex, edge) mapping, one ``eval_weight`` call per edge. Reference for
    ``luman._principal``."""
    from fspectra.graph_core import degrees
    from fspectra.luman import IncidenceWeights, _alpha
    from fspectra.spectral import f_spectral_radius
    from fspectra.weights import eval_weight

    res = f_spectral_radius(G, f)
    x, degs, values = res.vector, degrees(G), {}
    for u, v in G.edges:
        w = eval_weight(f, degs[u], degs[v])
        values[(u, (u, v))] = w * x[v] / (res.rho * x[u])
        values[(v, (u, v))] = w * x[u] / (res.rho * x[v])
    return _alpha(res.rho), IncidenceWeights(G, values)


def dict_classify(G, f, B, alpha, tol=1e-8, weight_overrides=None):
    """``luman.classify_normality`` read value by value through ``B.value``
    and summed in Python floats, in sorted edge order. Reference only."""
    import math

    from fspectra.graph_core import degrees, fundamental_cycles
    from fspectra.luman import NormalityReport
    from fspectra.weights import eval_weight

    degs = degrees(G)
    overrides = {(min(a, b), max(a, b)): float(w) for (a, b), w in (weight_overrides or {}).items()}
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

    def consistent(cycle):
        log_product = 0.0
        for a, b in zip(cycle, cycle[1:]):
            e = (min(a, b), max(a, b))
            num, den = B.value(b, e), B.value(a, e)
            if num <= 0.0 or den <= 0.0:
                return False
            log_product += math.log(num) - math.log(den)
        return abs(math.expm1(log_product)) <= tol

    return NormalityReport(alpha, classification, all(map(consistent, fundamental_cycles(G))), tol,
                           vertex_slack, edge_slack, B)


def recurrence_residual(ctx, p, q, window):
    """The largest |x_n - (1 - alpha'/x_{n-1})| for n in -window..window, with
    x_n = F_theta(p + q - 2n) from the FThetaContext ``ctx``. F_theta maps
    into (0, 1), so no x_n is zero."""
    F = ctx.f_theta
    return max(abs(F(p + q - 2 * n) - (1.0 - ctx.alpha_prime / F(p + q - 2 * n + 2)))
               for n in range(-window, window + 1))


def shift_margin(F, a, b):
    """F(a) + F(-b) - F(a - b) - F(0), which is >= 0 for a >= b >= 0."""
    return F(a) + F(-b) - F(a - b) - F(0)


def doubling_margin(F, x):
    """4 F(2x) - 3 F(x), which is > 0 for x >= 3 when theta > 0."""
    return 4.0 * F(2 * x) - 3.0 * F(x)
