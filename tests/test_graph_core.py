"""Tests for the graph representation and structural queries."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fspectra import graph_core
from fspectra.errors import BadParams, Disconnected, NoCycle, SizeLimit
from fspectra.families import FamilySpec, forbidden_fixtures, make, parse_family
from fspectra.graph_core import (
    GRAPH_MAX_ORDER,
    Graph,
    base_graph,
    canonical_code,
    canonical_form,
    contains_induced,
    degrees,
    encoding,
    format_graph_text,
    fundamental_cycles,
    graph_of_code,
    internal_paths,
    is_connected,
    parse_graph_text,
    twins,
)
from helpers import (
    bits_in_order,
    brute_canonical_code,
    brute_contains_induced,
    brute_is_isomorphic,
    brute_twins,
    complete_multipartite,
    eager_lists,
    random_connected_graph,
    relabeled,
)


def test_graph_rejects_loops_and_out_of_range():
    with pytest.raises(BadParams):
        Graph(3, [(0, 0)])
    with pytest.raises(BadParams):
        Graph(3, [(0, 3)])


def test_degrees_examples():
    assert degrees(make(FamilySpec("path", (3,)))) == [1, 2, 1]
    assert sorted(degrees(make(parse_family("theta:2,2,2")))) == [2, 2, 2, 3, 3]
    assert sorted(degrees(make(parse_family("infty-star:3,3")))) == [2, 2, 2, 2, 4]


def test_degree_sum_is_twice_edges():
    rng = random.Random(4021)
    for _ in range(50):
        G = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 5))
        assert sum(degrees(G)) == 2 * G.m


def test_cyclomatic_examples():
    tree = make(FamilySpec("star", (7,)))
    c9 = make(FamilySpec("cycle", (9,)))
    t333 = make(parse_family("theta:3,3,3"))
    assert (t333.n, t333.m) == (8, 9)
    for G, cyclomatic in ((tree, 0), (c9, 1), (t333, 2)):
        assert is_connected(G)
        assert G.m - G.n + 1 == cyclomatic


def test_base_graph_examples():
    c3 = canonical_form(make(FamilySpec("cycle", (3,))))
    assert canonical_form(base_graph(make(FamilySpec("c3_dot_p3")))) == c3
    # a pendant-free graph passes through unchanged
    t222 = make(parse_family("theta:2,2,2"))
    assert base_graph(t222) == t222
    assert canonical_form(base_graph(make(parse_family("c3:2,1,0")))) == c3


def test_base_graph_idempotent():
    rng = random.Random(555)
    for _ in range(40):
        G = random_connected_graph(rng, rng.randint(4, 9), rng.randint(1, 3))
        B = base_graph(G)
        assert base_graph(B) == B
        assert min(degrees(B)) >= 2


def test_base_graph_tree_raises():
    with pytest.raises(NoCycle):
        base_graph(make(FamilySpec("path", (5,))))


def test_internal_paths_theta222():
    paths = internal_paths(make(parse_family("theta:2,2,2")))
    assert len(paths) == 3
    assert all(not p.closed and p.length == 2 for p in paths)
    assert all(p.vertices[0] == 0 and p.vertices[-1] == 1 for p in paths)


def test_internal_paths_infty_star():
    paths = internal_paths(make(parse_family("infty-star:3,3")))
    assert len(paths) == 2
    assert all(p.closed and p.length == 3 for p in paths)
    assert all(p.vertices[0] == p.vertices[-1] == 0 for p in paths)


def test_internal_paths_path_graph_empty():
    assert internal_paths(make(FamilySpec("path", (7,)))) == []


def test_internal_paths_cover_degree_two_vertices():
    # In a pendant-free base with a branch vertex, every degree-2 vertex
    # lies on exactly one maximal internal path.
    for spec in ["theta:2,3,4", "infty:3,4,2", "infty-star:4,5", "theta:1,2,2"]:
        G = make(parse_family(spec))
        paths = internal_paths(G)
        count = {v: 0 for v, d in enumerate(degrees(G)) if d == 2}
        for p in paths:
            interior = p.vertices[1:-1] if not p.closed else p.vertices[1:-1]
            for v in interior:
                count[v] += 1
        assert all(c == 1 for c in count.values()), (spec, count)


def test_length_one_internal_path():
    G = make(parse_family("theta:1,2,2"))
    lens = sorted(p.length for p in internal_paths(G))
    assert lens == [1, 2, 2]


def test_fundamental_cycles():
    G = make(parse_family("theta:2,3,4"))
    cycles = fundamental_cycles(G)
    assert len(cycles) == G.m - G.n + 1
    for cyc in cycles:
        assert cyc[0] == cyc[-1]
        for a, b in zip(cyc, cyc[1:]):
            assert G.has_edge(a, b)


def test_fundamental_cycles_refuse_a_disconnected_graph_from_their_own_search(monkeypatch):
    monkeypatch.setattr(graph_core, "is_connected", None)  # not called
    with pytest.raises(Disconnected):
        fundamental_cycles(Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]))
    assert fundamental_cycles(Graph(3, [(0, 1), (1, 2), (2, 0)])) == [[1, 0, 2, 1]]


@pytest.mark.parametrize("seed", range(4))
def test_lazy_lists_and_masks_equal_an_eager_build(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 40)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.random()]
        G = Graph(n, rng.sample(edges, len(edges)))
        H = Graph(n, edges)
        adj, masks = eager_lists(G)
        assert (G.adj, G.masks) == (adj, masks)
        assert (H.masks, H.adj) == (masks, adj)  # masks first, read off the edges alone


def built(G):
    """The lazily built fields that G holds so far, read from their slots
    without going through ``Graph.__getattr__``."""
    names = []
    for name in ("adj", "masks"):
        try:
            getattr(Graph, name).__get__(G)
        except AttributeError:
            continue
        names.append(name)
    return names


def test_solves_and_matrices_build_no_adjacency(monkeypatch):
    from fspectra.spectral import f_adjacency, f_spectral_radius
    from fspectra.weights import parse_weight

    asked = []
    build = Graph.__getattr__
    monkeypatch.setattr(Graph, "__getattr__", lambda G, name: asked.append(name) or build(G, name))
    G = make(parse_family("path:242"))
    f_spectral_radius(G, parse_weight("sombor"))
    f_adjacency(G, parse_weight("zagreb1"))
    assert (asked, built(G)) == ([], [])
    assert G.adj[0] == (1,) and G.masks[1] == 0b101
    assert (asked, built(G)) == (["adj", "masks"], ["adj", "masks"])


def test_contains_induced_examples():
    c6 = make(FamilySpec("cycle", (6,)))
    p5 = make(FamilySpec("path", (5,)))
    assert contains_induced(c6, p5)
    assert not contains_induced(make(parse_family("theta:1,2,2")), p5)
    inf331 = make(parse_family("infty:3,3,1"))
    c3p3 = make(FamilySpec("c3_dot_p3"))
    assert contains_induced(inf331, c3p3)
    assert brute_contains_induced(inf331, c3p3)


def test_contains_induced_self_and_size():
    G = make(parse_family("theta:2,2,2"))
    assert contains_induced(G, G)
    bigger = make(FamilySpec("cycle", (7,)))
    assert not contains_induced(G, bigger)


def test_contains_induced_matches_oracle():
    rng = random.Random(97)
    cases = []
    for _ in range(30):
        G = random_connected_graph(rng, rng.randint(4, 7), rng.randint(0, 4))
        H = random_connected_graph(rng, rng.randint(2, 4), rng.randint(0, 2))
        cases.append((G, H))
    # H of order 0, disconnected H, and the six 5-vertex fixtures, on
    # connected hosts and on random hosts that may be disconnected.
    patterns = [
        Graph(0),
        Graph(3),
        Graph(4, [(0, 1), (2, 3)]),
        Graph(5, [(0, 1), (1, 2), (3, 4)]),
        *forbidden_fixtures(),
    ]
    for _ in range(20):
        n = rng.randint(5, 7)
        p = rng.random()
        hosts = (
            random_connected_graph(rng, n, rng.randint(0, 4)),
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]),
        )
        cases.extend((G, H) for G in hosts for H in patterns)
    for G, H in cases:
        assert contains_induced(G, H) == brute_contains_induced(G, H), (G, H)


def test_contains_induced_size_limit():
    big = make(FamilySpec("path", (17,)))
    with pytest.raises(SizeLimit):
        contains_induced(big, make(FamilySpec("path", (3,))))


def test_canonical_form_cycle_relabelings():
    c5 = make(FamilySpec("cycle", (5,)))
    shuffled = relabeled(c5, [3, 0, 4, 1, 2])
    assert canonical_form(c5) == canonical_form(shuffled)


def test_canonical_form_distinguishes():
    p4 = make(FamilySpec("path", (4,)))
    s4 = make(FamilySpec("star", (4,)))
    assert canonical_form(p4) != canonical_form(s4)
    t123 = make(parse_family("theta:1,2,3"))
    is33 = make(parse_family("infty-star:3,3"))
    assert canonical_form(t123) != canonical_form(is33)
    assert not brute_is_isomorphic(t123, is33)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_form_relabel_invariant(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    seed = data.draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = random.Random(seed)
    G = random_connected_graph(rng, n, rng.randint(0, n))
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(G) == canonical_form(relabeled(G, list(perm)))


def test_canonical_form_agrees_with_oracle():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(2, 6)
        G = random_connected_graph(rng, n, rng.randint(0, 3))
        H = random_connected_graph(rng, n, rng.randint(0, 3))
        assert (canonical_form(G) == canonical_form(H)) == brute_is_isomorphic(G, H)


def _twin_heavy_corpus():
    """Graphs on n <= 7 vertices with many twins, plus random ones."""
    out = [Graph(n, []) for n in range(1, 8)]
    for n in range(2, 8):
        out.append(complete_multipartite(*[1] * n))
        out.append(make(FamilySpec("star", (n,))))
    for a in range(1, 4):
        for b in range(a, 7 - a):
            out.append(complete_multipartite(a, b))
            out.append(make(FamilySpec("double_star", (b + 1, a + 1))))
    for parts in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (1, 1, 1, 3)]:
        out.append(complete_multipartite(*parts))
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 7)
        p = rng.random()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        out.append(Graph(n, [e for e in pairs if rng.random() < p]))
    return out


def test_canonical_form_matches_brute_force_encoding():
    for G in _twin_heavy_corpus():
        assert canonical_form(G) == (G.n, brute_canonical_code(G.n, G.adj)), G


def test_canonical_code_matches_brute_force_on_any_graph():
    # Enumeration hands the kernel only sparse connected graphs; this covers
    # dense and disconnected ones too, with adjacency lists in shuffled order.
    rng = random.Random(4711)
    graphs = [
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),  # 2 K_3
        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]),  # C_4 + K_2 + K_1
        complete_multipartite(*[1] * 7),
    ]
    for _ in range(120):
        n = rng.randint(1, 7)
        p = rng.choice((0.2, 0.4, 0.7, 0.9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(Graph(n, [e for e in pairs if rng.random() < p]))
    assert sum(G.n >= 4 and not is_connected(G) for G in graphs) >= 20
    # at least three quarters of all pairs joined, on five or more vertices
    assert sum(G.n >= 5 and 4 * G.m >= 3 * G.n * (G.n - 1) // 2 for G in graphs) >= 10
    for G in graphs:
        adj = [tuple(rng.sample(a, len(a))) for a in G.adj]
        assert canonical_code(G.n, adj, G.masks) == brute_canonical_code(G.n, adj), G


def test_twins_examples():
    assert twins(complete_multipartite(1, 1, 1, 1).masks) == [0, 0, 0, 0]  # K_4, closed twins
    assert twins(Graph(3, []).masks) == [0, 0, 0]  # isolated vertices, open twins
    assert twins(make(FamilySpec("star", (5,))).masks) == [0, 1, 1, 1, 1]
    assert twins(make(FamilySpec("path", (4,))).masks) == [0, 1, 2, 3]
    assert twins(make(FamilySpec("cycle", (4,))).masks) == [0, 1, 0, 1]
    assert twins(complete_multipartite(2, 3).masks) == [0, 0, 2, 2, 2]
    # vertices 0,1 are open twins and 2,3 closed twins in the same graph
    assert twins(Graph(5, [(0, 4), (1, 4), (2, 3), (2, 4), (3, 4)]).masks) == [0, 0, 2, 2, 4]


def test_twins_match_scan_and_give_automorphisms():
    for G in _twin_heavy_corpus():
        rep = twins(G.masks)
        assert rep == brute_twins(G), G
        for v in range(G.n):
            swap = list(range(G.n))
            swap[v], swap[rep[v]] = rep[v], v
            assert relabeled(G, swap) == G


def test_canonical_form_symmetric_graphs_at_size_limit():
    # Twin pruning keeps these at a few DFS nodes; a search over every
    # ordering of interchangeable vertices grows factorially (K_9 alone
    # took about 2 s that way).
    n = 12
    pairs = n * (n - 1) // 2
    assert canonical_form(complete_multipartite(*[1] * n)) == (n, (1 << pairs) - 1)
    assert canonical_form(Graph(n, [])) == (n, 0)
    # star: the leaves (lower degree, so first colour) then the centre
    star = make(FamilySpec("star", (n,)))
    assert canonical_form(star) == (n, (1 << (n - 1)) - 1)
    # K_{6,6}: one vertex of side A, then all of side B, then the rest of A
    k66 = complete_multipartite(6, 6)
    best = [0] + list(range(6, 12)) + list(range(1, 6))
    assert canonical_form(k66) == (n, int("".join(map(str, bits_in_order(k66, best))), 2))
    assert canonical_form(relabeled(k66, [(7 * v) % n for v in range(n)])) == canonical_form(k66)


def test_canonical_relabel_is_isomorphic_fixed_point():
    rng = random.Random(88)
    for _ in range(20):
        G = random_connected_graph(rng, rng.randint(3, 8), rng.randint(0, 4))
        R = graph_of_code(G.n, canonical_code(G.n, G.adj, G.masks))
        assert canonical_form(R) == canonical_form(G)
        assert graph_of_code(R.n, canonical_code(R.n, R.adj, R.masks)) == R


def test_canonical_code_is_the_form_as_an_int():
    # Growth hands the kernel adjacency lists in insertion order, not
    # sorted; the code must not depend on that order.
    rng = random.Random(12)
    for _ in range(40):
        G = random_connected_graph(rng, rng.randint(1, 9), rng.randint(0, 6))
        adj = [tuple(rng.sample(a, len(a))) for a in G.adj]
        code = canonical_code(G.n, adj, G.masks)
        assert canonical_form(G) == (G.n, code)
        assert canonical_form(graph_of_code(G.n, code)) == (G.n, code)
    assert canonical_code(0, [], []) == 0
    # graph_of_code and encoding are inverse on any code, canonical or not;
    # orders 0 and 1 have no pairs, so their bit string is empty.
    for n in range(13):
        width = n * (n - 1) // 2
        for c in {0, (1 << width) - 1, rng.getrandbits(width)}:
            bits = f"{c:0{width}b}" if width else ""
            assert encoding(graph_of_code(n, c)) == f"{n}:{bits}"


def test_canonical_form_size_limit():
    with pytest.raises(SizeLimit):
        canonical_form(make(FamilySpec("path", (13,))))


def test_regular_graph_canonical_forms():
    # 2-regular refinement gives no pruning classes; exercise the search.
    c12 = make(FamilySpec("cycle", (12,)))
    rotated = relabeled(c12, [(i + 5) % 12 for i in range(12)])
    assert canonical_form(c12) == canonical_form(rotated)
    two_hexagons = Graph(12, [(i, (i + 1) % 6) for i in range(6)]
                         + [(6 + i, 6 + (i + 1) % 6) for i in range(6)])
    assert canonical_form(c12) != canonical_form(two_hexagons)


def test_text_format_round_trip():
    G = make(parse_family("infty:3,4,2"))
    again = parse_graph_text(format_graph_text(G))
    assert again == G


def test_text_format_rejections():
    with pytest.raises(BadParams):
        parse_graph_text("2 1\n0 0\n")  # loop
    with pytest.raises(BadParams):
        parse_graph_text("3 2\n0 1\n1 0\n")  # duplicate
    with pytest.raises(BadParams):
        parse_graph_text("3\n")  # missing size
    with pytest.raises(BadParams):
        parse_graph_text("3 2\n0 1\n")  # wrong edge count


def test_text_format_bounds_order_before_building():
    with pytest.raises(SizeLimit):
        parse_graph_text("1000000000 0\n")
    with pytest.raises(SizeLimit):
        parse_graph_text(f"{GRAPH_MAX_ORDER + 1} 0\n")
    assert parse_graph_text(f"{GRAPH_MAX_ORDER} 0\n").n == GRAPH_MAX_ORDER


def test_is_connected():
    assert is_connected(make(FamilySpec("path", (6,))))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1, []))
