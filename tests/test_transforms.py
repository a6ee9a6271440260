"""Tests for edge subdivision, the Kelmans operation, and cycle subdivision."""

import random

import pytest

from fspectra.errors import EdgeNotFound, NoCycle
from fspectra.families import FamilySpec, make, parse_family
from fspectra.graph_core import Graph, canonical_form, degrees, is_connected, subdivided
from fspectra.spectral import f_spectral_radius
from fspectra.transforms import best_cycle_subdivision, kelmans
from fspectra.weights import parse_weight
from helpers import random_connected_graph

SOMBOR = parse_weight("sombor")
ZAGREB1 = parse_weight("zagreb1")


def test_subdivide_cycle():
    for n in (3, 5, 8):
        G = make(FamilySpec("cycle", (n,)))
        H = subdivided(G, sorted(G.edges)[0])
        assert canonical_form(H) == canonical_form(make(FamilySpec("cycle", (n + 1,))))


def test_subdivide_theta():
    G = make(parse_family("theta:2,2,2"))
    path_edge = next(e for e in sorted(G.edges) if 0 in e and 1 not in e)
    H = subdivided(G, path_edge)
    assert canonical_form(H) == canonical_form(make(parse_family("theta:3,2,2")))


def test_subdivide_k2():
    H = subdivided(Graph(2, [(0, 1)]), (0, 1))
    assert canonical_form(H) == canonical_form(make(FamilySpec("path", (3,))))


def test_subdivide_counts_and_errors():
    G = make(parse_family("infty:3,3,2"))
    H = subdivided(G, sorted(G.edges)[0])
    assert (H.n, H.m) == (G.n + 1, G.m + 1)
    assert is_connected(H)
    assert H.m - H.n == G.m - G.n
    assert degrees(H)[G.n] == 2
    with pytest.raises(EdgeNotFound):
        subdivided(make(FamilySpec("path", (4,))), (0, 3))


def test_kelmans_p5_increases_rho():
    p5 = make(FamilySpec("path", (5,)))
    res = kelmans(p5, 1, 3)
    assert res.moved == (0,)
    assert res.connected
    assert not res.isomorphic_to_input
    assert res.endpoints_nonadjacent
    r0 = f_spectral_radius(p5, ZAGREB1).rho
    r1 = f_spectral_radius(res.graph, ZAGREB1).rho
    assert r1 > r0


def test_kelmans_nothing_to_move():
    p5 = make(FamilySpec("path", (5,)))
    res = kelmans(p5, 0, 2)  # the only neighbor of 0 is adjacent to 2
    assert res.moved == ()
    assert res.isomorphic_to_input
    assert res.graph == p5


def test_kelmans_can_disconnect():
    p4 = make(FamilySpec("path", (4,)))
    res = kelmans(p4, 0, 3)
    assert res.moved == (1,)
    assert not res.connected
    assert res.graph.m == p4.m
    assert degrees(res.graph)[0] == 0


def test_kelmans_preserves_edge_count():
    rng = random.Random(2200)
    for _ in range(60):
        G = random_connected_graph(rng, rng.randint(3, 9), rng.randint(0, 5))
        u = rng.randrange(G.n)
        v = (u + 1 + rng.randrange(G.n - 1)) % G.n
        res = kelmans(G, u, v)
        assert res.graph.m == G.m
        assert res.endpoints_nonadjacent == (not G.has_edge(u, v))


def test_kelmans_isomorphism_flag_matches_search():
    # Every ordered pair of seeded random graphs, connected or not, n <= 8.
    rng = random.Random(919)
    kinds = set()
    for n in range(2, 9):
        for _ in range(100):
            p = rng.random()
            G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            for u in range(n):
                for v in range(n):
                    if u != v:
                        res = kelmans(G, u, v)
                        same = canonical_form(G) == canonical_form(res.graph)
                        assert res.isomorphic_to_input == same, (G, u, v)
                        kinds.add((bool(res.moved), res.isomorphic_to_input))
    # unchanged, moved onto an isomorphic copy, and moved onto a new class
    assert kinds == {(False, True), (True, True), (True, False)}


def test_kelmans_large_star_is_isomorphic_at_once():
    res = kelmans(make(parse_family("star:2000")), 0, 1)
    assert res.moved == tuple(range(2, 2000))
    assert res.isomorphic_to_input


def test_kelmans_monotone_sample():
    rng = random.Random(431)
    fws = [SOMBOR, ZAGREB1, parse_weight("zagreb2")]
    done = 0
    while done < 30:
        G = random_connected_graph(rng, rng.randint(4, 8), rng.randint(0, 3))
        u, v = rng.randrange(G.n), rng.randrange(G.n)
        if u == v or G.has_edge(u, v):
            continue
        res = kelmans(G, u, v)
        if not res.connected:
            continue
        f = rng.choice(fws)
        r0 = f_spectral_radius(G, f).rho
        r1 = f_spectral_radius(res.graph, f).rho
        assert r1 > r0 - 1e-8
        if not res.isomorphic_to_input:
            assert r1 > r0
        done += 1


def test_best_cycle_subdivision_cycle_keeps_rho():
    G = make(FamilySpec("cycle", (6,)))
    edge, H = best_cycle_subdivision(G, SOMBOR)
    assert canonical_form(H) == canonical_form(make(FamilySpec("cycle", (7,))))
    r0 = f_spectral_radius(G, SOMBOR).rho
    r1 = f_spectral_radius(H, SOMBOR).rho
    assert r1 == pytest.approx(r0, abs=1e-8)


def test_best_cycle_subdivision_examples():
    for spec, f in (("c3:1,0,0", SOMBOR), ("theta:2,2,2", ZAGREB1)):
        G = make(parse_family(spec))
        edge, H = best_cycle_subdivision(G, f)
        assert f_spectral_radius(H, f).rho <= f_spectral_radius(G, f).rho + 1e-8
    G = make(parse_family("theta:2,2,2"))
    _, H = best_cycle_subdivision(G, ZAGREB1)
    assert canonical_form(H) == canonical_form(make(parse_family("theta:3,2,2")))


def test_best_cycle_subdivision_monotone_random():
    rng = random.Random(5110)
    fws = [SOMBOR, ZAGREB1, parse_weight("const:1")]
    for _ in range(40):
        G = random_connected_graph(rng, rng.randint(4, 9), rng.randint(1, 3))
        for f in fws:
            _, H = best_cycle_subdivision(G, f)
            assert (
                f_spectral_radius(H, f).rho
                <= f_spectral_radius(G, f).rho + 1e-8
            )


def test_best_cycle_subdivision_needs_cycle():
    with pytest.raises(NoCycle):
        best_cycle_subdivision(make(FamilySpec("path", (5,))), SOMBOR)


def test_best_cycle_subdivision_deterministic():
    G = make(parse_family("infty:3,4,2"))
    assert best_cycle_subdivision(G, SOMBOR)[0] == best_cycle_subdivision(G, SOMBOR)[0]
