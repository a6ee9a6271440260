"""Tests for the named graph family constructors."""

import pytest

from fspectra.errors import BadParams, SizeLimit
from fspectra.families import (
    FAMILY_KINDS,
    FamilySpec,
    forbidden_fixtures,
    identify_pendant_free_bicyclic,
    make,
    parse_family,
)
from fspectra.search import class_graphs, enumerate_pendant_free_bicyclic
from fspectra.graph_core import (
    GRAPH_MAX_ORDER,
    base_graph,
    canonical_form,
    degrees,
    is_connected,
)


def test_theta_example():
    G = make(parse_family("theta:2,2,2"))
    assert (G.n, G.m) == (5, 6)
    assert sorted(degrees(G)) == [2, 2, 2, 3, 3]


def test_infty_star_example():
    G = make(parse_family("infty-star:3,3"))
    assert (G.n, G.m) == (5, 6)
    assert sorted(degrees(G)) == [2, 2, 2, 2, 4]


def test_infty_example():
    G = make(parse_family("infty:3,3,2"))
    assert (G.n, G.m) == (7, 8)
    hubs = [v for v, d in enumerate(degrees(G)) if d == 3]
    assert hubs == [0, 1]
    # hubs at distance 2 through the connecting path
    common = set(G.adj[0]) & set(G.adj[1])
    assert common


def test_order_size_guarantees():
    cases = [
        ("theta:3,4,5", 11, 12),
        ("infty:4,3,3", 9, 10),
        ("infty-star:4,5", 8, 9),
        ("c3:2,0,3", 8, 8),
        ("path:9", 9, 8),
        ("cycle:6", 6, 6),
        ("star:7", 7, 6),
        ("double-star:4,3", 7, 6),
        ("sn-plus-e:6", 6, 6),
        ("c4:2,1,0,0", 7, 7),
        ("theta122:2,3", 9, 10),
        ("c3-dot-p3", 5, 5),
        ("k5-minus-p4", 5, 7),
    ]
    for text, n, m in cases:
        G = make(parse_family(text))
        assert (G.n, G.m) == (n, m), text
        assert is_connected(G)


def test_bicyclic_families_cyclomatic_two():
    for text in ("theta:2,3,4", "infty:3,4,1", "infty-star:3,5", "theta122:3,2", "k5-minus-p4"):
        G = make(parse_family(text))
        assert is_connected(G)
        assert G.m - G.n + 1 >= 2
    for text in ("theta:2,3,4", "infty:3,4,1", "infty-star:3,5", "theta122:3,2"):
        G = make(parse_family(text))
        assert G.m - G.n + 1 == 2
    for text in ("cycle:8", "c3:1,2,0", "sn-plus-e:7", "c4:0,0,1,1"):
        G = make(parse_family(text))
        assert is_connected(G)
        assert G.m - G.n + 1 == 1


def test_c3_pendants_base():
    c3 = make(FamilySpec("cycle", (3,)))
    for params in ((1, 0, 0), (2, 1, 0), (3, 3, 3)):
        G = make(FamilySpec("c3_pendants", params))
        assert canonical_form(base_graph(G)) == canonical_form(c3)


def test_main_parameterization_orders():
    for s, t in ((3, 2), (3, 3), (4, 3), (5, 4)):
        n = 2 * s + t - 1
        th = make(FamilySpec("theta", (s, s, t)))
        inf = make(FamilySpec("infty", (s, s, t)))
        assert th.n == inf.n == n
        assert th.m == inf.m == n + 1


def test_constraint_violations():
    bad = [
        FamilySpec("theta", (1, 1, 3)),
        FamilySpec("theta", (0, 2, 2)),
        FamilySpec("infty", (2, 3, 1)),
        FamilySpec("infty", (3, 3, 0)),
        FamilySpec("infty_star", (2, 3)),
        FamilySpec("cycle", (2,)),
        FamilySpec("path", (0,)),
        FamilySpec("c3_pendants", (-1, 0, 0)),
        FamilySpec("double_star", (0, 2)),
        FamilySpec("sn_plus_e", (2,)),
    ]
    for spec in bad:
        with pytest.raises(BadParams):
            make(spec)
    with pytest.raises(BadParams):
        FamilySpec("klein_bottle", ())
    with pytest.raises(BadParams):
        parse_family("moebius:3")


def test_double_star_shape():
    G = make(parse_family("double-star:4,3"))
    assert sorted(degrees(G), reverse=True)[:2] == [4, 3]
    assert sorted(degrees(G))[:5] == [1, 1, 1, 1, 1]


def test_sn_plus_e_shape():
    G = make(parse_family("sn-plus-e:6"))
    assert sorted(degrees(G)) == [1, 1, 1, 2, 2, 5]
    sn3 = make(parse_family("sn-plus-e:3"))
    assert canonical_form(sn3) == canonical_form(make(FamilySpec("cycle", (3,))))


def test_forbidden_fixtures():
    fixtures = forbidden_fixtures()
    assert len(fixtures) == 6
    c3p3 = fixtures[2]
    assert (c3p3.n, c3p3.m) == (5, 5)
    assert sorted(degrees(c3p3)) == [1, 2, 2, 2, 3]
    t123 = fixtures[4]
    assert (t123.n, t123.m) == (5, 6)
    k5p4 = fixtures[5]
    assert (k5p4.n, k5p4.m) == (5, 7)


def test_parse_round_trip():
    for text in ["theta:2,2,2", "infty:3,3,2", "infty-star:3,3", "cycle:8",
                 "path:9", "c3:1,2,0", "double-star:4,4", "k5-minus-p4"]:
        spec = parse_family(text)
        assert parse_family(str(spec)) == spec


def test_identify_round_trip():
    for text in ["theta:2,3,4", "theta:1,2,3", "infty:3,4,2", "infty:4,4,1",
                 "infty-star:3,5", "infty-star:4,4"]:
        spec = parse_family(text)
        got = identify_pendant_free_bicyclic(make(spec))
        assert got == FamilySpec(spec.kind, tuple(sorted(spec.params[:2])) + spec.params[2:]) \
            or got == spec


def test_identify_rejects_other_graphs():
    assert identify_pendant_free_bicyclic(make(parse_family("cycle:6"))) is None
    assert identify_pendant_free_bicyclic(make(parse_family("c3:1,0,0"))) is None
    assert identify_pendant_free_bicyclic(make(parse_family("theta122:1,0"))) is None


@pytest.mark.parametrize(
    "text",
    ["path:1000000000", "star:1000000000", "theta:1000,1000,2", "infty-star:1000,1002",
     "c4:500,500,500,497", "double-star:1000,1001", "c3:-1,1000000000,0", "path:1000,1001"],
)
def test_order_bounded_before_building(text):
    with pytest.raises(SizeLimit):
        make(parse_family(text))


@pytest.mark.parametrize(
    "text", ["path:2000", "theta:1000,1000,1", "infty-star:1000,1001", "c4:500,500,500,496"]
)
def test_order_at_the_bound_builds(text):
    assert make(parse_family(text)).n == GRAPH_MAX_ORDER


# One spec per family kind and the labelled graph it builds: hubs first, then
# path and cycle interiors in construction order, then pendants.
PINNED_EDGES = [
    ("path:4", 4, [(0, 1), (1, 2), (2, 3)]),
    ("cycle:5", 5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]),
    ("star:4", 4, [(0, 1), (0, 2), (0, 3)]),
    ("double-star:3,2", 5, [(0, 1), (0, 2), (0, 3), (1, 4)]),
    ("theta:1,2,3", 5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)]),
    ("infty:3,4,2", 8, [(0, 2), (0, 3), (0, 7), (1, 4), (1, 6), (1, 7), (2, 3), (4, 5), (5, 6)]),
    ("infty-star:3,4", 6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (3, 4), (4, 5)]),
    ("c3:1,2,1", 7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 6)]),
    ("c4:1,0,2,1", 8, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 5), (2, 6), (3, 7)]),
    ("theta122:2,1", 7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 6)]),
    ("sn-plus-e:5", 5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]),
    ("c3-dot-p3", 5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]),
    ("k5-minus-p4", 5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)]),
]


def test_every_kind_builds_its_pinned_labelled_graph():
    assert sorted(parse_family(text).kind for text, _, _ in PINNED_EDGES) == sorted(FAMILY_KINDS)
    for text, n, edges in PINNED_EDGES:
        G = make(parse_family(text))
        assert (G.n, G.sorted_edges()) == (n, edges), text
        assert str(parse_family(text)) == text


def test_wrong_parameter_count_names_the_kind():
    with pytest.raises(BadParams, match=r"^path needs 1 parameter\(s\), got 2$"):
        make(FamilySpec("path", (3, 4)))
    with pytest.raises(BadParams, match=r"^k5_minus_p4 needs 0 parameter\(s\), got 1$"):
        make(FamilySpec("k5_minus_p4", (1,)))


def test_identify_matches_the_listing():
    # Every sparse class member is recognised exactly when it is pendant-free
    # bicyclic, as the listed spec of its isomorphism class; every listed
    # spec is recognised as itself.
    checked = 0
    for n in range(4, 11):
        listed = {canonical_form(make(sp)): sp for sp in enumerate_pendant_free_bicyclic(n)}
        for class_name in ("trees", "unicyclic", "bicyclic"):
            for G in class_graphs(class_name, n):
                got = identify_pendant_free_bicyclic(G)
                if class_name == "bicyclic" and min(degrees(G)) >= 2:
                    assert got == listed[canonical_form(G)]
                else:
                    assert got is None
                checked += 1
    for n in range(4, 61):
        for spec in enumerate_pendant_free_bicyclic(n):
            assert identify_pendant_free_bicyclic(make(spec)) == spec
            checked += 1
    assert checked == 27_270
