"""Tests for enumeration and extremal search."""

import pytest

from fspectra.errors import BadParams, SizeLimit
from fspectra.families import FamilySpec, identify_pendant_free_bicyclic, make, parse_family
from fspectra.graph_core import canonical_form, is_isomorphic
from fspectra.search import (
    class_graphs,
    enumerate_connected,
    enumerate_pendant_free_bicyclic,
    extremal,
    report_records,
    report_tsv,
    verify_theorem,
)
from fspectra.weights import parse_weight
from helpers import brute_connected_classes

TABLE = parse_weight("table:2,2=1;3,2=2;4,2=2")
SOMBOR = parse_weight("sombor")


def specs_as_strings(n):
    return sorted(str(s) for s in enumerate_pendant_free_bicyclic(n))


def test_pendant_free_enumeration_small():
    assert specs_as_strings(4) == ["theta:1,2,2"]
    assert specs_as_strings(5) == ["infty-star:3,3", "theta:1,2,3", "theta:2,2,2"]


def test_pendant_free_enumeration_n8():
    specs = enumerate_pendant_free_bicyclic(8)
    kinds = sorted(s.kind for s in specs)
    assert len(specs) == 12
    assert kinds.count("theta") == 6
    assert kinds.count("infty") == 4
    assert kinds.count("infty_star") == 2


def test_pendant_free_enumeration_no_duplicates():
    for n in range(4, 11):
        graphs = [make(s) for s in enumerate_pendant_free_bicyclic(n)]
        forms = {canonical_form(G) for G in graphs}
        assert len(forms) == len(graphs)
        assert all(G.n == n and G.m == n + 1 for G in graphs)


def test_enumerate_connected_examples():
    only = enumerate_connected(3, 3)
    assert len(only) == 1
    assert is_isomorphic(only[0], make(FamilySpec("cycle", (3,))))
    k4_minus = enumerate_connected(4, 5)
    assert len(k4_minus) == 1
    assert is_isomorphic(k4_minus[0], make(parse_family("theta:1,2,2")))
    assert len(enumerate_connected(5, 4)) == 3  # trees on five vertices


def test_enumerate_connected_counts_against_oracle():
    for n, m in [(4, 4), (5, 5), (5, 6), (6, 5), (6, 6), (6, 7)]:
        got = enumerate_connected(n, m)
        assert len(got) == len(brute_connected_classes(n, m)), (n, m)


def test_enumerate_connected_edge_cases():
    assert enumerate_connected(5, 3) == ()  # below tree threshold
    with pytest.raises(SizeLimit):
        enumerate_connected(10, 11)
    with pytest.raises(BadParams):
        enumerate_connected(4, 7)


def test_class_graphs_sizes():
    assert all(G.m == G.n - 1 for G in class_graphs("trees", 6))
    assert all(G.m == G.n for G in class_graphs("unicyclic", 6))
    assert all(G.m == G.n + 1 for G in class_graphs("bicyclic", 6))
    with pytest.raises(BadParams):
        class_graphs("tricyclic", 6)


def test_extremal_table_n5():
    report = extremal("pendant_free_bicyclic", 5, TABLE, "min")
    assert len(report.winners) == 1
    assert identify_pendant_free_bicyclic(report.winners[0]) == FamilySpec(
        "infty_star", (3, 3)
    )
    assert report.value == pytest.approx(4.5311, abs=5e-4)
    assert report.skipped == 1  # theta(1,2,3) needs the absent pair (3, 3)
    assert report.examined == 2


def test_extremal_unicyclic_min_is_cycle():
    report = extremal("unicyclic", 7, SOMBOR, "min")
    assert len(report.winners) == 1
    assert is_isomorphic(report.winners[0], make(FamilySpec("cycle", (7,))))


def test_extremal_deterministic_order():
    a = extremal("pendant_free_bicyclic", 8, SOMBOR, "min")
    b = extremal("pendant_free_bicyclic", 8, SOMBOR, "min")
    assert [canonical_form(G) for G in a.winners] == [canonical_form(G) for G in b.winners]


def test_extremal_objective_validation():
    with pytest.raises(BadParams):
        extremal("trees", 5, SOMBOR, "median")


def test_report_output_shapes():
    report = extremal("pendant_free_bicyclic", 5, TABLE, "min")
    records = report_records(report)
    assert len(records) == 1
    enc, rho, tag = records[0]
    assert tag == "infty-star:3,3"
    assert rho == pytest.approx(report.value, abs=1e-9)
    text = report_tsv(report)
    assert "infty-star:3,3" in text
    assert text.startswith("# class=")


def test_verify_equality_small():
    report = verify_theorem(
        "theta-infty-equality", [SOMBOR], s_values=(3,), t_values=(2, 3)
    )
    assert report.passed is True
    assert all(c.status == "PASS" for c in report.checks)


def test_verify_theta_minimal():
    report = verify_theorem("theta-minimal", [SOMBOR], m_values=(6, 7, 9))
    assert report.passed is True


def test_verify_infty_minimal():
    report = verify_theorem("infty-minimal", [SOMBOR], m_values=(8, 9, 10))
    assert report.passed is True


def test_verify_infty_star_domination():
    report = verify_theorem("infty-star-domination", [SOMBOR], m_values=(9, 10))
    assert report.passed is True


def test_verify_base_graph_reduction():
    report = verify_theorem("base-graph-reduction", [SOMBOR], n_values=(6, 7))
    assert report.passed is True


def test_verify_conjecture_is_observational():
    report = verify_theorem(
        "conjecture-pstarstar",
        [parse_weight("zagreb2")],
        class_names=("trees",),
        n_values=(8,),
    )
    assert report.passed is None
    assert all(c.status == "OBS" for c in report.checks)
    assert any("double-star:4,4" in c.text for c in report.checks)


def test_full_enumeration_agrees_with_pendant_free():
    # for weights favoring imbalanced pairs, the bicyclic minimum is
    # pendant-free, so the two searches must land on the same winners
    for n in (8, 9):
        for f in (SOMBOR, parse_weight("zagreb1")):
            full = extremal("bicyclic", n, f, "min")
            pf = extremal("pendant_free_bicyclic", n, f, "min")
            assert abs(full.value - pf.value) < 1e-9
            assert sorted(canonical_form(G) for G in full.winners) == sorted(
                canonical_form(G) for G in pf.winners
            )


def test_verify_unknown_theorem():
    with pytest.raises(BadParams):
        verify_theorem("riemann-hypothesis", [SOMBOR])


def test_pendant_free_needs_order_four():
    with pytest.raises(BadParams):
        enumerate_pendant_free_bicyclic(3)
