"""Tests for enumeration and extremal search."""

import hashlib

import pytest

from fspectra.errors import BadParams, SizeLimit
from fspectra.families import FamilySpec, identify_pendant_free_bicyclic, make, parse_family
from fspectra.graph_core import canonical_form, is_isomorphic
from fspectra.spectral import f_spectral_radius
from fspectra.search import (
    _scored,
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
    for n, m in [(4, 4), (5, 5), (5, 6), (6, 5), (6, 6), (6, 7), (7, 6), (7, 7), (7, 8)]:
        got = enumerate_connected(n, m)
        assert len(got) == len(brute_connected_classes(n, m)), (n, m)


def test_enumerate_connected_edge_cases():
    assert enumerate_connected(5, 3) == ()  # below tree threshold
    with pytest.raises(SizeLimit):
        enumerate_connected(10, 11)
    with pytest.raises(BadParams):
        enumerate_connected(4, 7)


# OEIS A000055 (trees), A001429 (connected unicyclic), A001435 (connected
# bicyclic), n = 4..9.
OEIS_COUNTS = {
    "trees": (2, 3, 6, 11, 23, 47),
    "unicyclic": (2, 5, 13, 33, 89, 240),
    "bicyclic": (1, 5, 19, 67, 236, 797),
}


@pytest.mark.parametrize("class_name", sorted(OEIS_COUNTS))
@pytest.mark.parametrize("n", range(4, 10))
def test_class_counts_match_oeis(class_name, n):
    graphs = class_graphs(class_name, n)
    assert len(graphs) == OEIS_COUNTS[class_name][n - 4]
    assert len({canonical_form(G) for G in graphs}) == len(graphs)


def _tsv_without_elapsed(report):
    return report_tsv(report).split("\telapsed=")[0]


def test_extremal_tsv_pinned_at_order_9():
    # Winners and their canonical encodings, fixed before twin pruning was
    # added to growth and canonical forms; they must not move.
    trees = extremal("trees", 9, SOMBOR, "max")
    assert _tsv_without_elapsed(trees) == (
        "# class=trees\torder=9\tweight=sombor\tobjective=max\n"
        "22.803509\t-\t9:000000000000000000000000000011111111\n"
        "# value=22.803509\texamined=47\tskipped=0"
    )
    unicyclic = extremal("unicyclic", 9, SOMBOR, "max")
    assert _tsv_without_elapsed(unicyclic) == (
        "# class=unicyclic\torder=9\tweight=sombor\tobjective=max\n"
        "23.339958\t-\t9:000000000000000000000000000111111111\n"
        "# value=23.339958\texamined=240\tskipped=0"
    )
    bicyclic = extremal("bicyclic", 9, SOMBOR, "min")
    assert _tsv_without_elapsed(bicyclic) == (
        "# class=bicyclic\torder=9\tweight=sombor\tobjective=min\n"
        "7.680721\ttheta:3,3,4\t9:110000000100000000001010101000101010\n"
        "7.680721\tinfty:3,3,4\t9:110000000100000000001010110000100110\n"
        "# value=7.680721\texamined=797\tskipped=0"
    )
    # randic ties every connected graph at rho = 1, so this report lists the
    # canonical encoding of all 797 bicyclic graphs of order 9, in order.
    everyone = extremal("bicyclic", 9, parse_weight("randic"), "min")
    digest = hashlib.sha256(_tsv_without_elapsed(everyone).encode()).hexdigest()
    assert digest == "7d83116b1d663adacef6b1cca584b78a81077b5e87f877ec55fe2026053fb4d4"


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


@pytest.mark.parametrize("theorem, m", [("theta-minimal", 6), ("infty-star-domination", 9)])
def test_verify_type_checks_reject_unevaluable_weight(theorem, m):
    # the table has no (2,3) or (3,3) entry, so no theta-type graph scores
    with pytest.raises(BadParams, match=f"no evaluable graphs in the theta-type class at m={m}"):
        verify_theorem(theorem, [parse_weight("table:2,2=1")], m_values=(m,))


def test_verify_unknown_theorem():
    with pytest.raises(BadParams):
        verify_theorem("riemann-hypothesis", [SOMBOR])


def test_pendant_free_needs_order_four():
    with pytest.raises(BadParams):
        enumerate_pendant_free_bicyclic(3)


# Taken from the per-graph power-iteration scoring that preceded the batched
# solve; the elapsed field is left out.
PARTIAL_TABLE_TSV = {
    ("bicyclic", "min", "table:2,2=1;3,2=2;4,2=2"): (
        "# class=bicyclic\torder=8\tweight=table:2,2=1;2,3=2;2,4=2\tobjective=min\n"
        "4.000000\ttheta:3,3,3\t8:1000010000000011010100101010\n"
        "4.000000\tinfty:3,3,3\t8:1000010000000011110000001110\n"
        "# value=4.000000\texamined=7\tskipped=229\t"
    ),
    ("unicyclic", "max", "table:1,2=1;2,2=1;1,3=1.5;2,3=2;3,3=2.5;1,4=1.2"): (
        "# class=unicyclic\torder=8"
        "\tweight=table:1,2=1;1,3=1.5;1,4=1.2;2,2=1;2,3=2;3,3=2.5\tobjective=max\n"
        "5.709605\t-\t8:0000001100001000001010000111\n"
        "# value=5.709605\texamined=38\tskipped=51\t"
    ),
}


@pytest.mark.parametrize("class_name, objective, weight", sorted(PARTIAL_TABLE_TSV))
def test_extremal_partial_table_pinned(class_name, objective, weight):
    report = extremal(class_name, 8, parse_weight(weight), objective)
    text = report_tsv(report)
    assert text[: text.index("elapsed=")] == PARTIAL_TABLE_TSV[class_name, objective, weight]
    assert report.examined + report.skipped == len(class_graphs(class_name, 8))


def test_scored_keeps_input_order_across_orders():
    f = parse_weight("table:2,2=1;2,3=2;1,2=1.5;1,3=0.5")
    specs = ["theta:3,3,3", "cycle:5", "star:5", "path:4", "infty:3,3,2", "cycle:8",
             "theta:2,2,3", "path:9"]  # star:5 has a (1,4) edge the table lacks
    items = [parse_family(s) for s in specs]
    scored = _scored(items, f, make)
    assert [str(sp) for _, sp in scored] == [s for s in specs if s != "star:5"]
    for rho, sp in scored:
        assert type(rho) is float
        assert rho == pytest.approx(f_spectral_radius(make(sp), f).rho, rel=1e-12)
