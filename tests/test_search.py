"""Tests for enumeration and extremal search."""

import gc
import hashlib
import random

import pytest

from fspectra import search
from fspectra.errors import BadParams, SizeLimit
from fspectra.families import FamilySpec, identify_pendant_free_bicyclic, make, parse_family
from fspectra.graph_core import Graph, canonical_form, is_connected, is_isomorphic
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
from helpers import brute_connected_classes, relabeled

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



def _edge_kept(H, e):
    """The growth loop's keep decision for H grown from H - e by edge e."""
    G = Graph(H.n, H.edges - {e})
    return search._keeps(H.adj, e, G.edges, search._bridge_sides(G))


def _leaf_kept(T, leaf):
    """The growth loop's keep decision for tree T grown by leaf ``leaf``."""
    rivals = [(x, a[0]) for x, a in enumerate(T.adj) if len(a) == 1 and x != leaf]
    return search._keeps(T.adj, (leaf, T.adj[leaf][0]), rivals, {})


def _relabelings(n, count=3, seed=7):
    rng = random.Random(seed)
    perms = []
    for _ in range(count):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(perm)
    return perms


def test_canonical_deletion_is_invariant_and_nonempty():
    # The keep rule must depend on (H, e) only up to isomorphism, and keep
    # at least one deletion of every graph, or growth would lose classes.
    perms = _relabelings(8)
    for H in enumerate_connected(8, 9):
        removable = [e for e in sorted(H.edges) if is_connected(Graph(H.n, H.edges - {e}))]
        kept = [_edge_kept(H, e) for e in removable]
        assert any(kept)
        for perm in perms:
            image = relabeled(H, perm)
            for e, keep in zip(removable, kept):
                pe = tuple(sorted((perm[e[0]], perm[e[1]])))
                assert _edge_kept(image, pe) == keep, (H, e, perm)


def test_canonical_leaf_deletion_is_invariant_and_nonempty():
    perms = _relabelings(8)
    for T in enumerate_connected(8, 7):
        leaves = [v for v in range(T.n) if len(T.adj[v]) == 1]
        kept = [_leaf_kept(T, v) for v in leaves]
        assert any(kept)
        for perm in perms:
            image = relabeled(T, perm)
            assert [_leaf_kept(image, perm[v]) for v in leaves] == kept, (T, perm)


def _clear_enumeration_caches():
    search._trees.cache_clear()
    enumerate_connected.cache_clear()
    canonical_form.cache_clear()


def test_cold_enumeration_computes_few_canonical_forms(monkeypatch):
    # Twin pruning alone computed 5739 canonical forms here; canonical
    # deletion leaves about one candidate per class and level.
    calls = []
    kernel = search.canonical_code

    def counted(*args):
        calls.append(args[0])
        return kernel(*args)

    _clear_enumeration_caches()
    monkeypatch.setattr(search, "canonical_code", counted)
    graphs = enumerate_connected(9, 10)
    assert len(graphs) == 797
    assert 797 <= len(calls) <= 2000


def test_no_candidate_outlives_its_class():
    # Growth keeps candidates as canonical codes and builds one Graph per
    # class, so after a cold run the only new live graphs are the cached
    # class representatives (1132 here; keeping every candidate left 2578).
    _clear_enumeration_caches()
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, Graph)}
    enumerate_connected(9, 10)
    gc.collect()
    new = {id(o) for o in gc.get_objects() if isinstance(o, Graph)} - before
    reps = {id(G) for n in range(1, 10) for G in search._trees(n)}
    reps |= {id(G) for m in (9, 10) for G in enumerate_connected(9, m)}
    assert len(reps) == 1132
    assert new == reps


# sha256 of the class list of each (n, m), one repr(sorted(G.edges)) per line,
# taken from the growth before canonical deletion was added.
LIST_DIGESTS = {
    (4, 3): "f363d4d53112e7e44222dbed6619724706abaed9feedd0b59ea6f2ab221f4483",
    (4, 4): "15de2edd2f51d97fe87359df5999ad402b1839a103b0b4a39e34d4fcb13b3795",
    (4, 5): "ddf875dfdf38489f603eee271e37e2c2996064f1c44151d85ea928c2b5600eb7",
    (4, 6): "8cf7c838487fa83befc874746e035d5439fdf57ea2738bdd1c8d35cd0b813741",
    (5, 4): "a01c33afcf0e26e8efd5c5ea8abf935feca6ef3a30e55db76249d86565514574",
    (5, 5): "d51c0f40247d95ac5fca8a2b037cf466df1aa4c50c356e8c4d809baebdc0e6fb",
    (5, 6): "83b403b9b5c4336627a4cbff7ef6539dbecdc5b069b071afc35db99658fdc256",
    (5, 7): "9b8eaea3725858b6dc409e4d594321e0ace4c999913811a6519720a0fe03e6e0",
    (6, 5): "0a87d84bdb85a2d7beec3fd8bfcae563db7b6e00fb6de8379e3492850c209e32",
    (6, 6): "026b2920080874d2148002e4acc4bb431843fe73b48f32114f3c369bbc53fdc5",
    (6, 7): "b952e3df5d0a49de73898ac567f986b3a591da3cf99a2c6724143ed48c81c377",
    (6, 8): "295d989339fa5a272a1e1ad90884e8293b9802a9f6ac742842aabf6c2fb87c56",
    (7, 6): "429dd82764dd73bb619487a5bc7eb12d183a37adc7b29e50445a4975a0b90dda",
    (7, 7): "9825deaaecbe4162c13fff230277abdf662a7b9191ab974a605ed0d58e5bc20f",
    (7, 8): "a17f378ff5ee6c9b67ef141faedb4304c2798a8d6028fee435759cb00d482bc6",
    (7, 9): "e7dac92f845c4af0f0b33b90f476b3a410112ded2ffe2cca6eb4bbf61d1e6ad0",
    (8, 7): "9985ca9cb544b7fe328210fcfc6a38a56cb44398b5a92ef3491432e91ba6d69f",
    (8, 8): "650a20549c1c57b9c6cd015e57db3430979b3efdf39cb4a975483e5ac317927a",
    (8, 9): "111c7017fd7296f11b7758387262fb3f22c4a0a6f07ac9363e72d4e73826f60f",
    (8, 10): "032935c5cec4bbcdc5813b6dca43c15102594b1afa91c8f38574d607128c473b",
    (9, 8): "1d60059170ea6f1b3c9ed4575643a6f0ea6434962e18a1588700e81c75c155fd",
    (9, 9): "da61530454b0f5a1e82774257e09ba90ee906c9d19ccba2e909e2ff8f6735538",
    (9, 10): "805b54f3071e916b255a392b5f8b0247fd4013c92f64812c8775fb8f30d741ef",
}


@pytest.mark.parametrize("n, m", sorted(LIST_DIGESTS))
def test_enumeration_lists_pinned(n, m):
    text = "\n".join(repr(sorted(G.edges)) for G in enumerate_connected(n, m))
    assert hashlib.sha256(text.encode()).hexdigest() == LIST_DIGESTS[(n, m)]

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


@pytest.mark.parametrize("objective", ["min", "max"])
def test_extremal_scales_with_a_huge_constant_weight(objective):
    # 1e200 squared overflows; the batched solve must still accept rho.
    one = extremal("trees", 6, parse_weight("const:1"), objective)
    huge = extremal("trees", 6, parse_weight("const:1e200"), objective)
    assert huge.value == pytest.approx(1e200 * one.value, rel=1e-12)
    assert [canonical_form(G) for G in huge.winners] == [canonical_form(G) for G in one.winners]


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
