"""Tests for weighted adjacency matrices and eigencomputation."""

import math
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from fspectra import cli, spectral
from fspectra.errors import BadParams, MissingTableEntry, NoConvergence, SizeLimit
from fspectra.families import FamilySpec, make, parse_family
from fspectra.graph_core import Graph, degrees, is_connected
from fspectra.spectral import (
    f_adjacency,
    f_spectral_radius,
    full_spectrum,
    interlacing_check,
    perron_values,
)
from fspectra.search import class_graphs
from fspectra.weights import NAMED_WEIGHTS, eval_weight, parse_weight
from helpers import core_branches, induced_subgraph, peeled_kernel, random_connected_graph

TABLE = parse_weight("table:2,2=1;3,2=2;4,2=2")
CONST1 = parse_weight("const:1")


def test_f_adjacency_k2():
    M = f_adjacency(Graph(2, [(0, 1)]), parse_weight("zagreb2"))
    assert M[0, 1] == M[1, 0] == 1.0
    assert M[0, 0] == M[1, 1] == 0.0


def test_f_adjacency_c3_sombor():
    M = f_adjacency(make(FamilySpec("cycle", (3,))), parse_weight("sombor"))
    off = [M[i, j] for i in range(3) for j in range(3) if i != j]
    assert all(v == pytest.approx(math.sqrt(8)) for v in off)
    assert np.allclose(M, M.T)
    assert np.all(np.diag(M) == 0)


def test_f_adjacency_p3_zagreb1():
    M = f_adjacency(make(FamilySpec("path", (3,))), parse_weight("zagreb1"))
    nz = M[M != 0]
    assert np.allclose(nz, 3.0)


def test_spectral_radius_cycle_closed_form():
    for name in ("sombor", "zagreb1", "const:1"):
        f = parse_weight(name)
        for n in (3, 8, 17):
            rho = f_spectral_radius(make(FamilySpec("cycle", (n,))), f).rho
            assert rho == pytest.approx(2 * eval_weight(f, 2, 2), abs=1e-8)


def test_spectral_radius_remark_value():
    rho = f_spectral_radius(make(parse_family("infty-star:3,3")), TABLE).rho
    assert rho == pytest.approx(4.5311, abs=5e-4)
    # exact closed form for this graph: largest root of r^2 - r - 16
    assert rho == pytest.approx((1 + math.sqrt(65)) / 2, abs=1e-9)


def test_spectral_radius_k2():
    f = parse_weight("sombor")
    res = f_spectral_radius(Graph(2, [(0, 1)]), f)
    assert res.rho == pytest.approx(eval_weight(f, 1, 1), abs=1e-10)


def test_spectral_result_contract():
    res = f_spectral_radius(make(parse_family("theta:3,3,2")), parse_weight("sombor"))
    assert res.residual <= spectral.DEFAULT_TOL * max(1.0, res.rho)
    assert res.vector.max() == pytest.approx(1.0)
    assert res.vector.min() > 0.0
    assert res.iterations >= 1


def test_spectral_radius_deterministic():
    # Built from the reversed edge list, this graph's edge set iterates in
    # another order, and a row of three or more entries summed in that order
    # rounds differently.
    edges = [(0, 1), (0, 3), (0, 4), (0, 7), (1, 2), (1, 4), (1, 7), (1, 10),
             (2, 5), (3, 9), (4, 10), (5, 6), (5, 8), (5, 9), (9, 10)]
    f = parse_weight("sombor")
    a = f_spectral_radius(Graph(11, edges), f)
    for again in (Graph(11, edges), Graph(11, edges[::-1])):
        b = f_spectral_radius(again, f)
        assert a.rho == b.rho
        assert a.iterations == b.iterations
        assert np.array_equal(a.vector, b.vector)


def test_spectral_radius_no_convergence(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 1)
    with pytest.raises(NoConvergence) as exc:
        f_spectral_radius(make(FamilySpec("path", (3,))), CONST1)
    assert exc.value.iterations == 1


@pytest.mark.parametrize("cap", [2, 8, 10, 300])
def test_step_cap_counts_plain_steps(monkeypatch, cap):
    # Checks fall at steps 1, 3, 6, 10; a run of plain steps is cut short so
    # that the last step the cap allows is a check, and no result comes
    # from a plain step. With every pivot refused, the reduction that the
    # residual's decay calls for at step 36 gives up and the run on M goes
    # on to the cap.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", cap)
    monkeypatch.setattr(spectral, "_evaluate", lambda *args: None)
    with pytest.raises(NoConvergence) as exc:
        f_spectral_radius(make(parse_family("path:50")), CONST1)
    assert exc.value.iterations == cap


def test_zero_tol_ends_at_the_step_cap(monkeypatch):
    # No check accepts at tol = 0, and the reduction's Newton steps need not
    # reach 0: it gives up after 100 evaluations, and the run on M goes on.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 2_000)
    with pytest.raises(NoConvergence) as exc:
        f_spectral_radius(make(parse_family("path:200")), parse_weight("sombor"), tol=0)
    assert exc.value.iterations == 2_000


@pytest.mark.parametrize("c", [1e-3, 1e-9, 1e-12, 1e-300])
@pytest.mark.parametrize("weight", ["const:{}", "table:2,2={};2,3={}"])
def test_spectral_radius_is_scale_free(weight, c):
    # rho(c f) = c rho(f): the stopping rule is relative at every scale.
    G = make(parse_family("theta:3,3,40"))
    ref = f_spectral_radius(G, parse_weight(weight.format(1, 2))).rho
    scaled = f_spectral_radius(G, parse_weight(weight.format(c, 2 * c))).rho
    assert scaled / c == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize(
    "weight, rho",
    [("table:2,2=1e-150;2,3=1e150;3,3=1", 1.732050807568877e150),
     ("table:2,2=1e150;2,3=1e-150;3,3=1", 1.9938346674662567e150)],
)
def test_spectral_radius_with_entries_300_orders_apart(weight, rho):
    # Plain steps divide by 2 rho_k, so no entry of theirs overflows either.
    res = f_spectral_radius(make(parse_family("theta:3,3,40")), parse_weight(weight))
    assert res.rho == pytest.approx(rho, rel=1e-12)
    if weight.startswith("table:2,2=1e-150"):
        assert res.vector.min() > 0.0
        return
    # Vertices 6..44 are the long path's interior, and carry sin(k pi / 40)
    # up to terms of relative size 1e-600. The hubs 0 and 1 carry
    # w_23 x_6 / rho, about 3.935e-302, and the short paths' interior
    # vertices 2..5 about 1e-602, below the double range, so they read 0.
    x = res.vector
    assert x[6:] == pytest.approx(np.sin(np.arange(1, 40) * math.pi / 40), rel=1e-12)
    assert x[:2] == pytest.approx([1e-150 * math.sin(math.pi / 40) / rho] * 2, rel=1e-12)
    assert x[0] == pytest.approx(3.935e-302, rel=1e-3)
    assert x[2:6].tolist() == [0.0] * 4


def test_spectral_radius_rejects_overflow_before_iterating(monkeypatch):
    # Row sums of 2e308 overflow to inf and must be refused before the first
    # step; the step cap keeps a regression from running the full budget.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 10)
    with pytest.raises(BadParams, match="finite"):
        f_spectral_radius(make(parse_family("cycle:5")), parse_weight("const:1e308"))
    with pytest.raises(BadParams, match="finite"):
        perron_values(np.array([[[0.0, math.nan], [math.nan, 0.0]]]))


def test_spectral_radius_solves_where_unscaled_iterates_overflow(monkeypatch):
    # Every row sum 2e307 is finite, but x.(Mx) = 1e309 is not. The solve
    # scales M by a power of two first, so no iterate overflows.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 10)
    res = f_spectral_radius(make(parse_family("cycle:50")), parse_weight("const:1e307"))
    assert res.rho == 2e307
    assert res.iterations == 1


# Step ceilings for the max-side extremal shapes, whose max row sum is many
# times rho; a path or theta family takes hundreds to thousands of steps.
HUB_STEPS = {"star:250": 10, "double-star:100,100": 20, "sn-plus-e:150": 40}
# Step ceilings for small gaps rho - lambda_2. A path's residual decays so
# slowly that by step 10 it predicts a run on M past 158 steps (150 plus 4
# for each of its two leaves); the reduction then ends the solve at the next
# check. theta:3,3,200's reduction starts at step 36.
SMALL_GAP_STEPS = {
    ("path:240", "zagreb1"): 11,
    ("path:200", "sombor"): 11,
    ("theta:3,3,200", "sombor"): 37,
}


@pytest.mark.parametrize("weight", ["sombor", "zagreb1", "const:1.5"])
@pytest.mark.parametrize(
    "family",
    [*HUB_STEPS, "c3:40,40,40", "theta:20,20,21", "path:90", "cycle:12",
     "path:200", "theta:60,60,61", "infty:3,3,43", "path:240", "theta:3,3,200",
     # Odd cycles put lambda_n near -rho.
     "theta:100,100,101"],
)
def test_spectral_radius_agrees_with_perron_values(family, weight):
    G, f = make(parse_family(family)), parse_weight(weight)
    res = f_spectral_radius(G, f)
    rho, _, errors = perron_values(f_adjacency(G, f)[None])
    assert abs(res.rho - rho[0]) <= errors[0]
    assert res.vector.min() > 0.0
    assert res.iterations <= HUB_STEPS.get(family, math.inf)
    assert res.iterations <= SMALL_GAP_STEPS.get((family, weight), math.inf)


@pytest.mark.parametrize(
    "family, weight",
    [*((family, weight) for family in HUB_STEPS for weight in ("sombor", "zagreb1", "const:1.5")),
     ("cycle:200", "sombor")],
)
def test_large_gap_shapes_finish_on_the_matrix(reductions, family, weight):
    # Their residual decay never predicts a run on M past the handoff
    # budget: a hub graph converges in at most 40 steps and the cycle at the
    # first check.
    res = f_spectral_radius(_graph(family), parse_weight(weight))
    assert reductions == []
    assert res.iterations <= {"cycle:200": 1, **HUB_STEPS}[family]


@pytest.mark.parametrize(
    "family, weight",
    [("theta:20,20,21", "sombor"), ("theta:60,60,61", "sombor"), ("theta:3,3,200", "sombor"),
     ("infty:3,3,43", "abc"), ("infty:3,3,43", "const:1.5"),
     ("infty:40,40,40", "zagreb1"), ("infty:40,40,40", "recip-randic")],
)
def test_graphs_made_of_chains_reduce_on_their_hubs(monkeypatch, reductions, kernels, family, weight):
    # The two hubs carry the Perron mass, so the kernel keeps both and the
    # removed block holds only chains, whose Perron value lies well below
    # rho. Kept alone, one hub left the other in the removed block, whose
    # Perron value then lies within rounding of rho: from these early checks
    # five of these solves took 24 to 44 evaluations, and the check on M
    # rejected the reduced vectors of infty:3,3,43 (abc) and infty:40,40,40
    # (zagreb1, recip-randic), whose runs on M then passed 200,000 steps.
    evaluations = []
    evaluate = spectral._evaluate
    monkeypatch.setattr(spectral, "_evaluate", lambda *args: evaluations.append(args[-1]) or evaluate(*args))
    G, f = _graph(family), parse_weight(weight)
    res = f_spectral_radius(G, f)
    assert kernels == [[v for v in range(G.n) if len(G.adj[v]) == 3]]
    assert len(reductions) == 1 and reductions[0] is not None and len(evaluations) <= 10
    # The first check on M accepts the reduced vector.
    assert np.array_equal(res.vector, reductions[0] / reductions[0].max())
    rho, _, errors = perron_values(f_adjacency(G, f)[None])
    assert abs(res.rho - rho[0]) <= errors[0]
    assert res.vector.min() > 0.0


def test_equal_hubs_get_equal_entries():
    # The two hubs of theta:60,60,61 are interchangeable, and the kernel's
    # closed form gives them exactly equal entries.
    x = f_spectral_radius(make(parse_family("theta:60,60,61")), parse_weight("sombor")).vector
    assert x[0] == x[1] == 1.0


def test_zero_residual_accepts_at_tol_zero():
    # x = 1 is the exact Perron vector of a cycle under const:1, whose scaled
    # entries are 1/2, so the first residual reads 0 and nothing predicts.
    res = f_spectral_radius(make(parse_family("cycle:200")), CONST1, tol=0)
    assert (res.iterations, res.residual, res.rho) == (1, 0.0, 2.0)


def _scaled_operator(G, f):
    """G's f-adjacency operator, scaled by 2^-e as a solve scales it, and e."""
    us, vs, w = spectral._edge_weights(G, f)
    e = math.frexp(w.max())[1]
    M = spectral._Operator(np.concatenate((us, vs)), np.concatenate((vs, us)),
                           np.ldexp(np.concatenate((w, w)), -e), G.n)
    return M, e


def test_bracketed_newton_from_an_early_check(monkeypatch):
    # Rooted at vertex 2, next to hub 0, the reduction of theta:20,20,21
    # keeps that vertex alone and removes both hubs, so the removed block's
    # Perron value lies close below rho. From the check at step 36 under
    # sombor, Newton steps from above land below it, where pivots fail;
    # the bracket still ends the reduction within 20 evaluations.
    G, f = make(parse_family("theta:20,20,21")), parse_weight("sombor")
    M, e = _scaled_operator(G, f)
    _, x, rho, _ = next(check for check in spectral._checks(M, np.ones(G.n), 0) if check[0] == 36)
    evaluations = []
    evaluate = spectral._evaluate
    monkeypatch.setattr(spectral, "_evaluate", lambda *args: evaluations.append(args[-1]) or evaluate(*args))
    series = spectral._series(M, 2)
    assert series.kernel == [2]
    z = spectral._reduced(M, series, x, rho, spectral.DEFAULT_TOL)
    assert z is not None and len(evaluations) <= 20
    z = z / z.max()
    y = M @ z
    r = float(z @ y) / float(z @ z)
    assert abs(y - r * z).max() <= spectral.DEFAULT_TOL * r
    assert math.ldexp(r, e) == pytest.approx(f_spectral_radius(G, f).rho, rel=1e-14)


def test_small_gap_path_converges_within_25000_steps(monkeypatch):
    # On M alone, path:200's slowest mode shrinks by about 1 - delta / (2 rho)
    # per step, which takes 39,903 steps; the reduction that the residual's
    # decay calls for at step 120 ends the solve at the next check.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 25_000)
    res = f_spectral_radius(make(parse_family("path:200")), parse_weight("sombor"))
    assert res.rho == pytest.approx(5.656155742988, rel=1e-11)


def test_shift_bound_skips_zero_entries():
    # The isolated vertex's entry halves at each step on M, and back-
    # substitution, with no neighbour to sum, makes it 0 in the reduced
    # vector: no warning, and about the steps of path:200 alone.
    f = parse_weight("sombor")
    path = f_spectral_radius(make(parse_family("path:200")), f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = f_spectral_radius(Graph(201, [(i, i + 1) for i in range(199)]), f)
    assert res.vector[200] == 0.0
    assert res.rho == pytest.approx(path.rho, rel=1e-12)
    assert res.iterations <= path.iterations + 1_000


def _grid(rows, columns):
    """The rows x columns grid, vertex r * columns + c in row r, column c."""
    n = rows * columns
    return Graph(n, [*((v, v + 1) for v in range(n) if v % columns < columns - 1),
                     *((v, v + columns) for v in range(n - columns))])


def _with_path(G, v, length):
    """G with a path of ``length`` new edges hung on its vertex v."""
    path = [v, *range(G.n, G.n + length)]
    return Graph(G.n + length, [*G.edges, *zip(path, path[1:])])


C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
BUILT = {
    "spider:60,60,61": lambda: _with_path(make(parse_family("path:121")), 60, 61),
    "c4-between-paths:70,70": lambda: _with_path(_with_path(C4, 0, 70), 2, 70),
    "double-star:60,60+path:150": lambda: _with_path(make(parse_family("double-star:60,60")), 119, 150),
    "grid:3,100": lambda: _grid(3, 100),
    # A 2 x 1000 ladder whose end squares are made K4, so that no vertex has
    # degree 2 and nothing is removed.
    "k4-ended-ladder:1000": lambda: Graph(2000, [*_grid(2, 1000).edges, (0, 1001), (1, 1000),
                                                 (998, 1999), (999, 1998)]),
}


def _graph(name):
    return BUILT[name]() if name in BUILT else make(parse_family(name))


def _weight(name):
    return _total_table(3) if name == "table" else parse_weight(name)


# Graphs whose residual decay predicts a run on M past the handoff budget,
# and which are reduced to a kernel of one vertex. The branch vertex of the spider or
# of the paths on C4 localizes the Perron vector under sombor, zagreb1 and
# const:1.5, whose edges grow heavier at degree 3: the gap stays large and
# they converge in at most 435 steps. Under a weight that does not grow with
# degree their gap is a path's.
FLAT = "table:1,2=2;2,2=2;2,3=1.5"
FOLDED = [
    *((family, weight) for family in ("path:90", "path:200", "path:240")
      for weight in ("sombor", "zagreb1", "const:1.5", "table")),
    *((name, weight) for name in ("spider:60,60,61", "c4-between-paths:70,70")
      for weight in ("randic", FLAT)),
]


@pytest.mark.parametrize("name, weight", FOLDED)
def test_folded_solve_agrees_with_the_matrix(reductions, name, weight):
    G, f = _graph(name), _weight(weight)
    res = f_spectral_radius(G, f)
    assert len(reductions) == 1 and reductions[0] is not None
    # The reduced vector passes the check on M at once.
    assert np.array_equal(res.vector, reductions[0] / reductions[0].max())
    M = f_adjacency(G, f)
    rho = perron_values(M[None])[0][0]
    assert abs(res.rho - rho) <= 1e-12 * rho
    assert res.vector.min() > 0.0
    assert abs(M @ res.vector - res.rho * res.vector).max() <= 2 * spectral.DEFAULT_TOL * max(1.0, res.rho)


@pytest.mark.parametrize("name, weight", [("path:90", "sombor"), ("c4-between-paths:70,70", "randic")])
def test_reduced_vector_the_check_rejects_is_not_returned(monkeypatch, name, weight):
    # The smallest entry, at a path's end, is large enough that the residual
    # catches its sign: the check rejects the vector and the run on M goes on.
    reduced = spectral._reduced
    given = []

    def negated(*args):
        x = reduced(*args)
        x[np.argmin(x)] *= -1
        given.append(x.copy())
        return x

    monkeypatch.setattr(spectral, "_reduced", negated)
    G, f = _graph(name), _weight(weight)
    res = f_spectral_radius(G, f)
    assert len(given) == 1 and given[0].min() < 0
    assert res.iterations > 4 * G.n + 1
    assert res.vector.min() > 0.0
    rho = perron_values(f_adjacency(G, f)[None])[0][0]
    assert abs(res.rho - rho) <= 1e-12 * rho


@pytest.mark.parametrize("weight", ["sombor", "randic"])
def test_refused_reduction_leaves_the_solve_on_stage_1(monkeypatch, reductions, weight):
    # With every pivot refused, the reduction gives up after 100 evaluations
    # and the run on M goes on to converge.
    monkeypatch.setattr(spectral, "_evaluate", lambda *args: None)
    G, f = _graph("grid:3,100"), parse_weight(weight)
    res = f_spectral_radius(G, f)
    assert reductions == [None]
    assert res.iterations > 4 * G.n
    rho, _, errors = perron_values(f_adjacency(G, f)[None])
    assert abs(res.rho - rho[0]) <= errors[0]
    assert res.vector.min() > 0.0


@pytest.mark.parametrize("weight", ["sombor", "randic"])
def test_reduced_solve_with_a_large_kernel(monkeypatch, reductions, kernels, weight):
    # Only the grid's 4 corners have degree 2, and removing one leaves its
    # neighbours at degree 3, so 296 of its 300 vertices stay in the kernel.
    # The reduction waits for step 4 * 297, 297 bounding the kernel's order,
    # and then takes two dense evaluations; from a check before step 561,
    # under sombor, it took three.
    evaluations = []
    evaluate = spectral._evaluate
    monkeypatch.setattr(spectral, "_evaluate", lambda *args: evaluations.append(args[-1]) or evaluate(*args))
    G, f = _graph("grid:3,100"), parse_weight(weight)
    res = f_spectral_radius(G, f)
    assert [len(kernel) for kernel in kernels] == [296]
    assert len(evaluations) == 2 and res.iterations > 4 * 296
    assert len(reductions) == 1 and reductions[0] is not None
    assert np.array_equal(res.vector, reductions[0] / reductions[0].max())
    rho, _, errors = perron_values(f_adjacency(G, f)[None])
    assert abs(res.rho - rho[0]) <= errors[0]
    assert res.vector.min() > 0.0


def test_reduced_solve_near_the_order_limit_keeps_every_vertex(kernels):
    # Nothing of this ladder is removed, so the reduction is a dense
    # eigensolve of order 2000. A run on M alone needs more than
    # MAX_ITERATIONS steps here. Under randic, rho = 1 and x_v = sqrt(d_v);
    # with a gap of 3.3e-6, x may err by far more than the residual.
    G = _graph("k4-ended-ladder:1000")
    res = f_spectral_radius(G, parse_weight("randic"))
    assert [len(kernel) for kernel in kernels] == [G.n]
    assert res.iterations < 5 * G.n
    assert res.rho == pytest.approx(1.0, rel=1e-14)
    root_degrees = np.sqrt(degrees(G))
    assert res.vector == pytest.approx(root_degrees / root_degrees.max(), rel=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_reduced_solve_with_a_kernel_of_several_vertices(reductions, kernels, seed):
    # A random core of 12 vertices and 8 extra edges, with two 80-edge paths
    # hung on it: the paths make the gap small. Under randic, rho = 1 and
    # x_v = sqrt(d_v) exactly, largest at a vertex of largest degree, which
    # here is a branch vertex of the 2-core: the kernel keeps all 6 to 9 of
    # them.
    rng = random.Random(seed)
    G = random_connected_graph(rng, 12, 8)
    for _ in range(2):
        G = _with_path(G, rng.randrange(12), 80)
    res = f_spectral_radius(G, parse_weight("randic"))
    assert kernels == [core_branches(G.adj)] and 6 <= len(kernels[0]) <= 9
    assert len(reductions) == 1 and reductions[0] is not None
    assert res.rho == pytest.approx(1.0, rel=1e-14)
    root_degrees = np.sqrt(degrees(G))
    assert res.vector == pytest.approx(root_degrees / root_degrees.max(), rel=1e-12)


def test_tiny_weights_leave_no_zero_in_the_perron_vector():
    # The path's entries fall to about 8e-91 under const:1, so under
    # const:1e-300 their products with the weight underflow unless M is
    # scaled first.
    G = _graph("double-star:60,60+path:150")
    ref = f_spectral_radius(G, CONST1)
    res = f_spectral_radius(G, parse_weight("const:1e-300"))
    assert res.vector.min() > 0.0
    assert res.rho / 1e-300 == pytest.approx(ref.rho, rel=1e-12)


def test_folded_solve_does_not_depend_on_edge_order(reductions):
    edges, f = sorted(_graph("c4-between-paths:70,70").edges), parse_weight("randic")
    G, H = Graph(144, edges), Graph(144, edges[::-1])
    assert list(G.edges) != list(H.edges)
    a, b = f_spectral_radius(G, f), f_spectral_radius(H, f)
    assert len(reductions) == 2 and all(x is not None for x in reductions)
    assert a.rho == b.rho
    assert a.iterations == b.iterations
    assert np.array_equal(a.vector, b.vector)


def test_reduction_never_evaluates_one_lambda_twice_in_a_row(monkeypatch):
    # Where the Newton point rounds to lambda itself, as on path:240 under
    # sombor at lambda = 1.4140923114699402, the reduction returns the
    # current vector instead of evaluating lambda again.
    evaluations = []
    evaluate = spectral._evaluate
    monkeypatch.setattr(spectral, "_evaluate", lambda *args: evaluations.append(args[-1]) or evaluate(*args))
    for n in (40, 90, 110, 140, 170, 200, 240, 242):
        for weight in (*NAMED_WEIGHTS, "const:1.5"):
            evaluations.clear()
            f_spectral_radius(make(parse_family(f"path:{n}")), parse_weight(weight))
            assert evaluations
            assert all(a != b for a, b in zip(evaluations, evaluations[1:])), (n, weight)


def _hung(G, lengths, seed=None):
    """G with a path of each length hung on a vertex: vertex i for the i-th
    length, or a seeded random vertex of G's."""
    rng = random.Random(seed)
    for i, length in enumerate(lengths):
        G = _with_path(G, i if seed is None else rng.randrange(G.n), length)
    return G


K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
# Graphs and roots whose reductions have pendant chains of 1, 2, 3 and 50
# vertices, chains between two vertices (one of a single vertex in
# theta:2,3,4, one beside an edge in theta:1,3,4), chains from a vertex
# back to itself (infty and the cycle), kernels of two hubs (theta:3,4,5,
# infty:5,6,4) and skeletons (theta:2,2,2's hubs, rooted at a vertex
# between them, and the random cores).
# Each removed block's Perron value lies below 2 f(2, 2) for the paths, the
# cycle and the K4, so those evaluate below, at and above it.
CHAINED = {
    "k4+paths:1,2,3,50": (lambda: _hung(K4, (1, 2, 3, 50)), 0),
    "path:91": (lambda: make(parse_family("path:91")), 45),
    "theta:3,4,5": (lambda: make(parse_family("theta:3,4,5")), 0),
    "theta:2,3,4": (lambda: make(parse_family("theta:2,3,4")), 0),
    "theta:1,3,4": (lambda: make(parse_family("theta:1,3,4")), 0),
    "infty:5,6,4": (lambda: make(parse_family("infty:5,6,4")), None),
    "cycle:60": (lambda: make(parse_family("cycle:60")), 7),
    # Single-vertex chains only, so no edge joins two chain vertices: w = 0.
    "theta:2,2,2": (lambda: make(parse_family("theta:2,2,2")), 2),
    "random-core+paths:80,80": (
        lambda: _hung(random_connected_graph(random.Random(5), 12, 8), (80, 80), 5), None),
    "random-tree+paths:1,2,3,40": (
        lambda: _hung(random_connected_graph(random.Random(6), 40), (1, 2, 3, 40), 6), None),
}
CHAIN_WEIGHTS = ["sombor", "randic", "zagreb2", "abc", "const:1.5"]


def _chained(name, weight):
    """The series reduction of a CHAINED graph under a weight, with its dense
    scaled matrix, its removed vertices and their block's Perron value."""
    make_graph, root = CHAINED[name]
    G = make_graph()
    M, _ = _scaled_operator(G, parse_weight(weight))
    A = np.zeros((G.n, G.n))
    A[M.rows, M.cols] = M.vals
    series = spectral._series(M, int(np.argmax(degrees(G))) if root is None else root)
    removed = np.setdiff1d(np.arange(G.n), series.kernel)
    return series, A, removed, np.linalg.eigvalsh(A[np.ix_(removed, removed)])[-1]


@pytest.mark.parametrize("seed", range(4))
def test_chains_first_leave_the_kernel_of_one_vertex_at_a_time(seed):
    # Removing a vertex of degree at most 2 raises no degree, so removing the
    # chains first, then the skeleton, leaves the same kernel. Some graphs
    # get a disjoint cycle or path, whose vertices the skeleton removes.
    rng = random.Random(seed)
    for _ in range(25):
        G = random_connected_graph(rng, rng.randint(2, 40), rng.randint(0, 15))
        G = _hung(G, [rng.randint(1, 30) for _ in range(rng.randint(0, 3))], rng.random())
        if rng.random() < 0.3:
            size, n = rng.randint(1, 6), G.n
            apart = [(n + i, n + i + 1) for i in range(size - 1)]
            if size > 2 and rng.random() < 0.5:
                apart.append((n, n + size - 1))
            G = Graph(n + size, [*G.edges, *apart])
        root = rng.randrange(G.n)
        M, _ = _scaled_operator(G, CONST1)
        reference = peeled_kernel([set(near) for near in G.adj], root)
        assert spectral._series(M, root).kernel == reference


@pytest.mark.parametrize("weight", CHAIN_WEIGHTS)
@pytest.mark.parametrize("name", CHAINED)
def test_reduced_vector_solves_every_removed_row(name, weight):
    # Above the removed block's Perron value, x solves (lambda I - M) x = 0
    # on removed rows, and on the kernel's rows gives phi x, whichever side
    # of 2 f(2, 2) lambda lies: sines below, exponentials above and k at it.
    series, A, removed, top = _chained(name, weight)
    w = series.w
    for lam in (top * (1 + 1e-9), 2 * w * (1 - 1e-4), 2 * w, 2 * w * (1 + 1e-12), 2.5 * w):
        if not lam > top * (1 + 1e-10):
            continue
        phi, x = spectral._evaluate(series, lam)
        assert x.min() > 0.0
        r = lam * x - A @ x
        assert (abs(r[removed]) <= 1e-12 * lam * x[removed]).all(), lam
        kernel = series.kernel
        assert abs(r[kernel] - phi * x[kernel]).max() <= 1e-12 * lam * x.max(), lam


@pytest.mark.parametrize("weight", CHAIN_WEIGHTS)
@pytest.mark.parametrize("name", CHAINED)
def test_evaluation_refuses_exactly_at_and_below_the_removed_block(name, weight):
    # Pivots fail where lambda I - M is not positive definite on the removed
    # vertices, up to rounding: at most 10 ulps either side on these cases.
    series, _, _, top = _chained(name, weight)
    ulp = np.spacing(top)
    for lam in (-top, 0.0, top / 2, top - 32 * ulp):
        assert spectral._evaluate(series, lam) is None, lam
    for lam in (top + 32 * ulp, top * (1 + 1e-9), 2 * top):
        assert spectral._evaluate(series, lam) is not None, lam


def _triangle_path_kite(length):
    """Triangle 0, 1, 2 joined at 0 by a path of ``length`` edges to vertex 3
    of a triangle 3, 4, 5 and a square 3, 5, 6, 7 that share the edge 3-5."""
    path = [0, *range(8, 7 + length), 3]
    return Graph(7 + length, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6), (6, 7), (3, 7),
                              *zip(path, path[1:])])


@pytest.mark.parametrize("weight", ["const:1", "abc", "recip-randic"])
def test_small_kernel_entries_are_accurate_entry_by_entry(reductions, kernels, weight):
    # Three branch vertices make the kernel's eigenpair an eigh, which gives
    # each entry only to within rounding of the largest. The Perron vector
    # sits at one end of the path, so the other end's hubs carry tiny
    # entries: from eigh alone one read 0. Recomputed from their own rows,
    # every entry solves its row of M to rounding.
    G, f = _triangle_path_kite(60), parse_weight(weight)
    res = f_spectral_radius(G, f)
    assert [len(kernel) for kernel in kernels] == [3] and reductions[0] is not None
    us, vs, w = spectral._edge_weights(G, f)
    x = res.vector
    Mx = np.bincount(us, w * x[vs], G.n) + np.bincount(vs, w * x[us], G.n)
    assert x.min() > 0.0
    assert abs(1 - Mx / (res.rho * x)).max() <= 1e-12


def test_reduced_vector_far_down_a_long_path_stays_finite():
    # At 2.5 f(2, 2) the entries of path:2000 fall by e^-0.69 a vertex, to
    # about 5e-302 at the ends, with nothing overflowing on the way.
    M, _ = _scaled_operator(make(parse_family("path:2000")), parse_weight("sombor"))
    series = spectral._series(M, 1000)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        _, x = spectral._evaluate(series, 2.5 * series.w)
    assert np.isfinite(x).all() and 0.0 < x.min() < 1e-300


@pytest.mark.parametrize("weight", NAMED_WEIGHTS)
@pytest.mark.parametrize("n, bound", [(242, 1e-12), (2000, 1e-11)])
def test_reduced_vector_is_accurate_entry_by_entry(reductions, n, bound, weight):
    # The residual test bounds |Mx - rho x| by tol times the largest entry;
    # the reduced vector meets it relative to each entry.
    G, f = make(parse_family(f"path:{n}")), parse_weight(weight)
    res = f_spectral_radius(G, f)
    assert len(reductions) == 1 and reductions[0] is not None
    us, vs, w = spectral._edge_weights(G, f)
    x = res.vector
    Mx = np.bincount(us, w * x[vs], n) + np.bincount(vs, w * x[us], n)
    assert abs(1 - Mx / (res.rho * x)).max() <= bound


def test_full_spectrum_known_values():
    p3 = full_spectrum(f_adjacency(make(FamilySpec("path", (3,))), CONST1))
    assert p3 == pytest.approx([math.sqrt(2), 0.0, -math.sqrt(2)], abs=1e-10)
    c4 = full_spectrum(f_adjacency(make(FamilySpec("cycle", (4,))), CONST1))
    assert c4 == pytest.approx([2.0, 0.0, 0.0, -2.0], abs=1e-10)
    c3 = full_spectrum(f_adjacency(make(FamilySpec("cycle", (3,))), CONST1))
    assert c3 == pytest.approx([2.0, -1.0, -1.0], abs=1e-10)


def test_full_spectrum_trace_and_order():
    rng = random.Random(77)
    for _ in range(20):
        G = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 5))
        spec = full_spectrum(f_adjacency(G, parse_weight("sombor")))
        assert abs(spec.sum()) < 1e-9
        assert all(a >= b - 1e-12 for a, b in zip(spec, spec[1:]))


def test_full_spectrum_size_limit():
    with pytest.raises(SizeLimit):
        full_spectrum(np.zeros((65, 65)))


def test_rho_matches_max_of_spectrum():
    rng = random.Random(2023)
    f = parse_weight("zagreb1")
    for _ in range(25):
        G = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 5))
        rho = f_spectral_radius(G, f).rho
        assert rho == pytest.approx(full_spectrum(f_adjacency(G, f))[0], abs=1e-8)


def test_proper_subgraph_monotone():
    # For f increasing in x, a proper connected subgraph has strictly
    # smaller Perron value (degrees can only drop, entries only shrink).
    rng = random.Random(99)
    fws = [parse_weight(w) for w in ("sombor", "zagreb1", "zagreb2")]
    done = 0
    while done < 30:
        G = random_connected_graph(rng, rng.randint(4, 9), rng.randint(1, 5))
        keep = sorted(rng.sample(range(G.n), G.n - 1))
        H = induced_subgraph(G, keep)
        if not is_connected(H) or H.m == 0:
            continue
        f = rng.choice(fws)
        assert f_spectral_radius(H, f).rho < f_spectral_radius(G, f).rho
        done += 1


def test_spectra_refuse_large_orders_before_building_a_matrix(monkeypatch, capsys):
    def refuse(G, f):
        raise AssertionError("f_adjacency called")

    monkeypatch.setattr(spectral, "f_adjacency", refuse)
    monkeypatch.setattr(cli, "f_adjacency", refuse)
    # path:64 passes, but its subdivision has order 65.
    with pytest.raises(SizeLimit, match="full spectrum supports order <= 64"):
        interlacing_check(make(parse_family("path:64")), (0, 1), CONST1)
    assert cli.main(["spectrum", "--family", "path:2000", "--weight", "sombor"]) == 2
    assert capsys.readouterr().err == "error: full spectrum supports order <= 64\n"


def test_interlacing_c3_example():
    rep = interlacing_check(make(FamilySpec("cycle", (3,))), (0, 1), CONST1)
    assert rep.holds
    assert rep.lam == pytest.approx([2.0, -1.0, -1.0], abs=1e-10)
    assert rep.theta == pytest.approx([2.0, 0.0, 0.0, -2.0], abs=1e-10)


def test_interlacing_more_examples():
    assert interlacing_check(
        make(FamilySpec("path", (4,))), (1, 2), parse_weight("sombor")
    ).holds
    t222 = make(parse_family("theta:2,2,2"))
    assert interlacing_check(t222, sorted(t222.edges)[0], parse_weight("randic")).holds


def _loop_violation(lam, theta):
    """The largest violation of lambda_{i-2} >= theta_i >= lambda_{i+1}, i = 1..n+1,
    floored at 0, one index at a time."""
    n, worst = len(lam), 0.0
    for i in range(1, n + 2):
        if i - 2 >= 1:
            worst = max(worst, theta[i - 1] - lam[i - 3])
        if i + 1 <= n:
            worst = max(worst, lam[i] - theta[i - 1])
    return worst


def test_interlacing_random_sample():
    rng = random.Random(606)
    names = ["sombor", "randic", "zagreb1", "zagreb2", "const:1"]
    for _ in range(60):
        G = random_connected_graph(rng, rng.randint(3, 9), rng.randint(0, 4))
        e = rng.choice(sorted(G.edges))
        rep = interlacing_check(G, e, parse_weight(rng.choice(names)))
        assert rep.holds, (G, e)
        assert rep.max_violation == _loop_violation(rep.lam, rep.theta)


def _total_table(max_degree):
    """A table weight with a seeded value for every degree pair up to max_degree."""
    rng = random.Random(11)
    entries = [
        f"{x},{y}={rng.uniform(0.5, 3.0):.6f}"
        for x in range(1, max_degree + 1)
        for y in range(x, max_degree + 1)
    ]
    return parse_weight("table:" + ";".join(entries))


@pytest.mark.parametrize("weight", ["sombor", "zagreb2", "table"])
@pytest.mark.parametrize("class_name", ["trees", "unicyclic", "bicyclic"])
def test_perron_values_agree_with_power_iteration(class_name, weight):
    f = _total_table(7) if weight == "table" else parse_weight(weight)
    graphs = class_graphs(class_name, 8)
    stack = np.stack([f_adjacency(G, f) for G in graphs])
    rho, vectors, errors = perron_values(stack)
    assert rho.shape == errors.shape == (len(graphs),)
    assert vectors.shape == (len(graphs), 8)
    for i, G in enumerate(graphs):
        ref = f_spectral_radius(G, f)
        assert abs(rho[i] - ref.rho) <= 1e-12 * max(1.0, ref.rho), graphs[i]
        assert errors[i] <= 1e-12 * max(1.0, rho[i])
        assert vectors[i].max() == 1.0
        assert vectors[i].min() > 0.0


def test_perron_values_matches_single_matrix_contract():
    G, f = make(parse_family("theta:3,3,2")), parse_weight("sombor")
    rho, vectors, errors = perron_values(f_adjacency(G, f)[None])
    ref = f_spectral_radius(G, f)
    assert rho[0] == pytest.approx(ref.rho, rel=1e-12)
    assert np.allclose(vectors[0], ref.vector, atol=1e-9)
    assert abs(rho[0] - ref.rho) <= errors[0]


def test_perron_values_no_convergence(monkeypatch):
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    M = f_adjacency(make(parse_family("infty:3,4,2")), parse_weight("zagreb2"))
    with pytest.raises(NoConvergence) as exc:
        perron_values(np.stack([M, M]))
    assert exc.value.iterations == 1
    assert exc.value.residual > 0.0


def test_perron_values_rejects_bad_shapes():
    with pytest.raises(BadParams):
        perron_values(np.zeros((3, 3)))
    with pytest.raises(BadParams):
        perron_values(np.zeros((2, 3, 4)))
    with pytest.raises(BadParams):
        perron_values(np.zeros((2, 0, 0)))


def test_perron_values_accepts_a_near_tied_top_pair():
    # The top two eigenvalues of infty:3,3,43 under sombor are 1.8e-15 apart,
    # so |v| of the computed eigenvector can be far from an eigenvector while
    # the signed pair, and so rho, is accurate.
    f = parse_weight("sombor")
    G = make(parse_family("infty:3,3,43"))
    rho, vectors, _ = perron_values(f_adjacency(G, f)[None])
    ref = f_spectral_radius(G, f).rho
    assert abs(rho[0] - ref) <= 1e-12 * ref
    assert vectors[0].max() == 1.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
def test_solvers_reject_bad_tol(tol):
    with pytest.raises(BadParams):
        f_spectral_radius(make(parse_family("cycle:5")), parse_weight("sombor"), tol=tol)


@pytest.mark.parametrize("weight", ["sombor", "zagreb2", "abc", "const:1.5"])
@pytest.mark.parametrize(
    "family",
    ["path:90", "star:250", "theta:60,60,61", "infty:3,3,43", "double-star:100,100",
     "c3:40,40,40", "sn-plus-e:150", "cycle:200"],
)
def test_edge_list_solve_matches_the_matrix_solve(family, weight):
    # The edge list stands for f_adjacency's matrix: the solve's residual
    # bound holds on that matrix too, up to the rounding of a dense product.
    G, f = make(parse_family(family)), parse_weight(weight)
    res = f_spectral_radius(G, f)
    M = f_adjacency(G, f)
    assert abs(M @ res.vector - res.rho * res.vector).max() <= 2 * spectral.DEFAULT_TOL * max(1.0, res.rho)
    assert res.vector.min() > 0.0


def test_single_solve_builds_no_dense_matrix(monkeypatch):
    def refuse(G, f):
        raise AssertionError("f_adjacency called")

    monkeypatch.setattr(spectral, "f_adjacency", refuse)
    res = f_spectral_radius(make(parse_family("star:2000")), parse_weight("sombor"))
    assert f"{res.rho:.6f}" == "89375.656630"
    assert res.vector.min() > 0.0


@pytest.mark.parametrize(
    "family", ["infty-star:3,4", "sn-plus-e:6", "double-star:3,4", "c3:2,3,4", "star:5"]
)
def test_edge_list_solve_names_the_missing_pair_as_f_adjacency_does(family):
    # Many degree pairs are missing; both walk G.edges and name the first.
    G, f = make(parse_family(family)), parse_weight("table:2,2=1")
    with pytest.raises(MissingTableEntry) as want:
        f_adjacency(G, f)
    with pytest.raises(MissingTableEntry) as got:
        f_spectral_radius(G, f)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", range(4))
def test_edge_weights_match_a_loop_over_the_edges(seed):
    # The vectorized lookup against a loop over G.edges: the same arrays, and
    # f called once per distinct degree pair, in order of first occurrence
    # and oriented as there.
    rng = random.Random(seed)
    G = random_connected_graph(rng, rng.randint(2, 60), rng.randint(0, 30))
    sombor, calls = parse_weight("sombor"), []
    f = SimpleNamespace(func=lambda x, y: calls.append((x, y)) or sombor.func(x, y))
    us, vs, w = spectral._edge_weights(G, f)
    edges, degs, first = list(G.edges), degrees(G), {}
    for u, v in edges:
        first.setdefault(frozenset((degs[u], degs[v])), (degs[u], degs[v]))
    assert calls == list(first.values())
    assert [us.tolist(), vs.tolist()] == [list(ends) for ends in zip(*edges)]
    assert w.tolist() == [eval_weight(sombor, degs[u], degs[v]) for u, v in edges]
