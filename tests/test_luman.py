"""Tests for alpha-normal certification and the F_theta machinery."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from fspectra.errors import BadParams, BadSplit, IncompleteIncidence
from fspectra.families import FamilySpec, make, parse_family
from fspectra.graph_core import Graph, degrees, internal_paths
from fspectra.luman import (
    FThetaContext,
    IncidenceWeights,
    alpha_of,
    certify,
    check_recurrence,
    classify_normality,
    incidence_from_splits,
    inequality_oracles,
    path_endpoint_values,
    principal_incidence,
)
from fspectra.spectral import f_spectral_radius
from fspectra.weights import eval_weight, parse_weight

TABLE = parse_weight("table:2,2=1;3,2=2;4,2=2")
SOMBOR = parse_weight("sombor")
CONST1 = parse_weight("const:1")


def ctx_for(alpha_prime, f=CONST1):
    return FThetaContext.from_alpha_prime(alpha_prime, f)


# ---------------------------------------------------------------- alpha_of


def test_alpha_cycle_hits_boundary():
    for f in (SOMBOR, TABLE):
        alpha = alpha_of(make(FamilySpec("cycle", (9,))), f)
        f22 = eval_weight(f, 2, 2)
        assert alpha == pytest.approx((2 * f22) ** -2, rel=1e-10)
        ctx = FThetaContext.from_alpha(alpha, f)
        assert ctx.alpha_prime == pytest.approx(0.25)
        assert ctx.theta == pytest.approx(0.0, abs=1e-6)


def test_alpha_k2():
    f = SOMBOR
    assert alpha_of(Graph(2, [(0, 1)]), f) == pytest.approx(
        eval_weight(f, 1, 1) ** -2, rel=1e-10
    )


def test_alpha_theta333_table():
    assert alpha_of(make(parse_family("theta:3,3,3")), TABLE) == pytest.approx(
        1 / 16, rel=1e-10
    )


# ---------------------------------------------------- principal incidence


def test_principal_incidence_cycle_is_half():
    B = principal_incidence(make(FamilySpec("cycle", (6,))), parse_weight("zagreb2"))
    assert all(v == pytest.approx(0.5, abs=1e-10) for _, v in B.items())


def test_principal_incidence_k2():
    B = principal_incidence(Graph(2, [(0, 1)]), SOMBOR)
    assert all(v == pytest.approx(1.0, abs=1e-10) for _, v in B.items())


def test_principal_incidence_vertex_sums():
    G = make(parse_family("theta:2,2,2"))
    B = principal_incidence(G, parse_weight("randic"))
    sums = {v: 0.0 for v in range(G.n)}
    for (v, _e), val in B.items():
        sums[v] += val
    assert all(s == pytest.approx(1.0, abs=1e-8) for s in sums.values())


def test_certify_normal_consistent():
    for spec in ("theta:3,3,2", "infty:3,4,2", "infty-star:4,3", "c3:2,1,0", "path:6"):
        for f in (SOMBOR, parse_weight("zagreb1"), parse_weight("abc")):
            alpha, report = certify(make(parse_family(spec)), f)
            assert report.classification == "normal", (spec, str(f))
            assert report.consistent


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_normality_rejects_bad_tol(tol):
    G = make(parse_family("cycle:5"))
    with pytest.raises(BadParams):
        certify(G, SOMBOR, tol=tol)
    _, report = certify(G, SOMBOR)
    with pytest.raises(BadParams):
        classify_normality(G, SOMBOR, report.incidence, report.alpha, tol=tol)


def test_principal_incidence_rejects_zero_rho():
    # abc(1,1) = 0, so K2 has rho = 0 and B = w x_u / (rho x_v) is undefined.
    with pytest.raises(BadParams, match="alpha is undefined"):
        principal_incidence(Graph(2, [(0, 1)]), parse_weight("abc"))


def test_principal_incidence_rejects_a_zero_perron_entry():
    # Vertices 2..5, inside theta:3,3,40's short paths, have Perron entries
    # near 1e-602 under this table, which read 0.
    G = make(parse_family("theta:3,3,40"))
    with pytest.raises(BadParams, match="^principal incidence needs a positive Perron vector, but vertex 2's"):
        principal_incidence(G, parse_weight("table:2,2=1e150;2,3=1e-150;3,3=1"))


def test_certify_rejects_disconnected_before_solving():
    # Two paths of nearly equal length have nearly equal top eigenvalues, on
    # which a solve of the whole matrix can run to its iteration limit.
    G = Graph(299, [(i, i + 1) for i in range(149)] + [(i, i + 1) for i in range(150, 298)])
    with pytest.raises(BadParams, match="principal incidence needs a connected graph"):
        certify(G, SOMBOR)


def test_classify_degenerate_is_none():
    # All-half incidence on theta(3,3,3): hub sums are 3/2 (kills the
    # subnormal side) while interior edge products overshoot alpha (kills
    # the supernormal side).
    G = make(parse_family("theta:3,3,3"))
    values = {}
    for u, v in G.edges:
        values[(u, (u, v))] = 0.5
        values[(v, (u, v))] = 0.5
    B = IncidenceWeights(G, values)
    report = classify_normality(G, TABLE, B, 1 / 16)
    assert report.classification == "none"


def test_incidence_weights_rejects_aliens():
    G = make(FamilySpec("path", (3,)))
    with pytest.raises(BadParams):
        IncidenceWeights(G, {(0, (0, 2)): 0.5})
    with pytest.raises(BadParams):
        IncidenceWeights(G, {(2, (0, 1)): 0.5})


@pytest.mark.parametrize(
    "bad, word", [(math.nan, "non-finite"), (math.inf, "non-finite"),
                  (-math.inf, "negative"), (-0.5, "negative")]
)
def test_incidence_weights_rejects_non_finite_and_negative(bad, word):
    # A NaN entry once classified as "none" but still "consistent".
    G = make(parse_family("cycle:4"))
    values = {(v, e): 0.5 for e in G.edges for v in e}
    values[(0, (0, 1))] = bad
    with pytest.raises(BadParams, match=rf"{word} incidence value at \(0, \(0, 1\)\)"):
        IncidenceWeights(G, values)


def test_classify_incomplete_incidence():
    G = make(FamilySpec("path", (3,)))
    B = IncidenceWeights(G, {(0, (0, 1)): 1.0, (1, (0, 1)): 0.5})
    with pytest.raises(IncompleteIncidence):
        classify_normality(G, CONST1, B, 0.25)


# --------------------------------------------------------------- F_theta


def test_f_theta_at_zero():
    for ap in (0.05, 0.17, 0.25):
        assert ctx_for(ap).f_theta(0.0) == pytest.approx(0.5)


@given(
    ap=st.floats(min_value=0.01, max_value=0.25),
    b=st.floats(min_value=-20, max_value=20),
)
def test_f_theta_reflection(ap, b):
    F = ctx_for(ap).f_theta
    assert F(b) + F(-b) == pytest.approx(1.0, abs=1e-12)


def test_f_theta_zero_theta_constant():
    ctx = ctx_for(0.25)
    for x in (-7.0, 0.0, 2.5, 40.0):
        assert ctx.f_theta(x) == 0.5


def test_f_theta_decreasing_convex():
    ctx = ctx_for(0.1)
    xs = [0.05 * k for k in range(400)]
    vals = [ctx.f_theta(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    seconds = [vals[i + 2] - 2 * vals[i + 1] + vals[i] for i in range(len(vals) - 2)]
    assert all(s > -1e-15 for s in seconds)


def test_theta_alpha_round_trip():
    for ap in (0.03, 0.1, 0.2, 0.24, 0.25):
        ctx = ctx_for(ap)
        assert math.cosh(ctx.theta) == pytest.approx(
            0.5 * ap ** -0.5, rel=1e-12
        )


def test_alpha_prime_domain():
    with pytest.raises(BadParams):
        ctx_for(0.26)
    with pytest.raises(BadParams):
        ctx_for(0.0)
    # tiny numerical overshoot clamps to the boundary
    ctx = ctx_for(0.25 * (1 + 1e-12))
    assert ctx.alpha_prime == 0.25


# ------------------------------------------------------------- recurrence


def test_recurrence_boundary_trivial():
    ctx = ctx_for(0.25)
    assert check_recurrence(ctx, 3, 9, 6)


def test_recurrence_examples():
    assert check_recurrence(ctx_for(0.2), 2, 4, 5)
    assert check_recurrence(ctx_for(0.05), 0, 0, 8)


def test_recurrence_short_forward_iteration():
    # The map x -> 1 - alpha'/x is repelling near its small fixed point, so
    # only a short forward run stays numerically meaningful; three steps
    # keep the amplified float error far below the tolerance.
    for ap in (0.05, 0.12, 0.22):
        ctx = ctx_for(ap)
        p, q = 1, 5
        x = ctx.f_theta(p + q)
        for n in range(1, 4):
            x = 1.0 - ctx.alpha_prime / x
            assert x == pytest.approx(ctx.f_theta(p + q - 2 * n), abs=1e-10)


def test_closed_form_matches_moebius_solution():
    # Independent oracle: x -> 1 - alpha'/x is a Moebius iteration with
    # fixed points r+- = (1 +- sqrt(1-4a'))/2 and multiplier mu = a'/r+^2;
    # in the conjugate coordinate y = (x - r+)/(x - r-) it is y_n = y_0 mu^n.
    for ap in (0.05, 0.12, 0.22):
        ctx = ctx_for(ap)
        p, q = 1, 5
        disc = math.sqrt(1 - 4 * ap)
        r_plus, r_minus = (1 + disc) / 2, (1 - disc) / 2
        mu = ap / r_plus ** 2
        x0 = ctx.f_theta(p + q)
        y0 = (x0 - r_plus) / (x0 - r_minus)
        for n in range(-8, 9):
            w = y0 * mu ** n
            expected = (r_plus - r_minus * w) / (1 - w)
            assert ctx.f_theta(p + q - 2 * n) == pytest.approx(expected, abs=1e-11)


# ------------------------------------------------------ endpoint values


def test_path_endpoint_values_bad_split():
    ctx = ctx_for(0.2)
    with pytest.raises(BadSplit):
        path_endpoint_values(3, 4, 3, 3, 3, ctx)


def test_path_endpoint_symmetric_case():
    ctx = FThetaContext.from_alpha_prime(0.2, TABLE)
    a, b = path_endpoint_values(2, 2, 2, 3, 3, ctx)
    assert a == b
    assert a == pytest.approx(ctx.beta(3) * ctx.f_theta(2))


def test_path_endpoint_theta_zero():
    ctx = FThetaContext.from_alpha_prime(0.25, TABLE)
    a, b = path_endpoint_values(3, 4, 2, 3, 4, ctx)
    assert a == pytest.approx(ctx.beta(3) / 2)
    assert b == pytest.approx(ctx.beta(4) / 2)


def test_asymmetric_split_installs_exactly():
    # Hand-built host with a length-3 internal path joining hubs of degree
    # 3 and 4: triangle at 0, triangle at 1, third hub 6 with its own
    # triangle two steps from 1. The split (4, 2) must make every edge
    # product along the path equal alpha * w(e)^2.
    G = Graph(
        12,
        [
            (0, 2), (2, 3), (0, 3),      # triangle at hub 0 (degree 3)
            (1, 4), (4, 5), (1, 5),      # triangle at hub 1 (degree 4)
            (6, 7), (7, 8), (6, 8),      # triangle at hub 6 (degree 3)
            (0, 9), (9, 10), (10, 1),    # path of length 3 between 0 and 1
            (1, 11), (11, 6),            # path of length 2 between 1 and 6
        ],
    )
    assert [degrees(G)[v] for v in (0, 1, 6)] == [3, 4, 3]
    paths = internal_paths(G)
    target = next(
        i for i, p in enumerate(paths) if not p.closed and p.length == 3
    )
    alpha = alpha_of(G, SOMBOR)
    cert = incidence_from_splits(G, SOMBOR, alpha, splits={target: (4, 2)})
    report = classify_normality(G, SOMBOR, cert.incidence, alpha)
    path_edges = set(paths[target].edge_sequence())
    for e in path_edges:
        assert abs(report.edge_slack[e]) < 1e-12
    ctx = FThetaContext.from_alpha(alpha, SOMBOR)
    v0 = paths[target].vertices[0]
    expect = ctx.beta(degrees(G)[v0]) * ctx.f_theta(4)
    assert cert.incidence.value(v0, paths[target].edge_sequence()[0]) == pytest.approx(expect)


# ----------------------------------------------------------- split certs


def test_split_certificate_normal_equality_pair():
    # infty(s,s,t) certified at alpha(theta(s,s,t)) is normal and
    # consistent: the two Perron values coincide.
    for s, t in ((3, 2), (4, 3)):
        th = make(FamilySpec("theta", (s, s, t)))
        inf = make(FamilySpec("infty", (s, s, t)))
        alpha = alpha_of(th, SOMBOR)
        cert = incidence_from_splits(inf, SOMBOR, alpha)
        report = classify_normality(inf, SOMBOR, cert.incidence, alpha)
        assert report.classification == "normal"
        assert report.consistent


def test_split_certificate_subnormal_bound():
    # Certify the balanced theta at the level of an unbalanced one of the
    # same size: strictly subnormal, giving rho(balanced) <= rho(other).
    cases = [((3, 3, 3), (2, 3, 4)), ((3, 3, 2), (2, 2, 4)), ((4, 4, 3), (2, 4, 5))]
    for good_params, other_params in cases:
        good = make(FamilySpec("theta", good_params))
        other = make(FamilySpec("theta", other_params))
        alpha = alpha_of(other, SOMBOR)
        cert = incidence_from_splits(good, SOMBOR, alpha)
        report = classify_normality(good, SOMBOR, cert.incidence, alpha)
        assert report.classification in ("normal", "strictly_subnormal")
        rho = f_spectral_radius(good, SOMBOR).rho
        assert rho <= alpha ** -0.5 + 1e-8


def test_split_certificate_supernormal_bound():
    # Certify an unbalanced infty graph at the level of the balanced one:
    # consistently supernormal, giving rho(unbalanced) >= rho(balanced).
    ext = make(FamilySpec("infty", (3, 3, 3)))
    alpha = alpha_of(ext, SOMBOR)
    m = 9
    for params in ((3, 4, 2), (3, 5, 1)):
        cand = make(FamilySpec("infty", params))
        paths = internal_paths(cand)
        open_idx = next(i for i, p in enumerate(paths) if not p.closed)
        p = paths[open_idx]
        degs_at = [degrees(cand)[p.vertices[0]], degrees(cand)[p.vertices[-1]]]
        assert degs_at == [3, 3]
        # the hub on the l1-cycle gets F(m - 2*l1), the other F(m - 2*l2)
        l1 = next(q.length for q in paths if q.closed and p.vertices[0] in q.vertices)
        l2 = next(q.length for q in paths if q.closed and p.vertices[-1] in q.vertices)
        split = (m - 2 * l1, m - 2 * l2)
        kw = {}
        if params[2] == 1:
            kw["modify_short_edges"] = True
        cert = incidence_from_splits(
            cand, SOMBOR, alpha, splits={open_idx: split}, **kw
        )
        report = classify_normality(
            cand, SOMBOR, cert.incidence, alpha,
            weight_overrides=cert.weight_overrides or None,
        )
        assert report.consistent
        assert report.classification in ("normal", "strictly_supernormal"), params
        rho = f_spectral_radius(cand, SOMBOR).rho
        assert rho >= alpha ** -0.5 - 1e-8


def test_split_certificate_rejects_bad_splits():
    G = make(FamilySpec("infty", (3, 3, 2)))
    alpha = alpha_of(G, SOMBOR)
    closed_idx = next(i for i, p in enumerate(internal_paths(G)) if p.closed)
    with pytest.raises(BadSplit):
        incidence_from_splits(G, SOMBOR, alpha, splits={closed_idx: (4, 2)})
    open_idx = next(i for i, p in enumerate(internal_paths(G)) if not p.closed)
    with pytest.raises(BadSplit):
        incidence_from_splits(G, SOMBOR, alpha, splits={open_idx: (3, 2)})


def test_split_certificate_short_edge_flag():
    G = make(parse_family("theta:1,2,2"))
    alpha = alpha_of(G, SOMBOR)
    with pytest.raises(BadSplit):
        incidence_from_splits(G, SOMBOR, alpha)
    cert = incidence_from_splits(G, SOMBOR, alpha, modify_short_edges=True)
    modified = tuple(cert.weight_overrides)
    assert len(modified) == 1
    e = modified[0]
    assert cert.weight_overrides[e] == pytest.approx(eval_weight(SOMBOR, 3, 2))
    # products against the override weight are exact on the modified edge
    report = classify_normality(
        G, SOMBOR, cert.incidence, alpha, weight_overrides=cert.weight_overrides
    )
    assert abs(report.edge_slack[e]) < 1e-12


@pytest.mark.parametrize("family", ["theta:1,2,2", "infty:3,5,1"])
@pytest.mark.parametrize("split", [(1, 1), (2, 0), (0, 2)])
def test_length_one_endpoints_read_far_end_as_degree_two(family, split):
    G = make(parse_family(family))
    alpha = alpha_of(G, SOMBOR)
    ctx = FThetaContext.from_alpha(alpha, SOMBOR)
    paths = internal_paths(G)
    idx = next(i for i, p in enumerate(paths) if p.length == 1)
    (u, v), = paths[idx].edge_sequence()
    start = paths[idx].vertices[0]
    end = v if start == u else u
    cert = incidence_from_splits(G, SOMBOR, alpha, splits={idx: split}, modify_short_edges=True)
    expect = path_endpoint_values(1, *split, degrees(G)[start], 2, ctx)
    assert (cert.incidence.value(start, (u, v)), cert.incidence.value(end, (u, v))) == expect


def test_split_certificate_needs_pendant_free():
    with pytest.raises(BadParams):
        incidence_from_splits(make(parse_family("c3:1,0,0")), SOMBOR, 0.05)
    with pytest.raises(BadParams):
        incidence_from_splits(make(FamilySpec("cycle", (5,))), SOMBOR, 0.05)


# ----------------------------------------------------------- inequalities


def test_inequality_oracles_default_grids():
    for theta_target in (0.1, 0.66, 2.0):
        ap = (0.5 / math.cosh(theta_target)) ** 2
        rep = inequality_oracles(ctx_for(ap))
        assert rep.shift_holds
        assert rep.doubling_holds
        assert rep.doubling_margin > 0.0


def test_inequality_shift_equality_at_origin():
    ctx = ctx_for(0.1)
    rep = inequality_oracles(ctx, shift_pairs=[(0, 0)])
    assert rep.shift_margin == pytest.approx(0.0, abs=1e-15)


def test_inequality_grid_validation():
    ctx = ctx_for(0.1)
    with pytest.raises(BadParams):
        inequality_oracles(ctx, shift_pairs=[(1, 2)])
    with pytest.raises(BadParams):
        inequality_oracles(ctx, doubling_grid=[2.0])


def test_inequality_oracles_on_a_theta_context():
    rep = inequality_oracles(FThetaContext.from_theta(0.5, CONST1))
    assert rep.shift_holds and rep.doubling_holds
    with pytest.raises(BadParams):
        FThetaContext.from_theta(-1.0, CONST1)


def test_from_theta_round_trip():
    ctx = FThetaContext.from_theta(0.7, CONST1)
    assert math.cosh(ctx.theta) == pytest.approx(0.5 * ctx.alpha_prime ** -0.5)
    assert FThetaContext.from_alpha_prime(ctx.alpha_prime, CONST1).theta == pytest.approx(0.7)


# -------------------------------------------------- exactness property


def test_principal_certificates_random_weights_sample():
    rng = random.Random(5150)
    specs = ["theta:2,3,3", "infty:4,3,1", "infty-star:3,5", "c3:1,1,1", "double-star:3,4"]
    names = ["abc", "randic", "sombor", "zagreb1", "zagreb2", "recip-randic"]
    for spec in specs:
        G = make(parse_family(spec))
        for name in rng.sample(names, 3):
            alpha, report = certify(G, parse_weight(name))
            assert report.classification == "normal"
            assert report.consistent
            assert max(abs(s) for s in report.vertex_slack.values()) <= 1e-8
            assert max(abs(s) for s in report.edge_slack.values()) <= 1e-8
