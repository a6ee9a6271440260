"""Acceptance suite: every contract criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`). The
randic instance of the desk-scale extremal criterion checks the all-tie
answer: the Randic weight gives every connected graph Perron value exactly 1
(its weighted adjacency matrix is similar to the row-stochastic D^-1 A), so
the whole class attains both the minimum and the maximum, the predicted pair
included; see test_criterion_04_randic.
"""

import math
import random
import time

from fspectra.families import FamilySpec, forbidden_fixtures, identify_pendant_free_bicyclic, make, parse_family
from fspectra.graph_core import base_graph, canonical_form, contains_induced, degrees, subdivided
from fspectra.luman import FThetaContext, certify
from fspectra.search import enumerate_pendant_free_bicyclic, extremal
from fspectra.spectral import f_spectral_radius, interlacing_check
from fspectra.transforms import best_cycle_subdivision, kelmans
from fspectra.weights import eval_weight, parse_weight
from helpers import doubling_margin, family_corpus, random_connected_graph, recurrence_residual, shift_margin

TABLE = parse_weight("table:2,2=1;3,2=2;4,2=2")

REMARK_VALUES = [
    ("infty-star:3,3", 4.5311),
    ("theta:2,2,2", 4.8990),
    ("infty-star:4,3", 4.3914),
    ("theta:3,2,2", 4.5949),
    ("infty-star:4,4", 4.2426),
    ("theta:3,3,2", 4.2930),
    ("infty-star:5,4", 4.2028),
    ("theta:3,3,3", 4.0000),
    ("infty-star:5,5", 4.1613),
    ("theta:4,3,3", 3.9169),
]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_remark_reproduction():
    start = time.perf_counter()
    errors = []
    for spec, expected in REMARK_VALUES:
        rho = f_spectral_radius(make(parse_family(spec)), TABLE).rho
        if abs(rho - expected) > 5e-4:
            errors.append((spec, rho, expected))
    elapsed = time.perf_counter() - start
    ok = not errors and elapsed < 1.0
    report("1 remark-table", ok, f"10 values within 5e-4 in {elapsed:.3f}s")
    assert not errors, errors
    assert elapsed < 1.0, elapsed


def test_criterion_02_cycle_closed_form():
    weights = ["sombor", "randic", "abc", "zagreb1", "zagreb2", "const:1"]
    worst = 0.0
    for name in weights:
        f = parse_weight(name)
        target = 2.0 * eval_weight(f, 2, 2)
        for n in range(3, 31):
            rho = f_spectral_radius(make(FamilySpec("cycle", (n,))), f).rho
            worst = max(worst, abs(rho - target))
    ok = worst <= 1e-8
    report("2 cycle-closed-form", ok, f"n=3..30, 6 weights, worst error {worst:.2e}")
    assert ok, worst


def test_criterion_03_theta_infty_equality():
    weights = [parse_weight(w) for w in ("sombor", "randic", "zagreb2", "abc")]
    worst = 0.0
    for f in weights:
        for s in (3, 4, 5):
            for t in (2, 3, 4):
                a = f_spectral_radius(make(FamilySpec("theta", (s, s, t))), f).rho
                b = f_spectral_radius(make(FamilySpec("infty", (s, s, t))), f).rho
                worst = max(worst, abs(a - b))
    ok = worst <= 1e-7
    report("3 theta-infty-equality", ok, f"s=3..5, t=2..4, 4 weights, worst gap {worst:.2e}")
    assert ok, worst


def _expected_minimum_specs(n):
    m = n + 1
    s = next(s for s in range(1, m) if m - 2 * s >= 1 and abs(3 * s - m) <= 1)
    t = m - 2 * s
    return {
        str(FamilySpec("theta", tuple(sorted((s, s, t))))),
        str(FamilySpec("infty", (s, s, t))),
    }


def _winner_tags(report_obj):
    tags = set()
    for G in report_obj.winners:
        spec = identify_pendant_free_bicyclic(G)
        tags.add(str(spec) if spec else f"n{G.n}m{G.m}")
    return tags


def test_criterion_04_main_theorem_desk_scale():
    start = time.perf_counter()
    failures = []
    for name in ("sombor", "abc", "zagreb1"):
        f = parse_weight(name)
        for n in (8, 9, 10):
            got = _winner_tags(extremal("pendant_free_bicyclic", n, f, "min"))
            want = _expected_minimum_specs(n)
            if got != want:
                failures.append((name, n, got, want))
        got_full = _winner_tags(extremal("bicyclic", 8, f, "min"))
        if got_full != _expected_minimum_specs(8):
            failures.append((name, "full-8", got_full))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    report(
        "4 main-theorem",
        ok,
        f"sombor/abc/zagreb1 at n=8..10 plus full n=8 enumeration in {elapsed:.1f}s",
    )
    assert not failures, failures
    assert elapsed < 600.0, elapsed


def test_criterion_04_randic():
    # For f(x, y) = 1/sqrt(xy) the f-adjacency matrix is D^-1/2 A D^-1/2,
    # which is similar to the row-stochastic D^-1 A. Every connected graph
    # therefore has Perron value exactly 1, with eigenvector D^1/2 * 1, so
    # min = max = 1 and the whole class ties whatever the tie tolerance.
    # The predicted pair theta(s,s,t), infty(s,s,t) attains the minimum, but
    # it cannot be the unique minimiser.
    f = parse_weight("randic")
    cases = [
        ("pendant_free_bicyclic", n, len(enumerate_pendant_free_bicyclic(n)))
        for n in (8, 9, 10)
    ]
    cases.append(("bicyclic", 8, 236))  # OEIS A001435 at n = 8
    failures = []
    for class_name, n, size in cases:
        for objective in ("min", "max"):
            rep = extremal(class_name, n, f, objective)
            where = (class_name, n, objective)
            if rep.skipped != 0:
                failures.append((*where, "skipped", rep.skipped))
            if abs(rep.value - 1.0) > 1e-9:
                failures.append((*where, "value", rep.value))
            if len(rep.winners) != size or rep.examined != size:
                failures.append(
                    (*where, "winners/examined/class size", len(rep.winners), rep.examined, size)
                )
            if objective == "min":
                missing = _expected_minimum_specs(n) - _winner_tags(rep)
                if missing:
                    failures.append((*where, "predicted pair missing", sorted(missing)))
    report(
        "4 main-theorem (randic)",
        not failures,
        "all-tie answer: min = max = 1 and every class member wins, "
        "pendant-free n=8..10 plus full n=8",
    )
    assert not failures, failures


def test_criterion_05_luman_exactness():
    names = ["abc", "randic", "sombor", "zagreb1", "zagreb2", "recip-randic"]
    graphs = family_corpus(10)
    bad = []
    for G in graphs:
        for name in names:
            alpha, rep = certify(G, parse_weight(name), tol=1e-8)
            if rep.classification != "normal" or not rep.consistent:
                bad.append((G, name, rep.classification))
    ok = not bad
    report(
        "5 luman-exactness",
        ok,
        f"{len(graphs)} corpus graphs x {len(names)} weights all certify normal+consistent",
    )
    assert not bad, bad[:3]


def test_criterion_06_interlacing():
    rng = random.Random(777001)
    names = ["sombor", "randic", "abc", "zagreb1", "zagreb2", "recip-randic", "const:1"]
    checked = 0
    worst = 0.0
    while checked < 500:
        n = rng.randint(3, 10)
        G = random_connected_graph(rng, n, rng.randint(0, 4))
        e = rng.choice(sorted(G.edges))
        f = parse_weight(rng.choice(names))
        rep = interlacing_check(G, e, f)
        worst = max(worst, rep.max_violation)
        assert rep.holds, (G, e, str(f), rep.max_violation)
        checked += 1
    report("6 interlacing", True, f"{checked} random triples, worst violation {worst:.2e}")


def test_criterion_07_f_theta_machinery():
    const1 = parse_weight("const:1")

    def at_theta(theta):
        return FThetaContext.from_alpha_prime((0.5 / math.cosh(theta)) ** 2, const1)

    # recurrence identity over windows of length 17
    for ap in (0.05, 0.1, 0.2, 0.25):
        ctx = FThetaContext.from_alpha_prime(ap, const1)
        for p, q in ((0, 0), (1, 5), (3, 3), (-2, 6)):
            assert recurrence_residual(ctx, p, q, 8) <= 1e-10, (ap, p, q)
    # shift inequality on the stated grid at theta = 0.5
    F = at_theta(0.5).f_theta
    assert min(shift_margin(F, a, b) for a in range(11) for b in range(a + 1)) >= -1e-12
    # doubling inequality on the stated theta/x grids
    doubling_ok = all(doubling_margin(at_theta(theta).f_theta, 3 + 0.5 * k) > 0
                      for theta in (0.1, 0.66, 2.0) for k in range(15))
    report("7 f-theta", doubling_ok, "recurrence windows (17 points) and both grid inequalities")
    assert doubling_ok


def test_criterion_08_kelmans_monotonicity():
    rng = random.Random(20240811)
    weights = [parse_weight(w) for w in ("sombor", "zagreb1", "zagreb2")]
    applied = 0
    strict = 0
    while applied < 120:
        n = rng.randint(4, 9)
        G = random_connected_graph(rng, n, rng.randint(0, 3))
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or G.has_edge(u, v):
            continue
        res = kelmans(G, u, v)
        if not res.connected:
            continue
        f = rng.choice(weights)
        r0 = f_spectral_radius(G, f).rho
        r1 = f_spectral_radius(res.graph, f).rho
        assert r1 > r0 - 1e-8, (G, u, v, str(f))
        if not res.isomorphic_to_input:
            assert r1 > r0, (G, u, v, str(f))
            strict += 1
        applied += 1
    report("8 kelmans", True, f"{applied} applications, {strict} strict increases")


def test_criterion_09_subdivision_theorems():
    weights = [parse_weight(w) for w in ("sombor", "zagreb1", "zagreb2", "const:1")]
    rng = random.Random(90121)
    checked_cycle = 0
    # chosen-edge subdivision on random cyclic graphs and the corpus
    candidates = [random_connected_graph(rng, rng.randint(4, 9), rng.randint(1, 3)) for _ in range(60)]
    candidates += [G for G in family_corpus(9) if G.m >= G.n]
    for G in candidates:
        for f in weights:
            _, H = best_cycle_subdivision(G, f)
            assert (
                f_spectral_radius(H, f).rho <= f_spectral_radius(G, f).rho + 1e-8
            ), (G, str(f))
            checked_cycle += 1
    # degree-2 vertex with adjacent neighbors: subdividing either incident
    # edge cannot raise the Perron value
    checked_deg2 = 0
    for G in family_corpus(9):
        degs = degrees(G)
        for v1 in range(G.n):
            if degs[v1] != 2:
                continue
            v2, v3 = G.adj[v1]
            if not G.has_edge(v2, v3):
                continue
            for f in weights:
                r0 = f_spectral_radius(G, f).rho
                for other in (v2, v3):
                    r1 = f_spectral_radius(subdivided(G, (v1, other)), f).rho
                    assert r1 <= r0 + 1e-8, (G, v1, other, str(f))
                    checked_deg2 += 1
    report(
        "9 subdivision",
        True,
        f"{checked_cycle} chosen-edge and {checked_deg2} adjacent-neighbor cases",
    )


def test_criterion_10_forbidden_and_bases():
    fixtures = forbidden_fixtures()
    weights = [parse_weight(w) for w in ("sombor", "zagreb1", "zagreb2")]
    hits = []
    for f in weights:
        for class_name in ("trees", "unicyclic", "bicyclic"):
            rep = extremal(class_name, 8, f, "max")
            for G in rep.winners:
                for H in fixtures:
                    if contains_induced(G, H):
                        hits.append((str(f), class_name, H))
    sombor = parse_weight("sombor")
    c3 = make(FamilySpec("cycle", (3,)))
    base_ok = True
    for G in extremal("unicyclic", 8, sombor, "max").winners:
        base_ok = base_ok and canonical_form(base_graph(G)) == canonical_form(c3)
    targets = [make(FamilySpec("theta", (1, 2, 2))), make(FamilySpec("theta", (2, 2, 2)))]
    for G in extremal("bicyclic", 8, sombor, "max").winners:
        B = base_graph(G)
        base_ok = base_ok and any(canonical_form(B) == canonical_form(T) for T in targets)
    ok = not hits and base_ok
    report(
        "10 forbidden-subgraphs",
        ok,
        "max winners at n=8 avoid all six fixtures; sombor bases are C3 and theta(1,2,2)",
    )
    assert not hits, hits
    assert base_ok
