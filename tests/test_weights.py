"""Tests for weight functions: evaluation, parsing, and grid properties."""

import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fspectra.errors import BadParams, MissingTableEntry, NonPositiveValue
from fspectra.weights import (
    NAMED_WEIGHTS,
    WeightSpec,
    check_property,
    eval_weight,
    parse_weight,
    parse_weights,
)

TABLE = parse_weight("table:2,2=1;3,2=2;4,2=2")


def test_eval_examples():
    assert eval_weight(parse_weight("sombor"), 2, 2) == pytest.approx(math.sqrt(8))
    assert eval_weight(TABLE, 3, 2) == 2.0
    assert eval_weight(parse_weight("randic"), 4, 1) == pytest.approx(0.5)


def test_named_formulas_spot_values():
    assert eval_weight(parse_weight("abc"), 3, 4) == pytest.approx(math.sqrt(5 / 12))
    assert eval_weight(parse_weight("zagreb1"), 3, 4) == 7.0
    assert eval_weight(parse_weight("zagreb2"), 3, 4) == 12.0
    assert eval_weight(parse_weight("recip-randic"), 4, 9) == pytest.approx(6.0)
    assert eval_weight(parse_weight("const:2.5"), 7, 1) == 2.5


def test_symmetry_exact_on_grid():
    for name in NAMED_WEIGHTS:
        f = WeightSpec.named(name)
        for x in range(1, 17):
            for y in range(1, 17):
                assert eval_weight(f, x, y) == eval_weight(f, y, x)


@given(
    name=st.sampled_from(NAMED_WEIGHTS),
    x=st.integers(min_value=1, max_value=16),
    y=st.integers(min_value=1, max_value=16),
)
def test_symmetry_property(name, x, y):
    f = WeightSpec.named(name)
    assert eval_weight(f, x, y) == eval_weight(f, y, x)


def test_positivity_on_grid():
    # abc vanishes at the single point (1, 1); everywhere else all named
    # weights are strictly positive and finite on the grid.
    for name in NAMED_WEIGHTS:
        f = WeightSpec.named(name)
        for x in range(1, 17):
            for y in range(1, 17):
                v = eval_weight(f, x, y)
                assert math.isfinite(v)
                if name == "abc" and x == y == 1:
                    assert v == 0.0
                else:
                    assert v > 0.0


def test_parse_round_trip():
    for text in ["sombor", "recip-randic", "const:0.5", "table:2,2=1;3,2=2;4,2=2"]:
        spec = parse_weight(text)
        assert parse_weight(str(spec)) == spec


def test_parse_rejects_garbage():
    for text in ["sombrero", "const:", "const:x", "table:", "table:1=2", "table:2,2=-1"]:
        with pytest.raises((BadParams, NonPositiveValue)):
            parse_weight(text)


def test_constant_must_be_positive():
    with pytest.raises(BadParams):
        WeightSpec.constant(0.0)
    with pytest.raises(BadParams):
        WeightSpec.constant(-3.0)


def test_table_missing_entry():
    with pytest.raises(MissingTableEntry):
        eval_weight(TABLE, 3, 3)


def test_table_nonpositive_value():
    with pytest.raises(NonPositiveValue):
        WeightSpec.from_table({(2, 2): 0.0})


def test_table_unordered_pairs():
    f = WeightSpec.from_table({(3, 2): 2.0})
    assert eval_weight(f, 2, 3) == 2.0
    assert eval_weight(f, 3, 2) == 2.0


def test_table_pairs_are_normalised_and_checked_in_one_place():
    # Pair lists may name one unordered pair twice; a mapping cannot.
    pairs = WeightSpec.from_table([((3, 2), 2.0), ((2, 3), 2.0), ((2, 2), 1.0)])
    assert pairs == WeightSpec.from_table({(2, 2): 1.0, (2, 3): 2.0})
    assert pairs == parse_weight("table:3,2=2;2,3=2;2,2=1")
    for build in (lambda: WeightSpec.from_table([((2, 3), 1.0), ((3, 2), 2.0)]),
                  lambda: parse_weight("table:2,3=1;3,2=2")):
        with pytest.raises(BadParams, match=r"conflicting table values for pair \(2, 3\)"):
            build()


def test_table_degrees_are_integers():
    f = WeightSpec.from_table({(np.int64(3), np.int64(2)): 2.0, (True, 2): 1.0})
    assert str(f) == "table:1,2=1;2,3=2"
    assert parse_weight(str(f)) == f
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert g == f
        assert eval_weight(g, 2, 3) == 2.0
    for key in [(2.0, 3.0), (2.5, 3), (2, np.float64(3))]:
        with pytest.raises(BadParams, match="table degrees must be integers"):
            WeightSpec.from_table({key: 1.0})


def test_parse_weights_keeps_table_commas():
    specs = parse_weights("sombor, table:2,2=1;3,2=2,recip-randic,const:2")
    assert [str(f) for f in specs] == ["sombor", "table:2,2=1;2,3=2", "recip-randic", "const:2"]
    with pytest.raises(BadParams, match="bad table entry"):
        parse_weights("table:2,2=1,x")


def test_degree_domain():
    with pytest.raises(BadParams):
        eval_weight(parse_weight("sombor"), 0, 2)


def test_property_sombor_pstar():
    report = check_property(parse_weight("sombor"), "Pstar", max_degree=8)
    assert report.holds
    assert report.grid == (1, 8)


def test_property_zagreb2_pstarstar():
    report = check_property(parse_weight("zagreb2"), "Pstarstar", max_degree=8)
    assert report.holds


def test_property_constant_not_strictly_increasing():
    report = check_property(parse_weight("const:1"), "increasing_in_x", max_degree=5, strict=True)
    assert not report.holds
    assert report.witness is not None
    x, y = report.witness
    f = parse_weight("const:1")
    assert not (eval_weight(f, x + 1, y) > eval_weight(f, x, y))


def test_witness_reproduces_violation():
    # randic decreases in x, so the non-strict increasing check fails too.
    f = parse_weight("randic")
    report = check_property(f, "increasing_in_x")
    assert not report.holds
    x, y = report.witness
    assert eval_weight(f, x + 1, y) < eval_weight(f, x, y)


def test_pstar_pstarstar_mutually_exclusive():
    for name in NAMED_WEIGHTS:
        f = WeightSpec.named(name)
        pstar = check_property(f, "Pstar", max_degree=8)
        pss = check_property(f, "Pstarstar", max_degree=8)
        assert not (pstar.holds and pss.holds)


def test_zagreb1_has_nonstrict_pstar():
    # x + y is linear: equal-sum pairs tie, so Pstar holds non-strictly
    # while Pstarstar (strict preference for balance) fails.
    assert check_property(parse_weight("zagreb1"), "Pstar").holds
    assert not check_property(parse_weight("zagreb1"), "Pstarstar").holds


def test_recip_randic_fails_convexity():
    # sqrt(xy) is concave in x, which knocks out both composite properties.
    f = parse_weight("recip-randic")
    assert not check_property(f, "convex_in_x").holds
    assert not check_property(f, "Pstarstar").holds


def _first_violation(f, prop, D, strict):
    """Brute-force check_property: every violation of each chained check,
    listed in grid order; the first one found, else None."""
    def w(x, y):
        return eval_weight(f, x, y)

    grid = range(1, D + 1)
    symmetric = [(x, y) for x in grid for y in grid if w(x, y) != w(y, x)]
    increasing = [
        (x, y) for y in grid for x in range(1, D)
        if (w(x + 1, y) <= w(x, y) if strict else w(x + 1, y) < w(x, y) - 1e-12)
    ]
    convex = [
        (x, y) for y in grid for x in range(1, D - 1)
        if w(x + 2, y) - 2.0 * w(x + 1, y) + w(x, y) < -1e-12
    ]
    # Equal-sum pairs, less balanced one first, by sum, then x1, then x2.
    same_sum = sorted(
        ((x1, y1, x2, y2) for x1 in grid for y1 in range(1, x1 + 1)
         for x2 in grid for y2 in range(1, x2 + 1)
         if x1 + y1 == x2 + y2 and x1 - y1 > x2 - y2),
        key=lambda p: (p[0] + p[1], p[0], p[2]),
    )
    imbalance = [p for p in same_sum if w(p[0], p[1]) < w(p[2], p[3]) - 1e-12]
    balance = [p for p in same_sum if w(p[0], p[1]) >= w(p[2], p[3])]
    chains = {
        "symmetric": [symmetric],
        "increasing_in_x": [increasing],
        "convex_in_x": [convex],
        "Pstar": [increasing, convex, imbalance],
        "Pstarstar": [increasing, convex, balance],
    }
    return next((v for violations in chains[prop] for v in violations), None)


def _seeded_grid_table(seed=22, D=8):
    """Increasing in x (steps >= 2), with noise that can break convexity."""
    rng = random.Random(seed)
    return WeightSpec.from_table({
        (x, y): x * y + x + y + rng.uniform(0.0, 0.5)
        for x in range(1, D + 1) for y in range(1, x + 1)
    })


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "prop", ["symmetric", "increasing_in_x", "convex_in_x", "Pstar", "Pstarstar"]
)
def test_check_property_matches_brute_force(prop, strict):
    weights = [WeightSpec.named(n) for n in NAMED_WEIGHTS]
    weights += [parse_weight("const:2"), _seeded_grid_table()]
    seen = set()
    for f in weights:
        report = check_property(f, prop, max_degree=8, strict=strict)
        expect = _first_violation(f, prop, 8, strict)
        assert (report.holds, report.witness) == (expect is None, expect), str(f)
        assert (report.property, report.grid, report.strict) == (prop, (1, 8), strict)
        seen.add(None if expect is None else len(expect))
    if prop in ("Pstar", "Pstarstar"):
        assert 4 in seen  # some witness comes from the equal-sum comparison


def test_raw_asymmetric_weight_refutes_symmetric():
    report = check_property(WeightSpec("asym", lambda x, y: x), "symmetric", max_degree=8)
    assert (report.holds, report.witness) == (False, (1, 2))


def test_property_grid_too_small():
    with pytest.raises(BadParams):
        check_property(parse_weight("sombor"), "Pstar", max_degree=2)


def test_property_unknown():
    with pytest.raises(BadParams):
        check_property(parse_weight("sombor"), "Pgold")


def test_table_grid_exceeds_support():
    with pytest.raises(MissingTableEntry):
        check_property(TABLE, "increasing_in_x", max_degree=4)


@pytest.mark.parametrize("text", ["const:inf", "table:2,2=inf", "table:2,2=1;3,2=inf"])
def test_non_finite_weights_rejected(text):
    with pytest.raises(BadParams, match="finite"):
        parse_weight(text)


@pytest.mark.parametrize("text", ["const:1e-320", "table:2,2=1;3,2=1e-310"])
def test_subnormal_weights_rejected(text):
    # A subnormal rho cannot meet a relative residual bound: tol * rho
    # underflows, and the solve would run its whole step budget.
    with pytest.raises(BadParams, match="smallest normal float"):
        parse_weight(text)


def _seeded_specs(seed=21, count=30):
    """(spec, its numbers, its old ``:g`` label) for constants and tables on
    awkward values and seeded random ones."""
    rng = random.Random(seed)
    values = [1.2345678, 1.2345679, 1e-05, 2.0, 0.1, 1 / 3, 123456789.0, 1e20]
    values += [rng.uniform(1e-3, 1e3) for _ in range(count)]
    values += [round(rng.uniform(1, 10), rng.randint(0, 9)) for _ in range(count)]
    out = [(WeightSpec.constant(v), [v], f"const:{v:g}") for v in values]
    for _ in range(count):
        pairs = {}
        for _ in range(rng.randint(1, 5)):
            pairs[tuple(sorted((rng.randint(1, 5), rng.randint(1, 5))))] = rng.choice(values)
        body = ";".join(f"{x},{y}={v:g}" for (x, y), v in sorted(pairs.items()))
        out.append((WeightSpec.from_table(pairs), list(pairs.values()), f"table:{body}"))
    return out


def _grid_values(f):
    """f on the degree grid [1, 6]^2, None where a table has no entry."""
    values = []
    for x in range(1, 7):
        for y in range(1, 7):
            try:
                values.append(eval_weight(f, x, y))
            except MissingTableEntry:
                values.append(None)
    return values


def test_labels_read_back_exactly():
    assert [str(WeightSpec.constant(v)) for v in (1.2345678, 1e-05, 2.0, 0.1)] == [
        "const:1.2345678", "const:1e-05", "const:2", "const:0.1"]
    for f, numbers, old in _seeded_specs():
        assert parse_weight(str(f)) == f
        # A label whose :g text already read back prints as before.
        assert (str(f) == old) == all(float(f"{v:g}") == v for v in numbers), (f, old)


def test_specs_are_equal_exactly_when_their_labels_are():
    specs = [f for f, _, _ in _seeded_specs()] + [WeightSpec.named(n) for n in NAMED_WEIGHTS]
    for f in specs:
        for g in specs:
            assert (f == g) == (str(f) == str(g))
            if f == g:
                assert hash(f) == hash(g)
    assert WeightSpec.named("recip_randic") == parse_weight("recip-randic")
    assert WeightSpec.constant(2) == parse_weight("const:2.0")


def test_specs_survive_pickle_and_deepcopy():
    specs = [f for f, _, _ in _seeded_specs()] + [WeightSpec.named(n) for n in NAMED_WEIGHTS]
    for f in specs:
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert g == f
            assert str(g) == str(f)
            assert _grid_values(g) == _grid_values(f)
