"""Pinned output of every named verification at small ranges.

Each case fixes the exact check lines, the verdict (``passed``: None when
every line is OBS, else whether no line is FAIL) and the CLI exit code of
one ``verify`` run. Randic cases are all-tie searches, so they also pin the
canonical order of the winners behind each line.
"""

import pytest

from fspectra.cli import _parse_range, main
from fspectra.errors import BadParams
from fspectra.families import identify_pendant_free_bicyclic
from fspectra.search import (
    THEOREMS,
    _min_specs,
    enumerate_pendant_free_bicyclic,
    extremal,
    verify_theorem,
)
from fspectra.weights import parse_weight

CASES = [
    (
        "theta-infty-equality",
        "sombor,zagreb1",
        ("--s", "3", "--t", "2..3"),
        True,
        """\
PASS sombor theta(3,3,2)=8.118038735 infty(3,3,2)=8.118038735
PASS sombor theta(3,3,3)=7.817337800 infty(3,3,3)=7.817337800
PASS zagreb1 theta(3,3,2)=11.288889346 infty(3,3,2)=11.288889346
PASS zagreb1 theta(3,3,3)=10.888194417 infty(3,3,3)=10.888194417
""",
    ),
    (
        "base-graph-reduction",
        "sombor",
        ("--n", "6..7"),
        True,
        """\
PASS sombor n=6: min winner pendant-free (rho=8.457653)
PASS sombor n=7: min winner pendant-free (rho=8.118039)
PASS sombor n=7: min winner pendant-free (rho=8.118039)
""",
    ),
    (
        "base-graph-reduction",
        "randic",
        ("--n", "5"),
        False,
        """\
FAIL randic n=5: min winner pendant-free (rho=1.000000)
PASS randic n=5: min winner pendant-free (rho=1.000000)
FAIL randic n=5: min winner pendant-free (rho=1.000000)
PASS randic n=5: min winner pendant-free (rho=1.000000)
PASS randic n=5: min winner pendant-free (rho=1.000000)
""",
    ),
    (
        "theta-minimal",
        "sombor,randic",
        ("--m", "6..7"),
        False,
        """\
PASS sombor m=6: min theta-type winners ['theta:2,2,2'] expected [theta:2,2,2]
PASS sombor m=7: min theta-type winners ['theta:2,2,3'] expected [theta:2,2,3]
FAIL randic m=6: min theta-type winners ['theta:1,2,3', 'theta:2,2,2'] expected [theta:2,2,2]
FAIL randic m=7: min theta-type winners ['theta:1,2,4', 'theta:1,3,3', 'theta:2,2,3'] expected [theta:2,2,3]
""",
    ),
    (
        "infty-minimal",
        "sombor,zagreb1",
        ("--m", "8..9"),
        True,
        """\
PASS sombor m=8: min infty-type winners ['infty:3,3,2'] expected [infty:3,3,2]
PASS sombor m=9: min infty-type winners ['infty:3,3,3'] expected [infty:3,3,3]
PASS zagreb1 m=8: min infty-type winners ['infty:3,3,2'] expected [infty:3,3,2]
PASS zagreb1 m=9: min infty-type winners ['infty:3,3,3'] expected [infty:3,3,3]
""",
    ),
    (
        "infty-star-domination",
        "sombor,randic",
        ("--m", "9..10"),
        False,
        """\
PASS sombor m=9: best theta 7.817338 < infty-star(3,6) 9.999412
PASS sombor m=9: best theta 7.817338 < infty-star(4,5) 9.680906
PASS sombor m=10: best theta 7.680721 < infty-star(3,7) 9.988531
PASS sombor m=10: best theta 7.680721 < infty-star(4,6) 9.641417
PASS sombor m=10: best theta 7.680721 < infty-star(5,5) 9.558358
FAIL randic m=9: best theta 1.000000 < infty-star(3,6) 1.000000
FAIL randic m=9: best theta 1.000000 < infty-star(4,5) 1.000000
FAIL randic m=10: best theta 1.000000 < infty-star(3,7) 1.000000
FAIL randic m=10: best theta 1.000000 < infty-star(4,6) 1.000000
FAIL randic m=10: best theta 1.000000 < infty-star(5,5) 1.000000
""",
    ),
    (
        "main-bicyclic",
        "sombor,randic",
        ("--n", "8"),
        False,
        """\
PASS sombor n=8: winners ['infty:3,3,3', 'theta:3,3,3'] expected ['infty:3,3,3', 'theta:3,3,3']
FAIL randic n=8: winners ['infty-star:3,6', 'infty-star:4,5', 'infty:3,3,3', 'infty:3,4,2', 'infty:3,5,1', 'infty:4,4,1', 'theta:1,2,6', 'theta:1,3,5', 'theta:1,4,4', 'theta:2,2,5', 'theta:2,3,4', 'theta:3,3,3'] expected ['infty:3,3,3', 'theta:3,3,3']
""",
    ),
    (
        "forbidden-subgraphs",
        "sombor",
        ("--classes", "trees,unicyclic", "--n", "6"),
        True,
        """\
PASS sombor trees n=6: max winner avoids all six fixtures
PASS sombor unicyclic n=6: max winner avoids all six fixtures
""",
    ),
    (
        "forbidden-subgraphs",
        "randic",
        ("--classes", "trees", "--n", "6"),
        False,
        """\
PASS randic trees n=6: max winner avoids all six fixtures
PASS randic trees n=6: max winner avoids all six fixtures
PASS randic trees n=6: max winner avoids all six fixtures
FAIL randic trees n=6: max winner avoids all six fixtures
FAIL randic trees n=6: max winner avoids all six fixtures
FAIL randic trees n=6: max winner avoids all six fixtures
""",
    ),
    (
        "max-unicyclic-base",
        "sombor,zagreb2",
        ("--n", "5..6"),
        True,
        """\
PASS sombor n=5: max unicyclic winner has base C3
PASS sombor n=6: max unicyclic winner has base C3
PASS zagreb2 n=5: max unicyclic winner has base C3
PASS zagreb2 n=6: max unicyclic winner has base C3
""",
    ),
    (
        "max-unicyclic-base",
        "randic",
        ("--n", "5"),
        False,
        """\
PASS randic n=5: max unicyclic winner has base C3
PASS randic n=5: max unicyclic winner has base C3
FAIL randic n=5: max unicyclic winner has base C3
PASS randic n=5: max unicyclic winner has base C3
FAIL randic n=5: max unicyclic winner has base C3
""",
    ),
    (
        "max-bicyclic-base",
        "sombor,zagreb2",
        ("--n", "5..6"),
        True,
        """\
PASS sombor n=5: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)
PASS sombor n=6: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)
PASS zagreb2 n=5: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)
PASS zagreb2 n=6: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)
""",
    ),
    (
        "max-bicyclic-base",
        "randic",
        ("--n", "5"),
        False,
        """\
PASS randic n=5: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)
PASS randic n=5: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)
PASS randic n=5: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)
FAIL randic n=5: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)
FAIL randic n=5: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)
""",
    ),
    (
        "conjecture-pstarstar",
        "zagreb2",
        ("--classes", "trees,unicyclic,bicyclic", "--n", "6"),
        None,
        """\
OBS zagreb2 trees n=6: observed max differs from conjectured double-star:3,3 (rho=11.180340)
OBS zagreb2 unicyclic n=6: observed max differs from conjectured c3:2,1,0 (rho=18.486833)
OBS zagreb2 bicyclic n=6: observed max matches conjectured theta122:1,1 (rho=26.330303)
""",
    ),
]

_KWARGS = {"--s": "s_values", "--t": "t_values", "--n": "n_values", "--m": "m_values"}


def _kwargs(flags):
    out = {}
    for flag, value in zip(flags[::2], flags[1::2]):
        if flag == "--classes":
            out["class_names"] = value.split(",")
        else:
            out[_KWARGS[flag]] = _parse_range(value)
    return out


def test_cases_cover_every_theorem():
    assert {case[0] for case in CASES} == set(THEOREMS)


@pytest.mark.parametrize("theorem, weights, flags, passed, text", CASES)
def test_verify_text_pinned(theorem, weights, flags, passed, text):
    report = verify_theorem(theorem, [parse_weight(w) for w in weights.split(",")], **_kwargs(flags))
    statuses = {c.status for c in report.checks}
    assert passed is (None if statuses <= {"OBS"} else "FAIL" not in statuses)
    assert "".join(f"{c.status} {c.text}\n" for c in report.checks) == text


@pytest.mark.parametrize("theorem, weights, flags, passed, text", CASES)
def test_verify_cli_pinned(capsys, theorem, weights, flags, passed, text):
    code = main(["verify", "--theorem", theorem, "--weights", weights, *flags])
    lines = text.splitlines()
    fails = sum(1 for line in lines if line.startswith("FAIL "))
    summary = f"# theorem={theorem} checks={len(lines)} failures={fails}\n"
    assert capsys.readouterr().out == text + summary
    assert code == (1 if passed is False else 0)


@pytest.mark.parametrize(
    "theorem, kwargs",
    [
        ("infty-star-domination", {"m_values": (8,)}),
        ("main-bicyclic", {"n_values": (7,)}),
        ("conjecture-pstarstar", {"class_names": ("pendant_free_bicyclic",), "n_values": (6,)}),
    ],
)
def test_verify_out_of_range_raises(theorem, kwargs):
    with pytest.raises(BadParams):
        verify_theorem(theorem, [parse_weight("sombor")], **kwargs)


# Every theorem under sombor with no range option, so each check's own
# defaults: s 3..5 and t 2..4, n 8, m 9, and all three search classes.
DEFAULT_RANGES = {
    "theta-infty-equality": """\
PASS sombor theta(3,3,2)=8.118038735 infty(3,3,2)=8.118038735
PASS sombor theta(3,3,3)=7.817337800 infty(3,3,3)=7.817337800
PASS sombor theta(3,3,4)=7.680721120 infty(3,3,4)=7.680721120
PASS sombor theta(4,4,2)=7.823230855 infty(4,4,2)=7.823230855
PASS sombor theta(4,4,3)=7.546621679 infty(4,4,3)=7.546621679
PASS sombor theta(4,4,4)=7.416198487 infty(4,4,4)=7.416198487
PASS sombor theta(5,5,2)=7.686860501 infty(5,5,2)=7.686860501
PASS sombor theta(5,5,3)=7.416561847 infty(5,5,3)=7.416561847
PASS sombor theta(5,5,4)=7.286973065 infty(5,5,4)=7.286973065
# theorem=theta-infty-equality checks=9 failures=0
""",
    "base-graph-reduction": """\
PASS sombor n=8: min winner pendant-free (rho=7.817338)
PASS sombor n=8: min winner pendant-free (rho=7.817338)
# theorem=base-graph-reduction checks=2 failures=0
""",
    "theta-minimal": """\
PASS sombor m=9: min theta-type winners ['theta:3,3,3'] expected [theta:3,3,3]
# theorem=theta-minimal checks=1 failures=0
""",
    "infty-minimal": """\
PASS sombor m=9: min infty-type winners ['infty:3,3,3'] expected [infty:3,3,3]
# theorem=infty-minimal checks=1 failures=0
""",
    "infty-star-domination": """\
PASS sombor m=9: best theta 7.817338 < infty-star(3,6) 9.999412
PASS sombor m=9: best theta 7.817338 < infty-star(4,5) 9.680906
# theorem=infty-star-domination checks=2 failures=0
""",
    "main-bicyclic": """\
PASS sombor n=8: winners ['infty:3,3,3', 'theta:3,3,3'] expected ['infty:3,3,3', 'theta:3,3,3']
# theorem=main-bicyclic checks=1 failures=0
""",
    "forbidden-subgraphs": """\
PASS sombor trees n=8: max winner avoids all six fixtures
PASS sombor unicyclic n=8: max winner avoids all six fixtures
PASS sombor bicyclic n=8: max winner avoids all six fixtures
# theorem=forbidden-subgraphs checks=3 failures=0
""",
    "max-unicyclic-base": """\
PASS sombor n=8: max unicyclic winner has base C3
# theorem=max-unicyclic-base checks=1 failures=0
""",
    "max-bicyclic-base": """\
PASS sombor n=8: max bicyclic winner has base theta(1,2,2) or theta(2,2,2)
# theorem=max-bicyclic-base checks=1 failures=0
""",
    "conjecture-pstarstar": """\
OBS sombor trees n=8: observed max differs from conjectured double-star:4,4 (rho=18.708287)
OBS sombor unicyclic n=8: observed max differs from conjectured c3:3,2,0 (rho=19.343071)
OBS sombor bicyclic n=8: observed max differs from conjectured theta122:2,2 (rho=20.413054)
# theorem=conjecture-pstarstar checks=3 failures=0
""",
}


def test_default_ranges_cover_every_theorem():
    assert tuple(DEFAULT_RANGES) == THEOREMS


@pytest.mark.parametrize("theorem", sorted(DEFAULT_RANGES))
def test_verify_default_ranges_pinned(capsys, theorem):
    code = main(["verify", "--theorem", theorem, "--weights", "sombor"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, DEFAULT_RANGES[theorem], "")


def test_main_bicyclic_runs_past_the_canonical_order(capsys):
    code = main(["verify", "--theorem", "main-bicyclic", "--n", "13..16", "--weights", "sombor"])
    assert capsys.readouterr().out == """\
PASS sombor n=13: winners ['infty:5,5,4', 'theta:4,5,5'] expected ['infty:5,5,4', 'theta:4,5,5']
PASS sombor n=14: winners ['infty:5,5,5', 'theta:5,5,5'] expected ['infty:5,5,5', 'theta:5,5,5']
PASS sombor n=15: winners ['infty:5,5,6', 'theta:5,5,6'] expected ['infty:5,5,6', 'theta:5,5,6']
PASS sombor n=16: winners ['infty:6,6,5', 'theta:5,6,6'] expected ['infty:6,6,5', 'theta:5,6,6']
# theorem=main-bicyclic checks=4 failures=0
"""
    assert code == 0


@pytest.mark.parametrize(
    "argv, line",
    [
        (("main-bicyclic", "--n", "66..66"),
         "PASS sombor n=66: winners ['infty:22,22,23', 'theta:22,22,23'] "
         "expected ['infty:22,22,23', 'theta:22,22,23']"),
        (("infty-minimal", "--m", "67..67"),
         "PASS sombor m=67: min infty-type winners ['infty:22,22,23'] "
         "expected [infty:22,22,23]"),
    ],
    ids=["main-bicyclic-n66", "infty-minimal-m67"],
)
def test_near_ties_below_1e7_stay_apart(capsys, argv, line):
    # The runner-up trails the balanced winner by less than 1e-7 here; each
    # solve's error half-width is near 1e-13, so the two do not tie.
    theorem, *flags = argv
    code = main(["verify", "--theorem", theorem, "--weights", "sombor", *flags])
    assert capsys.readouterr().out.splitlines() == [
        line, f"# theorem={theorem} checks=1 failures=0"
    ]
    assert code == 0


@pytest.mark.parametrize("weight", ["sombor", "zagreb1", "table:2,2=1;2,3=2;3,3=2"])
def test_main_bicyclic_spec_winners_match_the_class_search(weight):
    # The table lacks (2,4), so the class search skips the infty-star members.
    f = parse_weight(weight)
    for n in range(8, 13):
        specs = enumerate_pendant_free_bicyclic(n)
        report = extremal("pendant_free_bicyclic", n, f)
        stars = sum(sp.kind == "infty_star" for sp in specs)
        assert report.skipped == (stars if weight.startswith("table") else 0)
        expect = {str(identify_pendant_free_bicyclic(G)) for G in report.winners}
        assert _min_specs(specs, f, "") == expect


def test_theta_infty_equality_missing_table_pair(capsys):
    argv = ["--theorem", "theta-infty-equality", "--s", "3", "--t", "2", "--weights", "table:2,2=1"]
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr().err == "error: no table entry for degree pair (3, 2)\n"
