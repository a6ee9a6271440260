"""Each graph is solved once per query: reports and certificates reuse the
Perron data they already have instead of solving again.

Every Perron solve goes through ``spectral._power_iteration`` (one graph,
from ``f_spectral_radius``) or ``spectral.perron_values`` (a stack, as
class searches use it), so counting the matrices they receive counts
eigensolves whichever module asks for them. A single-graph solve that is
reduced to a kernel runs the reduction and both of its runs on M inside its
one ``_power_iteration`` call, so it still counts once.
"""

import pytest

from fspectra import search, spectral
from fspectra.cli import main
from fspectra.errors import BadParams, SizeLimit
from fspectra.families import make, parse_family
from fspectra.luman import certify
from fspectra.search import THEOREMS, class_graphs, extremal, report_tsv, verify_theorem
from fspectra.weights import parse_weight


@pytest.fixture
def solves(monkeypatch):
    calls = []
    real = spectral._power_iteration

    def counted(rows, cols, vals, n, *args):
        calls.append(n)
        return real(rows, cols, vals, n, *args)

    real_batch = spectral.perron_values

    def counted_batch(stack, *args, **kwargs):
        calls.extend([stack.shape[1]] * stack.shape[0])
        return real_batch(stack, *args, **kwargs)

    monkeypatch.setattr(spectral, "_power_iteration", counted)
    for module in (spectral, search):
        monkeypatch.setattr(module, "perron_values", counted_batch)
    return calls


@pytest.mark.parametrize(
    "class_name, n, weight, objective, all_tie",
    [
        ("unicyclic", 8, "randic", "min", True),  # rho = 1 on every member
        ("pendant_free_bicyclic", 8, "sombor", "min", False),
        ("trees", 7, "zagreb2", "max", False),
    ],
)
def test_extremal_and_report_solve_once_per_member(
    solves, class_name, n, weight, objective, all_tie
):
    size = len(class_graphs(class_name, n))
    report = extremal(class_name, n, parse_weight(weight), objective)
    text = report_tsv(report)
    assert len(solves) == size
    assert report.examined == size
    assert (len(report.winners) == size) is all_tie
    assert len(text.splitlines()) == len(report.winners) + 2


def test_extremal_refuses_orders_past_the_canonical_ceiling_unsolved(solves):
    # Winners are reported by canonical code, which stops at 12 vertices; the
    # pendant-free class lists past that, so extremal must refuse before scoring.
    with pytest.raises(SizeLimit, match="at most 12 vertices"):
        extremal("pendant_free_bicyclic", 13, parse_weight("sombor"))
    assert solves == []


# The ranges each theorem reads; any other range is refused before any work.
READS = {
    "theta-infty-equality": ("s_values", "t_values"),
    "base-graph-reduction": ("n_values",),
    "theta-minimal": ("m_values",),
    "infty-minimal": ("m_values",),
    "infty-star-domination": ("m_values",),
    "main-bicyclic": ("n_values",),
    "forbidden-subgraphs": ("class_names", "n_values"),
    "max-unicyclic-base": ("n_values",),
    "max-bicyclic-base": ("n_values",),
    "conjecture-pstarstar": ("class_names", "n_values"),
}
# A value each range would accept, so only the theorem can refuse it.
RANGE_VALUES = {
    "s_values": (3,),
    "t_values": (2,),
    "n_values": (8,),
    "m_values": (9,),
    "class_names": ("trees",),
}
UNREAD = [(t, r) for t in THEOREMS for r in RANGE_VALUES if r not in READS[t]]


@pytest.mark.parametrize("theorem, name", UNREAD)
def test_unread_ranges_are_refused_unsolved(solves, theorem, name):
    given = {r: RANGE_VALUES[r] for r in READS[theorem]} | {name: RANGE_VALUES[name]}
    with pytest.raises(BadParams) as caught:
        verify_theorem(theorem, [parse_weight("sombor")], **given)
    message = str(caught.value)
    for word in (theorem, *READS[theorem], name):
        assert word in message
    assert solves == []


@pytest.mark.parametrize(
    "theorem, m",
    [("infty-minimal", 4), ("infty-minimal", 5), ("infty-minimal", 6), ("theta-minimal", 4)],
)
def test_empty_type_class_is_refused_unsolved(solves, theorem, m):
    # No infty-type graph has fewer than 7 edges, and no theta-type graph
    # fewer than 5, whatever the weight.
    kind = theorem.split("-")[0]
    with pytest.raises(BadParams, match=f"^no {kind}-type graph has {m} edges$"):
        verify_theorem(theorem, [parse_weight("sombor")], m_values=(m,))
    assert solves == []


def test_unbalanced_size_is_refused_unsolved(solves):
    # The only infty-type graph with 7 edges is infty:3,3,1, whose cycles
    # and path differ by 2, so no expected winner exists.
    with pytest.raises(BadParams, match="^no balanced infty-type graph has 7 edges$"):
        verify_theorem("infty-minimal", [parse_weight("sombor")], m_values=(7,))
    assert solves == []


def test_certify_solves_once(solves):
    alpha, report = certify(make(parse_family("theta:3,3,2")), parse_weight("sombor"))
    assert len(solves) == 1
    assert report.classification == "normal"
    assert alpha > 0


def test_cli_certify_solves_once(solves, capsys):
    assert main(["certify", "--family", "theta:3,3,2", "--weight", "sombor"]) == 0
    assert "classification normal" in capsys.readouterr().out
    assert len(solves) == 1


@pytest.mark.parametrize("family, refused", [("path:40", True), ("path:90", False)])
def test_certify_solves_once_whether_or_not_it_reduces(monkeypatch, solves, reductions, family, refused):
    # Both paths' residual decay predicts a run on M past the handoff
    # budget, so both reduce; with every pivot refused, path:40's reduction
    # gives up and the run goes on on M.
    if refused:
        monkeypatch.setattr(spectral, "_evaluate", lambda *args: None)
    alpha, report = certify(make(parse_family(family)), parse_weight("sombor"))
    assert len(solves) == 1
    assert [x is None for x in reductions] == [refused]
    assert alpha > 0


def test_cli_rho_solves_once_when_it_reduces(solves, reductions, capsys):
    assert main(["rho", "--family", "path:200", "--weight", "sombor"]) == 0
    assert "rho 5.656156" in capsys.readouterr().out
    assert len(solves) == 1
    assert len(reductions) == 1 and reductions[0] is not None
