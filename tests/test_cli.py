"""End-to-end tests of the command-line interface."""

import warnings

import pytest

from fspectra.cli import main
from fspectra.graph_core import parse_graph_text

TABLE = "table:2,2=1;3,2=2;4,2=2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rho_remark_value(capsys):
    code, out, _ = run(capsys, "rho", "--family", "infty-star:3,3", "--weight", TABLE)
    assert code == 0
    value = float(out.split()[1])
    assert value == pytest.approx(4.5311, abs=5e-4)


def test_rho_cycle_sombor(capsys):
    code, out, _ = run(capsys, "rho", "--family", "cycle:12", "--weight", "sombor")
    assert code == 0
    assert "5.656854" in out


def test_rho_vector(capsys):
    code, out, _ = run(
        capsys, "rho", "--family", "path:3", "--weight", "const:1", "--vector"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("rho ")
    assert len(lines) == 4  # rho plus three vector entries


def test_rho_deterministic(capsys):
    _, first, _ = run(capsys, "rho", "--family", "theta:3,3,2", "--weight", "sombor")
    _, second, _ = run(capsys, "rho", "--family", "theta:3,3,2", "--weight", "sombor")
    assert first == second


def test_rho_from_file(tmp_path, capsys):
    path = tmp_path / "k2.graph"
    path.write_text("2 1\n0 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "rho", "--graph", str(path), "--weight", "zagreb2")
    assert code == 0
    assert "rho 1.000000" in out


def test_spectrum(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "cycle:4", "--weight", "const:1")
    assert code == 0
    values = [float(t) for t in out.split()]
    assert values == pytest.approx([2.0, 0.0, 0.0, -2.0], abs=1e-6)


def test_certify(capsys):
    code, out, _ = run(capsys, "certify", "--family", "theta:2,2,2", "--weight", "sombor")
    assert code == 0
    assert "classification normal" in out
    assert "consistent true" in out
    assert "B 0 " in out


def test_subdivide_roundtrip(capsys):
    code, out, _ = run(capsys, "subdivide", "--family", "cycle:4", "--edge", "0,1")
    assert code == 0
    G = parse_graph_text(out)
    assert (G.n, G.m) == (5, 5)


def test_kelmans_cli(capsys):
    code, out, _ = run(capsys, "kelmans", "--family", "path:5", "--u", "1", "--v", "3")
    assert code == 0
    assert "# moved 0" in out
    assert "# connected true" in out
    assert "# isomorphic_to_input false" in out


def test_enumerate_pendant_free(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--class", "pendant-free-bicyclic", "--order", "5"
    )
    assert code == 0
    assert "# count 3" in out
    assert "infty-star:3,3" in out


def test_enumerate_connected_requires_size(capsys):
    code, _, err = run(capsys, "enumerate", "--class", "connected", "--order", "4")
    assert code == 2
    assert "size" in err


def test_extremal_tsv(capsys):
    code, out, _ = run(
        capsys,
        "extremal",
        "--class",
        "pendant-free-bicyclic",
        "--order",
        "5",
        "--weight",
        TABLE,
        "--objective",
        "min",
    )
    assert code == 0
    assert "infty-star:3,3" in out
    assert "4.531129" in out
    assert "skipped=1" in out


def test_verify_pass(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem",
        "theta-infty-equality",
        "--s",
        "3..4",
        "--t",
        "2..3",
        "--weights",
        "sombor,randic",
    )
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_failure_exit_code(capsys):
    # the randic winner set degenerates (every connected graph has Perron
    # value 1), so this instance fails and the exit code must say so
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem",
        "main-bicyclic",
        "--n",
        "8",
        "--weights",
        "randic",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_weight_list_keeps_table_commas(capsys):
    code, out, err = run(
        capsys,
        "verify",
        "--theorem",
        "theta-minimal",
        "--m",
        "6",
        "--weights",
        "sombor,table:2,2=1;3,2=2;3,3=3,zagreb1",
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "PASS sombor m=6: min theta-type winners ['theta:2,2,2'] expected [theta:2,2,2]",
        "PASS table:2,2=1;2,3=2;3,3=3 m=6: min theta-type winners ['theta:2,2,2']"
        " expected [theta:2,2,2]",
        "PASS zagreb1 m=6: min theta-type winners ['theta:2,2,2'] expected [theta:2,2,2]",
        "# theorem=theta-minimal checks=3 failures=0",
    ]


@pytest.mark.parametrize("theorem, m", [("theta-minimal", "6"), ("infty-star-domination", "9")])
def test_verify_unevaluable_weight_is_a_domain_error(capsys, theorem, m):
    code, out, err = run(
        capsys, "verify", "--theorem", theorem, "--m", m, "--weights", "table:2,2=1"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: no evaluable graphs in the theta-type class at m={m}\n"


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "rho", "--family", "cycle:5")  # missing --weight
    assert code == 2
    code, _, err = run(capsys, "rho", "--family", "cycle:5", "--weight", "sombrero")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "rho", "--family", "nonagon:4", "--weight", "sombor")
    assert code == 2
    code, _, err = run(capsys, "rho", "--graph", "/nonexistent/g", "--weight", "sombor")
    assert code == 2


def test_huge_order_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.graph"
    path.write_text("1000000000 0\n", encoding="utf-8")
    code, _, err = run(capsys, "rho", "--graph", str(path), "--weight", "sombor")
    assert code == 2
    assert "order <= 2000" in err
    code, _, err = run(capsys, "rho", "--family", "path:1000000000", "--weight", "sombor")
    assert code == 2
    assert "order <= 2000" in err


def test_kelmans_long_path(capsys):
    code, out, _ = run(capsys, "kelmans", "--family", "path:1500", "--u", "0", "--v", "2")
    assert code == 0
    assert "# isomorphic_to_input true" in out


def test_verify_near_tied_eigenvalues(capsys):
    # infty:3,3,43 is in the class; its top two eigenvalues are 1.8e-15 apart.
    code, out, _ = run(
        capsys, "verify", "--theorem", "infty-minimal", "--m", "49", "--weights", "sombor"
    )
    assert code == 0
    assert out.splitlines() == [
        "PASS sombor m=49: min infty-type winners ['infty:16,16,17'] expected [infty:16,16,17]",
        "# theorem=infty-minimal checks=1 failures=0",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("rho", "--family", "cycle:5", "--weight", "const:inf"), "finite"),
        (("rho", "--family", "cycle:5", "--weight", "table:2,2=inf"), "finite"),
        (("rho", "--family", "cycle:5", "--weight", "sombor", "--tol", "nan"), "tol"),
        (("extremal", "--class", "trees", "--order", "6", "--weight", "sombor",
          "--tie-tol", "nan"), "tie_tol"),
        (("extremal", "--class", "trees", "--order", "6", "--weight", "sombor",
          "--tie-tol", "-1"), "tie_tol"),
        (("verify", "--theorem", "main-bicyclic", "--weights", "sombor", "--n", "12..8"),
         "empty range"),
        (("verify", "--theorem", "main-bicyclic", "--weights", "sombor", "--n", "8..x"),
         "bad range"),
        (("rho", "--family", "cycle:5", "--weight", "const:1e308"), "finite"),
        (("certify", "--family", "cycle:5", "--weight", "sombor", "--tol", "nan"), "tol"),
        (("certify", "--family", "cycle:5", "--weight", "sombor", "--tol", "-1"), "tol"),
    ],
)
def test_bad_numeric_arguments_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_class_search_rejects_overflowing_row_sums(capsys):
    # Row sums of 5e308 overflow: the batched solve must say so up front,
    # before numpy can warn about the overflow.
    argv = ("extremal", "--class", "trees", "--order", "6", "--weight", "const:1e308")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: matrix entries and row sums must be finite, got row sum inf\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
