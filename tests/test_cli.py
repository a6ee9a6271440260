"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import os
import subprocess
import sys
import warnings

import pytest

import fspectra
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


@pytest.mark.parametrize(
    "argv",
    [
        ("subdivide", "--family", "theta:3,3,2", "--edge", "0,2"),
        ("kelmans", "--family", "path:6", "--u", "1", "--v", "3"),
    ],
)
def test_out_file_holds_the_graph_text_stdout_would_show(tmp_path, capsys, argv):
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.graph"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, err) == (0, "")
    text = path.read_text(encoding="utf-8")
    # stdout keeps only kelmans' '#' report lines; the graph goes to the file
    assert out + text == plain
    assert all(line.startswith("#") for line in out.splitlines())
    assert parse_graph_text(text).m > 0


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


# sha256 of the whole stdout of `enumerate --class <class> --order 8`: one
# canonically labeled representative per line, in canonical order.
ENUMERATE_DIGESTS = {
    "unicyclic": "6e85aadee52027edafc61ecbd599a8ba4c9e72433e85f6dbbb51fcc3a019d886",
    "bicyclic": "59c9d08c29242f472544d77039bddd30a18e266f69ffd9bc197be9ca341b3a29",
}


@pytest.mark.parametrize("class_name", sorted(ENUMERATE_DIGESTS))
def test_enumerate_output_pinned(capsys, class_name):
    code, out, _ = run(capsys, "enumerate", "--class", class_name, "--order", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[class_name]


# sha256 of the stdout of `enumerate --class trees --order 10`, and of
# `extremal --class trees --order 10 --weight randic` up to its elapsed time
# (randic ties all 106 trees), taken when trees still grew leaf by leaf.
TREE_DIGESTS = {
    "enumerate": "ef36e3e3d8d901eb84a4e94142fd2c9e0c78a49437bcb020e49976bb148e1527",
    "extremal": "cced133d0781d4dd1a0e1b4a33a3453d6a4284ac35679a1e83af0aa75ee33db9",
}


@pytest.mark.parametrize("command", sorted(TREE_DIGESTS))
def test_tree_outputs_pinned(capsys, command):
    weight = ("--weight", "randic") if command == "extremal" else ()
    code, out, _ = run(capsys, command, "--class", "trees", "--order", "10", *weight)
    assert code == 0
    text = out.split("\telapsed=")[0]
    assert hashlib.sha256(text.encode()).hexdigest() == TREE_DIGESTS[command]


@pytest.mark.parametrize("order, winner", [(1, "0.000000\t-\t1:"), (2, "1.414214\t-\t2:1")])
def test_extremal_trees_of_order_1_and_2(capsys, order, winner):
    code, out, _ = run(capsys, "extremal", "--class", "trees", "--order", str(order),
                       "--weight", "sombor")
    assert code == 0
    assert out.split("\telapsed=")[0] == (
        f"# class=trees\torder={order}\tweight=sombor\tobjective=min\n"
        f"{winner}\n# value={winner.split()[0]}\texamined=1\tskipped=0"
    )


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


def test_verify_observation_only_exit_code(capsys):
    # conjecture-pstarstar only observes: no PASS and no FAIL line, exit 0
    code, out, err = run(
        capsys, "verify", "--theorem", "conjecture-pstarstar", "--n", "8", "--weights", "sombor"
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 4 and all(line.startswith("OBS sombor ") for line in lines[:3])
    assert lines[3] == "# theorem=conjecture-pstarstar checks=3 failures=0"


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


def test_verify_labels_tell_nearby_constants_apart(capsys):
    code, out, err = run(
        capsys, "verify", "--theorem", "theta-minimal", "--m", "9",
        "--weights", "const:1.2345678,const:1.2345679",
    )
    assert (code, err) == (0, "")
    labels = [line.split(" m=")[0] for line in out.splitlines()[:2]]
    assert labels == ["PASS const:1.2345678", "PASS const:1.2345679"]


@pytest.mark.parametrize("theorem, m", [("theta-minimal", "6"), ("infty-star-domination", "9")])
def test_verify_unevaluable_weight_is_a_domain_error(capsys, theorem, m):
    code, out, err = run(
        capsys, "verify", "--theorem", theorem, "--m", m, "--weights", "table:2,2=1"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: no evaluable graphs in the theta-type class at m={m}\n"


@pytest.mark.parametrize(
    "theorem, flags, message",
    [
        ("main-bicyclic", ("--m", "20"), "theorem main-bicyclic reads n_values"),
        ("main-bicyclic", ("--m", "20", "--s", "9"), "m_values, s_values"),
        ("main-bicyclic", ("--s", "9"), "s_values"),
        ("theta-minimal", ("--classes", "trees"), "theorem theta-minimal reads m_values"),
    ],
)
def test_verify_refuses_ranges_the_theorem_does_not_read(capsys, theorem, flags, message):
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--weights", "sombor", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_verify_empty_family_class_is_a_domain_error(capsys):
    code, out, err = run(
        capsys, "verify", "--theorem", "infty-minimal", "--m", "5", "--weights", "sombor"
    )
    assert (code, out, err) == (2, "", "error: no infty-type graph has 5 edges\n")


def test_verify_size_with_no_balanced_graph_is_a_domain_error(capsys):
    code, out, err = run(
        capsys, "verify", "--theorem", "infty-minimal", "--m", "7", "--weights", "sombor"
    )
    assert (code, out, err) == (2, "", "error: no balanced infty-type graph has 7 edges\n")


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
        (("enumerate", "--class", "trees", "--order", "5", "--size", "9"),
         "no other class takes it"),
        # Past the order where make stops; refused before any spec is listed.
        (("verify", "--theorem", "main-bicyclic", "--weights", "sombor", "--n", "2001..2001"),
         "pendant-free bicyclic graphs need order <= 2000, got 2001"),
        (("verify", "--theorem", "main-bicyclic", "--weights", "sombor", "--n", "12..8"),
         "empty range"),
        (("verify", "--theorem", "main-bicyclic", "--weights", "sombor", "--n", "8..x"),
         "bad range"),
        (("rho", "--family", "cycle:5", "--weight", "const:1e308"), "finite"),
        (("certify", "--family", "cycle:5", "--weight", "sombor", "--tol", "nan"), "tol"),
        (("certify", "--family", "cycle:5", "--weight", "sombor", "--tol", "-1"), "tol"),
        # The class checks speak of trees, unicyclic and bicyclic graphs only:
        # the pendant-free bicyclic max winner at n = 8 (infty-star:3,6)
        # contains an induced P5, so checking it would print a false FAIL.
        (("verify", "--theorem", "forbidden-subgraphs", "--weights", "sombor",
          "--classes", "trees,pendant_free_bicyclic", "--n", "8"),
         "verify classes are trees, unicyclic and bicyclic, not 'pendant_free_bicyclic'"),
        (("verify", "--theorem", "conjecture-pstarstar", "--weights", "sombor",
          "--classes", "pendant_free_bicyclic", "--n", "8"),
         "not 'pendant_free_bicyclic'"),
        (("rho", "--family", "cycle:5", "--weight", "table:2,3=1;3,2=2"),
         "conflicting table values for pair (2, 3)"),
        # Refused before the class is listed.
        (("extremal", "--class", "pendant-free-bicyclic", "--order", "13", "--weight", "sombor"),
         "canonical form supports at most 12 vertices"),
        # A range is never listed, so a huge one reaches the theorem's own refusal.
        (("verify", "--theorem", "main-bicyclic", "--weights", "sombor",
          "--n", "1..1000000000000000000"),
         "main theorem instances need order >= 8"),
        (("verify", "--theorem", "theta-minimal", "--weights", "sombor",
          "--m", "1..1000000000000000000"),
         "no theta-type graph has 1 edges"),
        # rho = 2.2e-300 is found, but alpha = rho^-2 is past the largest float.
        (("certify", "--family", "theta:3,3,40", "--weight", "const:1e-300"),
         "alpha = rho^-2 is not a finite float"),
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


def test_rho_on_a_long_infty_under_randic_is_one(capsys):
    # rho = 1 exactly under randic on a connected graph. The odd cycles put
    # lambda_n near -1 and the long path puts lambda_2 near 1; the residual's
    # decay predicts a long run on M by step 15, and the series reduction on
    # the two hubs ends the solve at the next check.
    code, out, err = run(capsys, "rho", "--family", "infty:3,3,1500", "--weight", "randic")
    assert (code, out, err) == (0, "rho 1.000000\n", "")


@pytest.mark.parametrize("family, weight", [("infty:3,3,43", "sombor"), ("theta:60,60,61", "const:1")])
def test_certify_a_graph_made_of_chains_is_normal(capsys, family, weight):
    # Reduced on its two hubs, the Perron vector is accurate entry by entry,
    # so each vertex's incidence sums to 1 within rounding. A run on M alone,
    # accurate only in max norm, left largest vertex slacks of 9.5e-7 and
    # 1.7e-8, and read strictly_subnormal.
    code, out, err = run(capsys, "certify", "--family", family, "--weight", weight)
    assert (code, err) == (0, "")
    assert "classification normal" in out.splitlines()
    slack = next(line for line in out.splitlines() if line.startswith("max_vertex_slack"))
    assert float(slack.split()[1]) <= 1e-13


def test_certify_refuses_a_perron_entry_below_the_double_range(capsys):
    # The short paths' interior entries of theta:3,3,40 under this table are
    # about 1e-602: they read 0, and the principal incidence would divide by them.
    argv = ("certify", "--family", "theta:3,3,40", "--weight", "table:2,2=1e150;2,3=1e-150;3,3=1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: principal incidence needs a positive Perron vector, but vertex 2's entry reads 0\n"
    assert caught == []


def test_abc_on_k2_is_exactly_zero_and_has_no_alpha(capsys):
    # abc(1,1) = sqrt((1 + 1 - 2) / 1) = 0, so the matrix of K_2 is zero:
    # rho = 0 is exact, and alpha = 1/rho does not exist.
    code, out, err = run(capsys, "rho", "--family", "path:2", "--weight", "abc")
    assert (code, out, err) == (0, "rho 0.000000\n", "")
    code, out, err = run(capsys, "certify", "--family", "path:2", "--weight", "abc")
    assert (code, out) == (2, "")
    assert err == "error: alpha is undefined for a graph with rho = 0\n"


def test_enumerate_order_ceiling(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "trees", "--order", "11")
    assert code == 0
    assert out.endswith("# count 235\n")
    for argv in (("--class", "trees", "--order", "13"),
                 ("--class", "connected", "--order", "10", "--size", "12")):
        code, out, err = run(capsys, "enumerate", *argv)
        assert (code, out) == (2, "")
        assert "enumeration supports order <= 12" in err


@pytest.mark.parametrize(
    "argv, status",
    [(("certify", "--family", "theta:60,60,61", "--weight", "sombor"), 0),
     (("verify", "--theorem", "infty-star-domination", "--weights", "randic", "--m", "9..10"), 1)],
)
def test_a_reader_that_closes_early_keeps_the_exit_status(argv, status):
    # As `fspectra ... | head -n 1`: the reader takes one line and closes the
    # pipe, which the CLI may still be writing to. 20 runs, 4 at a time.
    path = [os.path.dirname(os.path.dirname(fspectra.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for _ in range(5):
        with contextlib.ExitStack() as stack:
            procs = [stack.enter_context(subprocess.Popen(
                [sys.executable, "-m", "fspectra.cli", *argv], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)) for _ in range(4)]
            for proc in procs:
                first = proc.stdout.readline()
                proc.stdout.close()
                assert first != b""
                assert (proc.wait(timeout=60), proc.stderr.read()) == (status, b"")
