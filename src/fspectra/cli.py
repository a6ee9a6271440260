"""Command-line interface.

Subcommands: rho, spectrum, certify, subdivide, kelmans, enumerate,
extremal, verify. Numeric output uses 6 decimal places (round-half-even,
Python's default float formatting). Exit codes: 0 success, 1 verification
failure, 2 usage or domain error; a reader that closes the pipe early does
not change them.

``certify`` and ``kelmans`` import their modules when they run, so the
other subcommands never load ``luman`` or ``transforms``.
"""

import argparse
import os
import sys

from . import search
from .errors import FspectraError
from .families import identify_pendant_free_bicyclic, make, parse_family
from .graph_core import format_graph_text, read_graph_file, subdivided, write_graph_file
from .spectral import (
    DEFAULT_TOL,
    check_spectrum_order,
    f_adjacency,
    f_spectral_radius,
    full_spectrum,
)
from .weights import parse_weight, parse_weights


def _add_graph_source(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", help="path to a graph file (format: 'n m' then edges)")
    group.add_argument("--family", help="family spec, e.g. theta:3,3,2 or cycle:8")


def _load_graph(args):
    if args.graph:
        return read_graph_file(args.graph)
    return make(parse_family(args.family))


def _parse_edge(text):
    try:
        u, v = (int(t) for t in text.split(","))
    except ValueError:
        raise FspectraError(f"bad edge {text!r}; expected 'u,v'") from None
    return (u, v)


def _parse_range(text):
    """'3..5' -> range(3, 6); '4' -> range(4, 5). Rejects an empty range such
    as '5..3'. Nothing is listed, so a huge range costs nothing until the
    theorem reads it."""
    lo, dots, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if dots else lo
    except ValueError:
        raise FspectraError(f"bad range {text!r}; expected 'a..b' or 'a'") from None
    if lo > hi:
        raise FspectraError(f"empty range {text!r}")
    return range(lo, hi + 1)


_CLASS_CHOICES = [c.replace("_", "-") for c in search.SEARCH_CLASSES]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fspectra",
        description="Spectral radii of degree-weighted adjacency matrices: "
        "computation, certification, transformation, and extremal search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="Perron value of the weighted adjacency matrix")
    _add_graph_source(p)
    p.add_argument("--weight", required=True, help="weight spec, e.g. sombor or table:2,2=1;3,2=2")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--vector", action="store_true", help="also print the eigenvector")

    p = sub.add_parser("spectrum", help="all eigenvalues, descending")
    _add_graph_source(p)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("certify", help="principal incidence matrix and its classification")
    _add_graph_source(p)
    p.add_argument("--weight", required=True)
    p.add_argument("--tol", type=float, help="normality tolerance (default: luman.NORMALITY_TOL)")

    p = sub.add_parser("subdivide", help="subdivide one edge; emits the new graph")
    _add_graph_source(p)
    p.add_argument("--edge", required=True, help="edge as 'u,v'")
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("kelmans", help="Kelmans operation on two vertices")
    _add_graph_source(p)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("enumerate", help="isomorph-free graph lists at small order")
    p.add_argument(
        "--class", dest="class_name", required=True, choices=[*_CLASS_CHOICES, "connected"]
    )
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--size", type=int, help="edge count (for --class connected)")

    p = sub.add_parser("extremal", help="extremal rho_f over an enumerated class")
    p.add_argument("--class", dest="class_name", required=True, choices=_CLASS_CHOICES)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--objective", choices=["min", "max"], default="min")

    p = sub.add_parser("verify", help="run a named verification; exit 1 on failure")
    p.add_argument("--theorem", required=True, choices=list(search.THEOREMS))
    p.add_argument(
        "--weights",
        required=True,
        help="comma-separated weight specs, e.g. sombor,table:2,2=1;3,2=2",
    )
    p.add_argument("--s", help="range a..b for s parameters")
    p.add_argument("--t", help="range a..b for t parameters")
    p.add_argument("--n", help="range a..b of graph orders")
    p.add_argument("--m", help="range a..b of graph sizes")
    p.add_argument(
        "--classes", help="comma-separated search classes (trees,unicyclic,bicyclic)"
    )
    return parser


def _cmd_rho(args):
    G = _load_graph(args)
    f = parse_weight(args.weight)
    res = f_spectral_radius(G, f, tol=args.tol)
    print(f"rho {res.rho:.6f}")
    if args.vector:
        for i, x in enumerate(res.vector):
            print(f"x{i} {x:.6f}")
    return 0


def _cmd_spectrum(args):
    G = _load_graph(args)
    f = parse_weight(args.weight)
    check_spectrum_order(G.n)
    for lam in full_spectrum(f_adjacency(G, f)):
        print(f"{lam:.6f}")
    return 0


def _cmd_certify(args):
    from .luman import NORMALITY_TOL, certify

    G = _load_graph(args)
    f = parse_weight(args.weight)
    tol = NORMALITY_TOL if args.tol is None else args.tol
    alpha, report = certify(G, f, tol=tol)
    print(f"alpha {alpha:.12g}")
    print(f"classification {report.classification}")
    print(f"consistent {str(report.consistent).lower()}")
    print(f"max_vertex_slack {max(abs(s) for s in report.vertex_slack.values()):.3e}")
    print(f"max_edge_slack {max(abs(s) for s in report.edge_slack.values()):.3e}")
    for (v, e), val in sorted(report.incidence.items()):
        print(f"B {v} {e[0]}-{e[1]} {val:.6f}")
    return 0


def _emit_graph(G, out):
    if out:
        write_graph_file(G, out)
    else:
        sys.stdout.write(format_graph_text(G))


def _cmd_subdivide(args):
    G = _load_graph(args)
    _emit_graph(subdivided(G, _parse_edge(args.edge)), args.out)
    return 0


def _cmd_kelmans(args):
    from .transforms import kelmans

    G = _load_graph(args)
    res = kelmans(G, args.u, args.v)
    print(f"# moved {','.join(str(w) for w in res.moved) or '-'}")
    print(f"# connected {str(res.connected).lower()}")
    print(f"# isomorphic_to_input {str(res.isomorphic_to_input).lower()}")
    print(f"# endpoints_nonadjacent {str(res.endpoints_nonadjacent).lower()}")
    _emit_graph(res.graph, args.out)
    return 0


def _cmd_enumerate(args):
    if (args.class_name == "connected") != (args.size is not None):
        raise FspectraError("--class connected requires --size, and no other class takes it")
    name = args.class_name.replace("-", "_")
    if name == "pendant_free_bicyclic":
        listed = search.iter_pendant_free_bicyclic(args.order)
        members = ((str(spec), make(spec)) for spec in listed)
    else:
        size = args.size if name == "connected" else args.order + search.EXCESS[name]
        listed = search.enumerate_connected(args.order, size)
        members = ((str(identify_pendant_free_bicyclic(G) or "-"), G) for G in listed)
    count = 0
    for count, (tag, G) in enumerate(members, 1):
        edges = ",".join(f"{u}-{v}" for u, v in G.sorted_edges())
        print(f"{tag}\t{G.n} {G.m}\t{edges}")
    print(f"# count {count}")
    return 0


def _cmd_extremal(args):
    f = parse_weight(args.weight)
    report = search.extremal(args.class_name.replace("-", "_"), args.order, f, args.objective)
    sys.stdout.write(search.report_tsv(report))
    return 0


def _cmd_verify(args):
    weights = parse_weights(args.weights)
    # Only the ranges given go on: the theorem has its own defaults.
    ranges = {f"{k}_values": _parse_range(getattr(args, k)) for k in "stnm" if getattr(args, k)}
    if args.classes:
        ranges["class_names"] = [c.strip() for c in args.classes.split(",")]
    report = search.verify_theorem(args.theorem, weights, **ranges)
    fails = sum(1 for c in report.checks if c.status == "FAIL")
    # Set before printing: main returns it if the reader closes the pipe early.
    args.status = 1 if fails else 0
    for line in report.checks:
        print(f"{line.status} {line.text}")
    print(f"# theorem={report.theorem} checks={len(report.checks)} failures={fails}")
    return args.status


_DISPATCH = {
    "rho": _cmd_rho,
    "spectrum": _cmd_spectrum,
    "certify": _cmd_certify,
    "subdivide": _cmd_subdivide,
    "kelmans": _cmd_kelmans,
    "enumerate": _cmd_enumerate,
    "extremal": _cmd_extremal,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status = _DISPATCH[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed early: send what is left to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return getattr(args, "status", 0)
    except (FspectraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
