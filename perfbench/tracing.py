"""Span tracing of fspectra's public functions, installed from outside.

``Tracer.install`` replaces each target function with a wrapper in every
loaded fspectra module that holds it, so names re-imported into other
modules (``search.canonical_form``, ``cli.certify``, ...) are traced too.
``uninstall`` puts the originals back. Spans stay in memory as
(name, start_ns, end_ns, parent, ok, extra) and are dumped at exit;
``reduce`` turns dumps into the per-layer metrics.

A target that a later version renames or removes is listed as unmeasured,
never an error.
"""

import hashlib
import importlib.util
import statistics
import sys
import time

import numpy as np

LAYERS = ("weights", "graph_core", "families", "spectral", "luman", "transforms", "search", "cli")

# (module, function, mode): "span" records a span; "count" only counts
# calls, for functions called per matrix entry.
TARGETS = [
    ("weights", "eval_weight", "count"),
    ("weights", "parse_weight", "span"),
    ("graph_core", "canonical_form", "span"),
    ("graph_core", "canonical_relabel", "span"),
    ("graph_core", "is_isomorphic", "span"),
    ("graph_core", "contains_induced", "span"),
    ("graph_core", "base_graph", "span"),
    ("graph_core", "internal_paths", "span"),
    ("graph_core", "fundamental_cycles", "span"),
    ("graph_core", "subdivided", "span"),
    ("families", "make", "span"),
    ("families", "parse_family", "span"),
    ("families", "identify_pendant_free_bicyclic", "span"),
    ("spectral", "f_adjacency", "span"),
    ("spectral", "spectral_radius", "span"),
    ("spectral", "f_spectral_radius", "span"),
    ("spectral", "full_spectrum", "span"),
    ("spectral", "interlacing_check", "span"),
    ("luman", "certify", "span"),
    ("luman", "alpha_of", "span"),
    ("luman", "principal_incidence", "span"),
    ("luman", "classify_normality", "span"),
    ("luman", "incidence_from_splits", "span"),
    ("transforms", "kelmans", "span"),
    ("transforms", "best_cycle_subdivision", "span"),
    ("transforms", "subdivide", "span"),
    ("search", "class_graphs", "span"),
    ("search", "enumerate_connected", "span"),
    ("search", "enumerate_pendant_free_bicyclic", "span"),
    ("search", "extremal", "span"),
    ("search", "report_tsv", "span"),
    ("search", "report_records", "span"),
    ("search", "verify_theorem", "span"),
    ("cli", "main", "span"),
]

ENUMERATION = {"search.class_graphs", "search.enumerate_connected", "search.enumerate_pendant_free_bicyclic"}
REPORT = {"search.report_tsv", "search.report_records"}
SMALL_ORDER = 32


def _matrix_extra(args, kwargs, result):
    M = np.asarray(args[0] if args else kwargs["M"])
    extra = {"n": int(M.shape[0]),
             "key": hashlib.blake2b(M.tobytes(), digest_size=8).hexdigest()}
    if result is not None:
        extra["it"] = getattr(result, "iterations", None)
    return extra


def _size_extra(args, kwargs, result):
    return {"size": len(result)} if result is not None else {}


def _skipped_extra(args, kwargs, result):
    return {"skipped": getattr(result, "skipped", 0)} if result is not None else {}


EXTRAS = {
    "spectral.spectral_radius": _matrix_extra,
    "search.class_graphs": _size_extra,
    "search.enumerate_connected": _size_extra,
    "search.enumerate_pendant_free_bicyclic": _size_extra,
    "search.extremal": _skipped_extra,
}


class Tracer:
    """Spans of one process, grouped in segments (set-up or one pass)."""

    def __init__(self):
        self.segments = []
        self.unmeasured = {}
        self._patched = []
        self._stack = []

    def install(self, label):
        spans, counts = [], {}
        self.segments.append({"label": label, "spans": spans, "counts": counts})
        fs_modules = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "fspectra" or name.startswith("fspectra."))]
        for mod_name, fn_name, mode in TARGETS:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"fspectra.{mod_name}")
            if home is None:
                # Not imported by this process, so not called by it either.
                if importlib.util.find_spec(f"fspectra.{mod_name}") is None:
                    self.unmeasured[name] = f"module fspectra.{mod_name} not found"
                continue
            orig = getattr(home, fn_name, None)
            if not callable(orig):
                self.unmeasured[name] = "not found in this version of fspectra"
                continue
            if mode == "count":
                wrapper = self._counter(name, orig, counts)
            else:
                wrapper = self._spanner(name, orig, spans, EXTRAS.get(name))
            for mod in fs_modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    @staticmethod
    def _counter(name, orig, counts):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    def _spanner(self, name, orig, spans, extra_fn):
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, ok = None, False
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = extra_fn(args, kwargs, result) if extra_fn else None
                spans[idx] = (name, t0, t1, parent, ok, extra)

        wrapper.__wrapped__ = orig
        return wrapper

    def dump(self):
        return {"segments": self.segments, "unmeasured": self.unmeasured}


# ------------------------------------------------------------------ reducer


def _segment_totals(spans, counts):
    """Raw totals of one segment: inclusive / self seconds and calls per
    function, plus the spectral and enumeration tallies."""
    n = len(spans)
    anc = [frozenset()] * n
    enum_root = [-1] * n
    child_time = [0] * n
    incl, self_s, calls, fails = {}, {}, {}, {}
    group = {"enumerate": 0, "report": 0}
    solves = {"small": 0.0, "large": 0.0}
    iterations, iterations_known, keys, skipped = 0, True, set(), 0
    enum_size, enum_canon = {}, {}
    for i, (name, t0, t1, parent, ok, extra) in enumerate(spans):
        dur = t1 - t0
        if parent >= 0:
            anc[i] = anc[parent] | {spans[parent][0]}
            child_time[parent] += dur
            enum_root[i] = enum_root[parent]
        if enum_root[i] < 0 and name in ENUMERATION:
            enum_root[i] = i
            enum_size[i] = (extra or {}).get("size", 0)
            enum_canon[i] = 0
        if name == "graph_core.canonical_form" and enum_root[i] >= 0:
            enum_canon[enum_root[i]] += 1
        calls[name] = calls.get(name, 0) + 1
        # A failure counts once per layer it escapes, not once per frame.
        if not ok and (parent < 0 or spans[parent][0].split(".")[0] != name.split(".")[0]):
            fails[name] = fails.get(name, 0) + 1
        if name not in anc[i]:
            incl[name] = incl.get(name, 0) + dur
        if name in ENUMERATION and not (anc[i] & ENUMERATION):
            group["enumerate"] += dur
        if name in REPORT and not (anc[i] & REPORT):
            group["report"] += dur
        if name == "spectral.spectral_radius" and extra:
            solves["small" if extra["n"] < SMALL_ORDER else "large"] += dur
            keys.add(extra["key"])
            if extra.get("it") is None:
                iterations_known = False
            else:
                iterations += extra["it"]
        if name == "search.extremal" and extra:
            skipped += extra.get("skipped", 0)
    for i, (name, t0, t1, *_rest) in enumerate(spans):
        self_s[name] = self_s.get(name, 0) + (t1 - t0) - child_time[i]
    for name, c in counts.items():
        calls[name] = calls.get(name, 0) + c
    used = [r for r in enum_size if enum_canon[r] > 0]
    return {
        "incl": incl, "self": self_s, "calls": calls, "fails": fails, "group": group,
        "solves_by_order": solves, "iterations": iterations, "iterations_known": iterations_known,
        "keys": keys, "skipped": skipped,
        "enum_size": sum(enum_size[r] for r in used), "enum_canon": sum(enum_canon[r] for r in used),
    }


PER_LAYER = {
    # name: (unit, description)
    "graph_core.canonical_form.s": ("s", "time in canonical_form"),
    "graph_core.canonical_form.calls": ("count", "canonical_form calls"),
    "search.enumerate.s": ("s", "time in class enumeration"),
    "search.dedup_ratio": ("ratio", "class size / canonical_form calls made while enumerating"),
    "spectral.spectral_radius.s": ("s", "time in the Perron solver"),
    "spectral.spectral_radius.small.s": ("s", "solver time on matrices of order < 32"),
    "spectral.spectral_radius.large.s": ("s", "solver time on matrices of order >= 32"),
    "spectral.solves": ("count", "Perron solves"),
    "spectral.iterations": ("count", "power iterations, summed from SpectralResult.iterations"),
    "spectral.redundant_solve_ratio": ("ratio", "solves / distinct matrices solved, per pass"),
    "spectral.f_adjacency.s": ("s", "time building weighted adjacency matrices"),
    "weights.eval_weight.calls": ("count", "eval_weight calls"),
    "luman.certify.s": ("s", "time in certify"),
    "luman.principal_incidence.s": ("s", "time in principal_incidence"),
    "luman.classify_normality.s": ("s", "time in classify_normality"),
    "luman.incidence_from_splits.s": ("s", "time in incidence_from_splits"),
    "transforms.kelmans.s": ("s", "time in kelmans"),
    "transforms.best_cycle_subdivision.s": ("s", "time in best_cycle_subdivision"),
    "graph_core.is_isomorphic.s": ("s", "time in is_isomorphic"),
    "graph_core.contains_induced.s": ("s", "time in contains_induced"),
    "families.make.s": ("s", "time in make"),
    "search.extremal.self_s": ("s", "extremal's own time, callees excluded"),
    "search.report.s": ("s", "time in report_tsv / report_records"),
    "search.verify.s": ("s", "time in verify_theorem"),
    "cli.main.self_s": ("s", "cli.main's own time (argument parsing, printing)"),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", f"calls into traced {_layer} functions")
    PER_LAYER[f"{_layer}.failures"] = ("count", f"exceptions raised by {_layer} functions"
                                       + (", plus skipped candidates" if _layer == "search" else ""))
PER_LAYER["trace.overhead_s"] = ("s", "traced minus untraced median pass time, scaled")

_INCLUSIVE = {
    "graph_core.canonical_form.s": "graph_core.canonical_form",
    "spectral.spectral_radius.s": "spectral.spectral_radius",
    "spectral.f_adjacency.s": "spectral.f_adjacency",
    "luman.certify.s": "luman.certify",
    "luman.principal_incidence.s": "luman.principal_incidence",
    "luman.classify_normality.s": "luman.classify_normality",
    "luman.incidence_from_splits.s": "luman.incidence_from_splits",
    "transforms.kelmans.s": "transforms.kelmans",
    "transforms.best_cycle_subdivision.s": "transforms.best_cycle_subdivision",
    "graph_core.is_isomorphic.s": "graph_core.is_isomorphic",
    "graph_core.contains_induced.s": "graph_core.contains_induced",
    "families.make.s": "families.make",
    "search.verify.s": "search.verify_theorem",
}
_SELF = {"search.extremal.self_s": "search.extremal", "cli.main.self_s": "cli.main"}
# The traced function each metric depends on, for "unmeasured" notes.
_SOURCES = {
    **_INCLUSIVE,
    **_SELF,
    "graph_core.canonical_form.calls": "graph_core.canonical_form",
    "search.enumerate.s": "search.class_graphs",
    "search.dedup_ratio": "graph_core.canonical_form",
    "search.report.s": "search.report_tsv",
    "spectral.spectral_radius.small.s": "spectral.spectral_radius",
    "spectral.spectral_radius.large.s": "spectral.spectral_radius",
    "spectral.solves": "spectral.spectral_radius",
    "spectral.iterations": "spectral.spectral_radius",
    "spectral.redundant_solve_ratio": "spectral.spectral_radius",
    "weights.eval_weight.calls": "weights.eval_weight",
}


def reduce(segments, unmeasured, untraced_walls, traced_walls):
    """Per-layer metrics from traced segments.

    ``segments`` are (pass_id, segment) pairs; pass_id None marks set-up,
    counted once. Pass segments are summed and divided by the number of
    traced passes, so every value is "set-up once plus one pass". Returns
    (metrics {name: value}, notes {name: reason}).
    """
    setup = [_segment_totals(s["spans"], s["counts"]) for pid, s in segments if pid is None]
    by_pass = {}
    for pid, s in segments:
        if pid is not None:
            by_pass.setdefault(pid, []).append(_segment_totals(s["spans"], s["counts"]))
    passes = max(1, len(by_pass))
    parts = [(t, 1.0) for t in setup] + [(t, 1.0 / passes) for ts in by_pass.values() for t in ts]

    def total(get):
        return sum(get(t) * w for t, w in parts)

    metrics, notes = {}, {}
    ns = 1e-9
    for metric, fn in _INCLUSIVE.items():
        metrics[metric] = total(lambda t: t["incl"].get(fn, 0)) * ns
    for metric, fn in _SELF.items():
        metrics[metric] = total(lambda t: t["self"].get(fn, 0)) * ns
    metrics["graph_core.canonical_form.calls"] = total(lambda t: t["calls"].get("graph_core.canonical_form", 0))
    metrics["search.enumerate.s"] = total(lambda t: t["group"]["enumerate"]) * ns
    metrics["search.report.s"] = total(lambda t: t["group"]["report"]) * ns
    metrics["spectral.spectral_radius.small.s"] = total(lambda t: t["solves_by_order"]["small"]) * ns
    metrics["spectral.spectral_radius.large.s"] = total(lambda t: t["solves_by_order"]["large"]) * ns
    metrics["spectral.solves"] = total(lambda t: t["calls"].get("spectral.spectral_radius", 0))
    metrics["spectral.iterations"] = total(lambda t: t["iterations"])
    metrics["weights.eval_weight.calls"] = total(lambda t: t["calls"].get("weights.eval_weight", 0))

    size, canon = total(lambda t: t["enum_size"]), total(lambda t: t["enum_canon"])
    metrics["search.dedup_ratio"] = size / canon if canon else 0.0
    if not canon:
        notes["search.dedup_ratio"] = "no canonical_form calls inside enumeration on this workload"

    solves = sum(t["calls"].get("spectral.spectral_radius", 0) for t, _ in parts)
    distinct = sum(len(t["keys"]) for t in setup)
    for ts in by_pass.values():
        distinct += len(set().union(*(t["keys"] for t in ts)))
    metrics["spectral.redundant_solve_ratio"] = solves / distinct if distinct else 0.0
    if not distinct:
        notes["spectral.redundant_solve_ratio"] = "no Perron solves on this workload"
    if not all(t["iterations_known"] for t, _ in parts):
        notes["spectral.iterations"] = "SpectralResult.iterations absent; summed where present"

    for layer in LAYERS:
        prefix = layer + "."
        metrics[f"{layer}.calls"] = total(lambda t: sum(c for k, c in t["calls"].items() if k.startswith(prefix)))
        metrics[f"{layer}.failures"] = total(lambda t: sum(c for k, c in t["fails"].items() if k.startswith(prefix)))
    metrics["search.failures"] += total(lambda t: t["skipped"])

    if untraced_walls and traced_walls:
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    else:
        metrics["trace.overhead_s"] = 0.0
        notes["trace.overhead_s"] = "needs at least one traced and one untraced pass"

    for metric, fn_name in _SOURCES.items():
        if fn_name in unmeasured:
            notes[metric] = f"unmeasured: {fn_name} {unmeasured[fn_name]}"
    return metrics, notes
