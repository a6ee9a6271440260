"""The package namespace: lazy exports and what a CLI call imports."""

import os
import subprocess
import sys

import pytest

import fspectra

# Every name `fspectra` exports, with the submodule that defines it.
EXPORTS = {
    "errors": "BadParams BadSplit Disconnected EdgeNotFound FspectraError "
    "IncompleteIncidence MissingTableEntry NoConvergence NoCycle NonPositiveValue SizeLimit",
    "families": "FamilySpec forbidden_fixtures make parse_family",
    "graph_core": "Graph InternalPath base_graph canonical_form contains_induced "
    "degrees format_graph_text internal_paths is_connected "
    "parse_graph_text read_graph_file write_graph_file",
    "luman": "FThetaContext IncidenceWeights NormalityReport alpha_of certify "
    "check_recurrence classify_normality incidence_from_splits inequality_oracles "
    "path_endpoint_values principal_incidence",
    "search": "SearchReport TheoremReport enumerate_connected "
    "enumerate_pendant_free_bicyclic extremal verify_theorem",
    "spectral": "SpectralResult f_adjacency f_spectral_radius full_spectrum "
    "interlacing_check perron_values",
    "transforms": "KelmansResult best_cycle_subdivision kelmans",
    "weights": "PropertyReport WeightSpec check_property eval_weight parse_weight",
}


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's fspectra."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fspectra.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_luman_and_transforms_unloaded():
    out = _fresh_python(
        "import sys, fspectra.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('fspectra')))"
    )
    loaded = eval(out)
    assert "fspectra.search" in loaded
    assert "fspectra.luman" not in loaded
    assert "fspectra.transforms" not in loaded


def test_every_export_resolves_from_a_fresh_import():
    names = {name: module for module, names in EXPORTS.items() for name in names.split()}
    out = _fresh_python(
        f"names = {names!r}\n"
        "import importlib, sys\n"
        "import fspectra\n"
        "assert sorted(m for m in sys.modules if m.startswith('fspectra')) == ['fspectra']\n"
        "for name, module in names.items():\n"
        "    scope = {}\n"
        "    exec(f'from fspectra import {name}', scope)\n"
        "    home = importlib.import_module('fspectra.' + module)\n"
        "    assert scope[name] is getattr(home, name), name\n"
        "print(len(names))"
    )
    assert int(out) == len(names) == 58


def test_submodules_resolve_as_attributes():
    out = _fresh_python(
        "import fspectra\n"
        "print(fspectra.search.__name__, fspectra.graph_core.__name__,"
        " fspectra.search.enumerate_connected.__module__)"
    )
    assert out.split() == ["fspectra.search", "fspectra.graph_core", "fspectra.search"]


def test_unknown_name_raises_attribute_error():
    # Callers probe optional names with getattr(fspectra, name, None).
    assert getattr(fspectra, "subdivide", None) is None
    with pytest.raises(AttributeError, match="no attribute 'subdivide'"):
        fspectra.subdivide
    with pytest.raises(ImportError):
        exec("from fspectra import subdivide", {})


def test_exports_in_dir_and_all():
    names = {name for names in EXPORTS.values() for name in names.split()}
    assert set(fspectra.__all__) == names
    assert names | set(EXPORTS) | {"__version__"} <= set(dir(fspectra))
    assert fspectra.__version__ == "0.1.0"
