"""fspectra: spectral radii of degree-weighted adjacency matrices.

Compute Perron values and spectra of f-adjacency matrices, certify them
with alpha-normal weighted incidence matrices, apply radius-monotone graph
transformations, and search small graph classes for extremal members.

Public names and submodules load on first access, so ``import fspectra``
(and a CLI call, which imports only what its subcommand runs) compiles no
module it does not use.
"""

import importlib

__version__ = "0.1.0"

# Each submodule -> the public names it defines. ``__getattr__`` resolves
# a submodule, or a name through the inverted table ``_HOME``, on first
# access and caches the name in this namespace.
_EXPORTS = {
    "errors": (
        "BadParams",
        "BadSplit",
        "Disconnected",
        "EdgeNotFound",
        "FspectraError",
        "IncompleteIncidence",
        "MissingTableEntry",
        "NoConvergence",
        "NoCycle",
        "NonPositiveValue",
        "SizeLimit",
    ),
    "families": ("FamilySpec", "forbidden_fixtures", "make", "parse_family"),
    "graph_core": (
        "Graph",
        "InternalPath",
        "base_graph",
        "canonical_form",
        "contains_induced",
        "degrees",
        "format_graph_text",
        "internal_paths",
        "is_connected",
        "parse_graph_text",
        "read_graph_file",
        "write_graph_file",
    ),
    "luman": (
        "FThetaContext",
        "IncidenceWeights",
        "NormalityReport",
        "alpha_of",
        "certify",
        "classify_normality",
        "incidence_from_splits",
        "principal_incidence",
    ),
    "search": (
        "SearchReport",
        "TheoremReport",
        "enumerate_connected",
        "enumerate_pendant_free_bicyclic",
        "extremal",
        "verify_theorem",
    ),
    "spectral": (
        "SpectralResult",
        "f_adjacency",
        "f_spectral_radius",
        "full_spectrum",
        "interlacing_check",
        "perron_values",
    ),
    "transforms": ("KelmansResult", "best_cycle_subdivision", "kelmans"),
    "weights": ("PropertyReport", "WeightSpec", "check_property", "eval_weight", "parse_weight"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _EXPORTS.keys())
