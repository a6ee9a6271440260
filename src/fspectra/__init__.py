"""fspectra: spectral radii of degree-weighted adjacency matrices.

Compute Perron values and spectra of f-adjacency matrices, certify them
with alpha-normal weighted incidence matrices, apply radius-monotone graph
transformations, and search small graph classes for extremal members.
"""

from .errors import (
    BadParams,
    BadSplit,
    Disconnected,
    EdgeNotFound,
    FspectraError,
    IncompleteIncidence,
    MissingTableEntry,
    NoConvergence,
    NoCycle,
    NonPositiveValue,
    SizeLimit,
)
from .families import FamilySpec, forbidden_fixtures, make, parse_family
from .graph_core import (
    Graph,
    InternalPath,
    base_graph,
    canonical_form,
    canonical_relabel,
    contains_induced,
    cyclomatic_number,
    degrees,
    format_graph_text,
    internal_paths,
    is_connected,
    is_isomorphic,
    parse_graph_text,
    read_graph_file,
    write_graph_file,
)
from .luman import (
    FThetaContext,
    IncidenceWeights,
    NormalityReport,
    alpha_of,
    certify,
    check_recurrence,
    classify_normality,
    incidence_from_splits,
    inequality_oracles,
    path_endpoint_values,
    principal_incidence,
)
from .search import (
    SearchReport,
    TheoremReport,
    enumerate_connected,
    enumerate_pendant_free_bicyclic,
    extremal,
    verify_theorem,
)
from .spectral import (
    SpectralResult,
    f_adjacency,
    f_spectral_radius,
    full_spectrum,
    interlacing_check,
    perron_values,
    spectral_radius,
)
from .transforms import KelmansResult, best_cycle_subdivision, kelmans
from .weights import PropertyReport, WeightSpec, check_property, eval_weight, parse_weight

__version__ = "0.1.0"
