"""Exception types shared across the library."""


class FspectraError(Exception):
    """Base class for all library-specific errors."""


class BadParams(FspectraError, ValueError):
    """A constructor or operation received parameters outside its domain."""


class MissingTableEntry(FspectraError, LookupError):
    """A table-defined weight has no entry for the requested degree pair."""

    def __init__(self, x, y):
        super().__init__(f"no table entry for degree pair ({x}, {y})")
        self.pair = (min(x, y), max(x, y))


class NonPositiveValue(FspectraError, ValueError):
    """A weight value that must be strictly positive is not."""


class Disconnected(FspectraError):
    """The operation requires a connected graph."""


class NoCycle(FspectraError):
    """The operation requires a graph containing at least one cycle."""


class SizeLimit(FspectraError):
    """Input exceeds the supported size bound for this operation."""


class EdgeNotFound(FspectraError, LookupError):
    """The named edge is not present in the graph."""


class BadSplit(FspectraError, ValueError):
    """An internal-path split violates its length constraint."""


class NoConvergence(FspectraError):
    """No Perron pair met the residual tolerance: power iteration hit its
    iteration cap, or a direct solve (one iteration) missed the tolerance."""

    def __init__(self, iterations, residual):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class IncompleteIncidence(FspectraError):
    """A weighted incidence matrix is missing a (vertex, edge) entry."""
