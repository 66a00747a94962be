"""Error types shared across modules."""


class UsageError(ValueError):
    """Bad user input: malformed files, flags, or argument values."""


class ResourceBudgetError(RuntimeError):
    """An enumeration exceeded the work budget: box cells or kernel ray pairs."""


class TrivialAggregationError(UsageError):
    """All-zero aggregation weights: the relaxation adds no cut."""


class EmptyRelaxationError(UsageError):
    """Covering relaxation with a zero aggregated row and positive rhs."""


class DegenerateFacetError(RuntimeError):
    """A facet failed to supply enough affinely independent tight points."""
