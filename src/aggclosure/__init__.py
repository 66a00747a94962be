"""Exact integer hulls and sampled aggregation closures.

Everything runs on exact rational arithmetic; no floating point enters
the core math. The public surface below is enough for typical use, the
submodules expose the finer-grained pieces.
"""

from .errors import (
    EmptyRelaxationError,
    ResourceBudgetError,
    TrivialAggregationError,
    UsageError,
)
from .knapsack import (
    COVERING,
    PACKING,
    Aggregation,
    Instance,
    build_relaxation,
    cg_cut,
    integer_hull,
)
from .closure import (
    ClosureArtifacts,
    SampleScheme,
    SeparationResult,
    aggregation_closure,
    sample_lambdas,
    sampled_closure,
    separate,
)
from .verify import run_suite, suite_json, suite_lines

__version__ = "0.1.0"

__all__ = [
    "Aggregation",
    "ClosureArtifacts",
    "COVERING",
    "EmptyRelaxationError",
    "Instance",
    "PACKING",
    "ResourceBudgetError",
    "SampleScheme",
    "SeparationResult",
    "TrivialAggregationError",
    "UsageError",
    "aggregation_closure",
    "build_relaxation",
    "cg_cut",
    "integer_hull",
    "run_suite",
    "sample_lambdas",
    "sampled_closure",
    "separate",
    "suite_json",
    "suite_lines",
]
