"""Worst-case certification of a dual active-set QP solver over parameter sets."""

from certias.analysis import (
    IterationCdf,
    SlackProfile,
    SweepTable,
    iteration_cdf,
    slack_profile,
    sweep,
)
from certias.certifier import (
    BudgetExceededError,
    CertificationResult,
    CertifiedRegion,
    certify,
)
from certias.geometry import (
    GeometryError,
    LpResult,
    Polyhedron,
    RowExplosionError,
    bounding_box,
    contains,
    feasible_point,
    interior_point,
    is_empty,
    project_fm,
    remove_redundant,
    solve_lp,
)
from certias.lpp import ErrorModel, lift_partition_project, rel_to_abs
from certias.mpqp import AffineMap, MpQP, load_problem, subproblem_maps
from certias.solver import (
    RunResult,
    SolverState,
    Tolerances,
    run,
)
from certias.validation import (
    ValidationReport,
    search_realization,
    validate_conformance,
)

__version__ = "0.1.0"

# Served on first use, so that importing certias leaves certias.examples
# unimported and `python -m certias.examples` runs it fresh.
_EXAMPLES = ("double_integrator_problem", "toy_problem")


def __getattr__(name: str):
    if name in _EXAMPLES:
        from certias import examples
        return getattr(examples, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AffineMap",
    "BudgetExceededError",
    "CertificationResult",
    "CertifiedRegion",
    "ErrorModel",
    "GeometryError",
    "IterationCdf",
    "LpResult",
    "MpQP",
    "Polyhedron",
    "RowExplosionError",
    "RunResult",
    "SlackProfile",
    "SolverState",
    "SweepTable",
    "Tolerances",
    "ValidationReport",
    "bounding_box",
    "certify",
    "contains",
    "double_integrator_problem",
    "feasible_point",
    "interior_point",
    "is_empty",
    "iteration_cdf",
    "lift_partition_project",
    "load_problem",
    "project_fm",
    "rel_to_abs",
    "remove_redundant",
    "run",
    "search_realization",
    "slack_profile",
    "solve_lp",
    "subproblem_maps",
    "sweep",
    "toy_problem",
    "validate_conformance",
]
