"""Exact discrete optimal transport on equal-weight marginals and its rigidity.

The core objects are an Instance (dense cost matrix, optional 2D geometry)
and a TransportPlan (integer flows at scale S = lcm(m, n)).  The solver is a
network simplex returning exact polytope vertices; analysis quantifies how
rigid their support structure is.
"""

from .analysis import pair_counts, rigidity_report
from .constructions import (
    PermutationDecomposition,
    birkhoff_decompose,
)
from .experiments import ExperimentSpec, run_experiment
from .instance import (
    CostMatrix,
    Geometry,
    Instance,
    PointCloud,
    cost_from_points,
    gen_point_instance,
    gen_points,
    gen_random_costs,
    genericity_check,
    perturb,
)
from .io import (
    load_instance,
    load_plan_csv,
    save_instance,
    save_plan_csv,
    save_stats_json,
    stats_dict,
)
from .oracle import OracleCapExceeded, OracleResult, brute_force_solve, enumerate_plans
from .solver import (
    SupportCycleError,
    TransportPlan,
    objective,
    scaled_objective,
    solve,
    uncross,
    verify_optimality,
)
from .svg import emit_svg

__all__ = [
    "CostMatrix",
    "ExperimentSpec",
    "Geometry",
    "Instance",
    "OracleCapExceeded",
    "OracleResult",
    "PermutationDecomposition",
    "PointCloud",
    "SupportCycleError",
    "TransportPlan",
    "birkhoff_decompose",
    "brute_force_solve",
    "cost_from_points",
    "emit_svg",
    "enumerate_plans",
    "gen_point_instance",
    "gen_points",
    "gen_random_costs",
    "genericity_check",
    "load_instance",
    "load_plan_csv",
    "objective",
    "pair_counts",
    "perturb",
    "rigidity_report",
    "run_experiment",
    "save_instance",
    "save_plan_csv",
    "save_stats_json",
    "scaled_objective",
    "solve",
    "stats_dict",
    "uncross",
    "verify_optimality",
]
