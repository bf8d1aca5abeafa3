"""fedmoo: a deterministic simulator for federated multi-objective optimization.

The library covers the full round loop — per-client local steps on each owned
objective, accumulated-update aggregation over owner sets, the min-norm
common-descent weighting, and the global step — plus synthetic problem
suites, convergence metrics, and a verification battery.  Everything is
reproducible from a config mapping and a seed.
"""

__version__ = "0.1.0"

from .core import (ConfigError, ExperimentConfig, IndicatorMatrix, ProblemConfig,
                   RoundRecord, client_stream, validate_simplex)
from .minnorm import MinNormSolution, closed_form_two, fw_gap, grid_oracle, solve_min_norm
from .problems import (PartitionPlan, Problem, build_problem, partition, quadratic_suite,
                       synthetic_classification_suite, toy_nonconvex_suite)
from .federation import (DivergenceError, TrajectoryLog, client_update_full,
                         client_update_stochastic, descent_step_limit, pick_weighted_output,
                         run_experiment, run_round, server_aggregate,
                         strongly_convex_step_limit)
from .metrics import (RateFit, dbar_norm_sq, delta_q, fit_rate, lambda_drift,
                      rounds_to_threshold, running_min)
from .config import SweepSpec, load_config, load_sweep, parse_config
from .verify import CheckResult, mgd_reference, run_battery

__all__ = [
    "ConfigError", "ExperimentConfig", "IndicatorMatrix", "ProblemConfig",
    "RoundRecord", "client_stream", "validate_simplex",
    "MinNormSolution", "closed_form_two", "fw_gap", "grid_oracle", "solve_min_norm",
    "PartitionPlan", "Problem", "build_problem", "partition", "quadratic_suite",
    "synthetic_classification_suite", "toy_nonconvex_suite",
    "DivergenceError", "TrajectoryLog", "client_update_full",
    "client_update_stochastic", "descent_step_limit", "pick_weighted_output",
    "run_experiment", "run_round", "server_aggregate",
    "strongly_convex_step_limit",
    "RateFit", "dbar_norm_sq", "delta_q", "fit_rate", "lambda_drift",
    "rounds_to_threshold", "running_min",
    "SweepSpec", "load_config", "load_sweep", "parse_config",
    "CheckResult", "mgd_reference", "run_battery",
]
