"""Config evaluation, Section 4.5 variant selection, grid search
(parallel and cached), and cost-model fitting."""

from repro.planner.costfit import (
    FittedCurve,
    fit_efficiency_curve,
    observations_from_slices,
    synthetic_observations,
)
from repro.planner.evaluate import (
    EvalResult,
    evaluate_config,
    select_variant,
)
from repro.planner.parallel import (
    EvalOutcome,
    EvalTask,
    PlannerSettings,
    SweepCache,
    eval_fingerprint,
    evaluate_tasks,
    merge_outcomes,
)
from repro.planner.search import SearchResult, SkippedConfig, search_method

__all__ = [
    "EvalOutcome",
    "EvalResult",
    "EvalTask",
    "FittedCurve",
    "PlannerSettings",
    "SearchResult",
    "SkippedConfig",
    "SweepCache",
    "eval_fingerprint",
    "evaluate_config",
    "evaluate_tasks",
    "fit_efficiency_curve",
    "merge_outcomes",
    "observations_from_slices",
    "search_method",
    "select_variant",
    "synthetic_observations",
]
