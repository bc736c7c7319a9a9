"""Config evaluation, Section 4.5 variant selection, and grid search
(parallel and cached)."""

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
    "PlannerSettings",
    "SearchResult",
    "SkippedConfig",
    "SweepCache",
    "eval_fingerprint",
    "evaluate_config",
    "evaluate_tasks",
    "merge_outcomes",
    "search_method",
    "select_variant",
]
