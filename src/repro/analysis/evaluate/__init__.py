"""Analytic schedule evaluator: static timing/memory with provenance.

Public surface of the evaluator tier:

* :func:`evaluate_schedule` — exact closed-form evaluation of a built
  schedule (bit-identical to the event simulator, certified);
* :func:`iteration_time_bounds` / :func:`peak_units_floor` — certified
  build-free bounds used by the planner's first-pass pruning;
* the ``EV001``–``EV004`` diagnostic rules and the evaluator version
  that the sweep cache folds into its fingerprints.

See ``docs/evaluation.md`` for the closed forms and the
exactness/bound taxonomy.
"""

from repro.analysis.evaluate.bounds import (
    GUARD,
    TimeBounds,
    iteration_time_bounds,
    peak_units_floor,
)
from repro.analysis.evaluate.core import (
    AnalyticEvaluation,
    EvalCertificate,
    StagePhases,
    evaluate_schedule,
    ledger_peak_units,
)
from repro.analysis.evaluate.dense import (
    DenseTimes,
    dense_schedule_times,
    op_cost_arrays,
    wavefront_times,
)
from repro.analysis.evaluate.rules import EVALUATE_RULES, EVALUATOR_VERSION

__all__ = [
    "GUARD",
    "AnalyticEvaluation",
    "DenseTimes",
    "EvalCertificate",
    "EVALUATE_RULES",
    "EVALUATOR_VERSION",
    "StagePhases",
    "TimeBounds",
    "dense_schedule_times",
    "evaluate_schedule",
    "iteration_time_bounds",
    "ledger_peak_units",
    "op_cost_arrays",
    "peak_units_floor",
    "wavefront_times",
]
