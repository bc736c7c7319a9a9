"""Stable facade over the library's blessed entry points.

Downstream code (notebooks, experiment drivers, external tooling)
should import from here; internal module paths may move between
releases, but these names will not.  One import gives the full
pipeline-research loop::

    from repro import api

    problem = api.build_problem("mepipe", 4, 8, num_slices=4,
                                wgrad_gemms=3)
    schedule = api.build_schedule("mepipe", problem)
    api.verify(schedule).ok                  # static safety tier
    sim = api.simulate(schedule, cost)       # discrete-event replay
    print(sim.metrics().render_text())       # uniform result API

The facade is a package: :mod:`repro.api.types` defines the typed,
frozen request/response dataclasses that are the single wire and
programmatic surface (``PlanRequest``, ``VerifyRequest``, ... — each
with ``to_json``/``from_json`` round-trips and a dedup
``fingerprint()``), and :mod:`repro.api.handlers` executes them::

    response = api.execute(api.EvaluateRequest(
        method="mepipe", shape=api.ShapeSpec(slices=4, wgrad_gemms=3)))
    print(response.text)

The HTTP service (:mod:`repro.service`, ``repro serve``) and the CLI
subcommands consume exactly these dataclasses, so the three transports
cannot drift.

Everything observable rides the telemetry bus — pass any sink
(:class:`MemorySink`, :class:`JsonlSink`, :class:`ChromeTraceSink`,
:class:`QueueSink`) to :func:`simulate`, :meth:`PipelineRuntime.run`,
:func:`plan`, or :func:`execute`; the default :data:`NULL_SINK` keeps
uninstrumented runs free.
"""

from __future__ import annotations

from repro.analysis import analyze_spec as check_model
from repro.analysis.capacity import (
    CapacityCertificate,
    CapacityPlan,
    certify_capacities,
    check_capacities,
    cross_validate_capacities,
    infer_capacities,
)
from repro.analysis.evaluate import (
    AnalyticEvaluation,
    TimeBounds,
    evaluate_schedule,
    iteration_time_bounds,
)
from repro.api.handlers import execute
from repro.api.types import (
    SCHEMA_VERSION,
    CapacityRequest,
    CapacityResponse,
    CheckModelRequest,
    CheckModelResponse,
    ErrorInfo,
    EvaluateRequest,
    EvaluateResponse,
    PlanRequest,
    PlanResponse,
    Request,
    RequestError,
    Response,
    ShapeSpec,
    SimulateRequest,
    SimulateResponse,
    VerifyRequest,
    VerifyResponse,
    request_from_dict,
    response_from_dict,
)
from repro.hardware import ClusterSpec, GPUSpec, get_cluster
from repro.model import ModelSpec, get_model, tiny_spec
from repro.nn import build_model
from repro.obs import (
    NULL_SINK,
    ChromeTraceSink,
    Event,
    EventSink,
    IterationMetrics,
    JsonlSink,
    MemorySink,
    NullSink,
    PipelineResult,
    QueueSink,
    TeeSink,
    chrome_trace,
    iteration_metrics,
    record_iteration,
)
from repro.parallel import ParallelConfig
from repro.pipeline import PipelineRuntime, RunResult
from repro.planner import SearchResult, SweepCache, evaluate_config
from repro.planner import search_method as plan
from repro.profiler import Profiler
from repro.schedules import (
    PipelineProblem,
    Schedule,
    ScheduleError,
    build_problem,
    build_schedule,
)
from repro.schedules.verify import verify_schedule as verify
from repro.sim import ClusterCost, SimResult, UniformCost, simulate
from repro.sim.crossval import cross_validate as cross_validate_evaluation

__all__ = [
    "AnalyticEvaluation",
    "CapacityCertificate",
    "CapacityPlan",
    "CapacityRequest",
    "CapacityResponse",
    "CheckModelRequest",
    "CheckModelResponse",
    "ChromeTraceSink",
    "ClusterCost",
    "ClusterSpec",
    "ErrorInfo",
    "EvaluateRequest",
    "EvaluateResponse",
    "Event",
    "EventSink",
    "GPUSpec",
    "IterationMetrics",
    "JsonlSink",
    "MemorySink",
    "ModelSpec",
    "NULL_SINK",
    "NullSink",
    "ParallelConfig",
    "PipelineProblem",
    "PipelineResult",
    "PipelineRuntime",
    "PlanRequest",
    "PlanResponse",
    "Profiler",
    "QueueSink",
    "Request",
    "RequestError",
    "Response",
    "RunResult",
    "SCHEMA_VERSION",
    "Schedule",
    "ScheduleError",
    "SearchResult",
    "ShapeSpec",
    "SimResult",
    "SimulateRequest",
    "SimulateResponse",
    "SweepCache",
    "TeeSink",
    "TimeBounds",
    "UniformCost",
    "VerifyRequest",
    "VerifyResponse",
    "build_model",
    "build_problem",
    "build_schedule",
    "certify_capacities",
    "check_capacities",
    "check_model",
    "chrome_trace",
    "cross_validate_capacities",
    "cross_validate_evaluation",
    "evaluate_config",
    "evaluate_schedule",
    "execute",
    "get_cluster",
    "get_model",
    "infer_capacities",
    "iteration_metrics",
    "iteration_time_bounds",
    "plan",
    "record_iteration",
    "request_from_dict",
    "response_from_dict",
    "simulate",
    "tiny_spec",
    "verify",
]
