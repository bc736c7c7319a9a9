"""Execute typed API requests — the one code path behind every transport.

:func:`execute` maps each request dataclass from
:mod:`repro.api.types` onto the library's blessed entry points and
returns the matching typed response.  The CLI subcommands, the
``repro.service`` HTTP endpoints, and direct library callers all route
through here, so the three transports cannot drift: same validation,
same error taxonomy (:class:`~repro.api.types.RequestError`), same
result schemas.

Handlers raise :class:`RequestError` for anything that cannot be
executed (unknown method or rule ids, out-of-range shapes, schedules
the safety tier rejects); successful-but-failing outcomes (a dirty
report, an all-OOM sweep) come back as a response with ``ok=False``.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Callable

from repro.api.types import (
    CapacityRequest,
    CapacityResponse,
    CheckModelRequest,
    CheckModelResponse,
    EvaluateRequest,
    EvaluateResponse,
    JsonDict,
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
)
from repro.obs.events import NULL_SINK, EventSink

if TYPE_CHECKING:
    from repro.planner.parallel import SweepCache
    from repro.schedules.base import Schedule
    from repro.schedules.verify.diagnostics import Report


#: Most ops a request shape may ask for,
#: ``stages * virtual * microbatches * slices * (2 + wgrad_gemms)``:
#: 8x the largest schedule the planner builds (131 072 ops).  A larger
#: shape is refused before anything is built.
MAX_SHAPE_OPS = 2**20


def _build_schedule(method: str, shape: ShapeSpec) -> "Schedule":
    """Build (problem, schedule) for a request shape.

    Mirrors the CLI's historical error mapping: unknown methods and
    out-of-range shapes are malformed requests (exit 2 / HTTP 400),
    while a generator or safety-tier rejection is a well-formed request
    the library refuses (exit 1 / HTTP 422).
    """
    from repro.schedules import ScheduleError, build_problem, build_schedule

    ops = shape.stages * shape.virtual * shape.microbatches * shape.slices
    ops *= 2 + shape.wgrad_gemms
    if ops > MAX_SHAPE_OPS:
        raise RequestError(
            f"shape asks for {ops} ops; a request may build at most "
            f"{MAX_SHAPE_OPS}",
            code="invalid-shape",
        )
    try:
        problem = build_problem(
            method,
            shape.stages,
            shape.microbatches,
            num_slices=shape.slices,
            virtual_size=shape.virtual,
            wgrad_gemms=shape.wgrad_gemms,
        )
        return build_schedule(
            method, problem, forwards_before_first_backward=shape.forwards
        )
    except KeyError as exc:
        raise RequestError(
            exc.args[0] if exc.args else str(exc), code="unknown-method"
        ) from None
    except ValueError as exc:
        raise RequestError(str(exc), code="invalid-shape") from None
    except ScheduleError as exc:
        raise RequestError(
            str(exc), code="schedule-rejected", exit_status=1, http_status=422
        ) from None


def _check_rules(
    rules: tuple[str, ...] | None, known: tuple[str, ...]
) -> list[str] | None:
    """Validate a rule selector against a catalogue (``None`` = all)."""
    if rules is None:
        return None
    normalized = [r.strip().upper() for r in rules if r.strip()]
    unknown = [r for r in normalized if r not in known]
    if unknown:
        raise RequestError(
            f"unknown rule(s) {unknown}; known: {', '.join(known)}",
            code="unknown-rule",
        )
    return normalized


def _merge_capacity_findings(
    report: "Report", schedule: "Schedule", rules: list[str] | None
) -> None:
    """Fold the CP rule family into a verifier/analyzer report in place
    (same catalogue, so findings render and filter uniformly)."""
    from repro.analysis.capacity import check_capacities

    cp = check_capacities(schedule)
    report.findings.extend(
        f for f in cp.findings if rules is None or f.rule_id in rules
    )
    report.checked_rules = tuple(report.checked_rules) + tuple(
        r for r in cp.checked_rules if rules is None or r in rules
    )


def _handle_verify(
    request: VerifyRequest, sink: EventSink, cache: "SweepCache | None"
) -> VerifyResponse:
    from repro.analysis.capacity import CAPACITY_RULES
    from repro.schedules.verify import ALL_RULES, verify_schedule

    known = tuple(ALL_RULES)
    if request.capacity:
        known += tuple(CAPACITY_RULES)
    rules = _check_rules(request.rules, known)
    schedule = _build_schedule(request.method, request.shape)
    verify_rules = (
        None if rules is None else [r for r in rules if r in ALL_RULES]
    )
    report = verify_schedule(
        schedule, method=request.method, rules=verify_rules
    )
    if request.capacity:
        _merge_capacity_findings(report, schedule, rules)
    return VerifyResponse(
        ok=report.ok, reports=(report.to_dict(),), text=report.render_text()
    )


def _handle_check_model(
    request: CheckModelRequest, sink: EventSink, cache: "SweepCache | None"
) -> CheckModelResponse:
    from repro.analysis import MODEL_RULES, analyze_spec
    from repro.analysis.capacity import CAPACITY_RULES
    from repro.model import get_model
    from repro.model.spec import tiny_spec

    known = tuple(MODEL_RULES)
    if request.capacity:
        known += tuple(CAPACITY_RULES)
    rules = _check_rules(request.rules, known)
    if request.model == "tiny":
        # Enough decoder layers that embedding + head balance against
        # them under any p×v chunking the shape (or the grid's v=2
        # entries) requests — the Section 7.1 layout.
        v = max(request.shape.virtual, 2)
        spec = tiny_spec(num_layers=request.shape.stages * v - 2)
    else:
        try:
            spec = get_model(request.model)
        except KeyError as exc:
            raise RequestError(
                exc.args[0] if exc.args else str(exc), code="unknown-model"
            ) from None

    if request.method == "grid":
        # The E0 acceptance grid: every scheduling method in its
        # reference configuration.
        from repro.experiments.e0 import METHOD_SETUPS

        setups = [
            (method, dict(kwargs)) for method, kwargs in METHOD_SETUPS
        ]
    else:
        setups = [(request.method, {})]

    model_rules = (
        None if rules is None else [r for r in rules if r in MODEL_RULES]
    )
    reports = []
    for method, overrides in setups:
        shape = request.shape
        if overrides:
            shape = ShapeSpec(
                stages=shape.stages,
                microbatches=shape.microbatches,
                slices=int(overrides.get("num_slices", shape.slices)),
                virtual=int(overrides.get("virtual_size", shape.virtual)),
                forwards=shape.forwards,
                wgrad_gemms=int(
                    overrides.get("wgrad_gemms", shape.wgrad_gemms)
                ),
            )
        schedule = _build_schedule(method, shape)
        report = analyze_spec(spec, schedule, rules=model_rules)
        if request.capacity:
            _merge_capacity_findings(report, schedule, rules)
        reports.append(report)
    return CheckModelResponse(
        ok=all(r.ok for r in reports),
        reports=tuple(r.to_dict() for r in reports),
        text="\n".join(r.render_text() for r in reports),
    )


def _handle_evaluate(
    request: EvaluateRequest, sink: EventSink, cache: "SweepCache | None"
) -> EvaluateResponse:
    from repro.analysis.evaluate import (
        evaluate_schedule,
        iteration_time_bounds,
    )
    from repro.sim import UniformCost

    schedule = _build_schedule(request.method, request.shape)
    cost = UniformCost(schedule.problem, tw=request.tw)
    evaluation = evaluate_schedule(schedule, cost)
    bounds = iteration_time_bounds(schedule.problem, cost)
    bounds_dict = (
        None
        if bounds is None
        else {"lower_s": bounds.lower, "upper_s": bounds.upper}
    )
    if request.check:
        from repro.sim.crossval import cross_validate

        report = cross_validate(
            schedule, cost, evaluation=evaluation, bounds=bounds
        )
        return EvaluateResponse(
            ok=report.ok,
            evaluation=evaluation.to_dict(),
            bounds=bounds_dict,
            report=report.to_dict(),
            text=report.render_text(),
        )
    text = evaluation.render_text()
    if bounds is not None:
        text += (
            f"\nbuild-free bounds: [{bounds.lower:.6g}, "
            f"{bounds.upper:.6g}] s"
        )
    return EvaluateResponse(
        ok=True,
        evaluation=evaluation.to_dict(),
        bounds=bounds_dict,
        text=text,
    )


def _handle_capacity(
    request: CapacityRequest, sink: EventSink, cache: "SweepCache | None"
) -> CapacityResponse:
    from repro.analysis.capacity import (
        CAPACITY_RULES,
        certify_capacities,
        check_capacities,
        cross_validate_capacities,
        infer_capacities,
    )
    from repro.schedules import ScheduleError
    from repro.schedules.verify.diagnostics import Report
    from repro.sim import UniformCost

    if request.mode not in ("deadlock-free", "backpressure-free", "full"):
        raise RequestError(
            f"unknown capacity mode {request.mode!r}", code="unknown-mode"
        )
    rules = _check_rules(request.rules, tuple(CAPACITY_RULES))
    schedule = _build_schedule(request.method, request.shape)
    cost = UniformCost(schedule.problem, tw=request.tw)
    try:
        plan = infer_capacities(schedule, cost)
    except ScheduleError as exc:
        raise RequestError(
            str(exc), code="capacity-rejected", exit_status=1, http_status=422
        ) from None
    certificate = None
    if request.check:
        # The plan just inferred: certifying must not infer it again.
        certificate = certify_capacities(
            schedule, cost, capacities=plan.capacities(request.mode)
        )
        report = cross_validate_capacities(schedule, cost, certificate)
    else:
        report = check_capacities(
            schedule, capacities=plan.capacities(request.mode), cost=cost
        )
    if rules is not None:
        report = Report(
            schedule_name=report.schedule_name,
            findings=[f for f in report.findings if f.rule_id in rules],
            checked_rules=tuple(
                r for r in report.checked_rules if r in rules
            ),
        )
    lines = [f"capacity plan for {schedule.name} (mode: {request.mode}):"]
    for channel in plan.channels:
        lines.append(f"  {channel.describe()}")
    if plan.unbounded_makespan is not None:
        lines.append(f"  unbounded makespan: {plan.unbounded_makespan:.6g}")
    if certificate is not None:
        state = (
            "backpressure-free"
            if certificate.backpressure_free
            else "backpressured"
        )
        lines.append(
            f"  certificate: makespan {certificate.makespan:.6g} "
            f"({state}), cross-validated against the bounded simulator"
        )
    lines.append("")
    lines.append(report.render_text())
    return CapacityResponse(
        ok=report.ok,
        plan=plan.to_dict(),
        mode=request.mode,
        report=report.to_dict(),
        certificate=None if certificate is None else certificate.to_dict(),
        text="\n".join(lines),
    )


def _handle_simulate(
    request: SimulateRequest, sink: EventSink, cache: "SweepCache | None"
) -> SimulateResponse:
    from repro.sim import UniformCost, simulate

    schedule = _build_schedule(request.method, request.shape)
    result = simulate(
        schedule, UniformCost(schedule.problem, tw=request.tw), sink=sink
    )
    metrics = result.metrics()
    return SimulateResponse(
        ok=True,
        schedule=schedule.name,
        metrics=metrics.to_dict(),
        text=metrics.render_text(),
    )


def _json_safe_result(result: Any) -> JsonDict:
    """An ``EvalResult`` as a plain JSON dict (nested config included)."""
    data: JsonDict = asdict(result)
    return data


def _handle_plan(
    request: PlanRequest, sink: EventSink, cache: "SweepCache | None"
) -> PlanResponse:
    from repro.hardware import get_cluster
    from repro.model import get_model
    from repro.planner import SweepCache, search_method
    from repro.schedules import gencache
    from repro.schedules.methods import method_traits

    if request.evaluator not in ("sim", "grid"):
        raise RequestError(
            f"unknown search evaluator {request.evaluator!r}",
            code="unknown-evaluator",
        )
    # Refused before the first sweep: a bad last method or a batch size
    # no configuration can take must not cost the sweeps before it.
    for method in request.methods:
        try:
            method_traits(method)
        except KeyError as exc:
            raise RequestError(exc.args[0], code="unknown-method") from None
    for name in ("global_batch_size", "max_spp", "max_vp", "min_dp"):
        value = getattr(request, name)
        if value < 1:
            raise RequestError(
                f"{name} must be >= 1, got {value}", code="invalid-plan"
            )
    try:
        spec = get_model(request.model)
        cluster = get_cluster(request.cluster)
    except KeyError as exc:
        raise RequestError(
            exc.args[0] if exc.args else str(exc), code="unknown-model"
        ) from None
    if not request.use_cache:
        cache = None
    elif cache is None:
        cache = SweepCache()
    else:
        # One on-disk store, counters per request: the reply's ``cache``
        # block counts this sweep's own lookups, whoever else shares it.
        shared, cache = cache, SweepCache(cache.root)
        cache.enabled = shared.enabled
    gen_before = gencache.stats()
    methods: list[JsonDict] = []
    for method in request.methods:
        result = search_method(
            method,
            spec,
            cluster,
            request.global_batch_size,
            max_spp=request.max_spp,
            max_vp=request.max_vp,
            min_dp=request.min_dp,
            jobs=request.jobs,
            cache=cache,
            sink=sink,
            evaluator=request.evaluator,
        )
        best = result.best
        methods.append(
            {
                "method": method,
                "best": None if best is None else _json_safe_result(best),
                "describe": None if best is None else best.describe(),
                "evaluated": len(result.evaluated),
                "skipped": [
                    {"config": s.config.describe(), "reason": s.reason}
                    for s in result.skipped
                ],
                "evaluator": result.evaluator,
            }
        )
    cache_stats = (
        None
        if cache is None
        else {"hits": cache.hits, "misses": cache.misses}
    )
    gen_after = gencache.stats()
    gen_cache = {
        "hits": gen_after["hits"] - gen_before["hits"],
        "misses": gen_after["misses"] - gen_before["misses"],
        "size": gen_after["size"],
    }
    # An all-OOM sweep is still a successfully answered question — the
    # per-method entries say so; ``ok`` tracks executability, matching
    # the CLI's historical exit-0-on-OOM behavior.
    return PlanResponse(
        ok=True, methods=tuple(methods), cache=cache_stats,
        gen_cache=gen_cache,
    )


#: Handler per request type — the dispatch table behind every transport.
HANDLERS: dict[
    type[Request],
    Callable[[Request, EventSink, "SweepCache | None"], Response],
] = {
    PlanRequest: _handle_plan,  # type: ignore[dict-item]
    VerifyRequest: _handle_verify,  # type: ignore[dict-item]
    CheckModelRequest: _handle_check_model,  # type: ignore[dict-item]
    EvaluateRequest: _handle_evaluate,  # type: ignore[dict-item]
    CapacityRequest: _handle_capacity,  # type: ignore[dict-item]
    SimulateRequest: _handle_simulate,  # type: ignore[dict-item]
}


def execute(
    request: Request,
    *,
    sink: EventSink = NULL_SINK,
    cache: "SweepCache | None" = None,
) -> Response:
    """Execute one typed request and return its typed response.

    ``sink`` observes the execution on the telemetry bus (planner
    sweeps emit eval spans and cache counters; the service bridges
    this into per-job progress streams).  ``cache`` overrides the
    sweep cache for plan requests — the service passes its shared
    instance so concurrent tenants converge on one on-disk store.  Each
    plan counts its own hits and misses on a fresh instance with the
    same ``root`` and ``enabled``; the instance passed in keeps its
    counters.

    Raises :class:`RequestError` for unexecutable requests; responses
    with ``ok=False`` report executable-but-failing outcomes (dirty
    reports, all-OOM sweeps).
    """
    try:
        handler = HANDLERS[type(request)]
    except KeyError:
        raise RequestError(
            f"no handler for request type {type(request).__name__}",
            code="unknown-kind",
        ) from None
    return handler(request, sink, cache)
