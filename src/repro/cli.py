"""Command-line interface: ``mepipe <command>`` / ``python -m repro``.

Commands:

* ``experiment <id>`` — regenerate one paper artifact (``list`` to see
  ids) and print it.
* ``schedule <method>`` — generate a schedule and print its ASCII
  timeline (Figures 2-7 style).
* ``verify <method>`` — statically verify a generated schedule
  (placement, coverage, deadlock witnesses, channel order, activation
  liveness, Table 3 closed-form agreement); exits non-zero on errors.
  ``--capacity`` additionally certifies bounded-channel deadlock
  freedom at the inferred minimal ring sizes (CP rules).
* ``check-model <method|grid>`` — statically analyze the (model
  partition, schedule) pair (shape/interface inference, gradient
  coverage, happens-before hazards); exits non-zero on errors.
  ``--capacity`` folds the CP rule family into each report.
* ``capacity <method>`` — infer per-channel ring capacities (minimal
  deadlock-free and backpressure-free), certify them, and print the
  plan + CP diagnostics; ``--check`` cross-validates the certificate
  against the bounded-channel simulator (CP004).
* ``plan <model> <gbs>`` — grid-search every method and print the
  winners (routed through the analytic first pass).
* ``evaluate <method>`` — analytically evaluate a generated schedule
  (certified closed forms, ``docs/evaluation.md``); ``--check``
  cross-validates against the event simulator (EV rules).
* ``trace <method>`` — run one iteration on the simulator and/or the
  NumPy runtime and export a combined Chrome/Perfetto trace via the
  telemetry bus (``repro.obs``).
* ``report <method>`` — run both substrates and print their uniform
  :class:`~repro.obs.metrics.IterationMetrics` side by side.
* ``serve`` — run the planner-as-a-service HTTP endpoint
  (:mod:`repro.service`, ``docs/service.md``).
* ``client <kind>`` — talk to a running service with the same typed
  request payloads.

Subcommands are declared in the :data:`SUBCOMMANDS` registry — one
:class:`Subcommand` entry per command bundling its flag setup and
handler — so adding a command is one entry, not parser surgery.

The request-shaped commands (``verify``, ``check-model``, ``plan``,
``evaluate``, ``capacity``) build a typed request from
:mod:`repro.api.types` and route through :func:`repro.api.execute` —
the same code path the HTTP service runs — so the transports cannot
drift.
"""

from __future__ import annotations

import argparse
import json as _json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.api import ShapeSpec, VerifyResponse
    from repro.model.spec import ModelSpec
    from repro.pipeline.runtime import RunResult
    from repro.schedules.base import PipelineProblem, Schedule
    from repro.sim.executor import SimResult


# ----------------------------------------------------------------------
# Declarative subcommand registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Subcommand:
    """One CLI command: name, help line, flag setup, and handler."""

    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


# ----------------------------------------------------------------------
# Shared flag groups
# ----------------------------------------------------------------------
def _shape_flags(
    parser: argparse.ArgumentParser, *, aliases: bool = True
) -> None:
    """The (p, n, s, v, f, g) problem-shape flags every command shares."""
    alias = (lambda long, short: (long, short)) if aliases else (
        lambda long, short: (long,)
    )
    parser.add_argument(*alias("--stages", "--p"), type=int, default=4,
                        help="pipeline stages p")
    parser.add_argument(*alias("--microbatches", "--n"), type=int, default=4,
                        help="micro-batches n")
    parser.add_argument(*alias("--slices", "--s"), type=int, default=1,
                        help="slices per sample s (SPP)")
    parser.add_argument(*alias("--virtual", "--v"), type=int, default=1,
                        help="chunks per stage v (VPP)")
    parser.add_argument(*alias("--forwards", "--f"), type=int, default=None,
                        help="f variant (SVPP/MEPipe)")
    parser.add_argument("--wgrad-gemms", type=int, default=1)


def _report_flags(parser: argparse.ArgumentParser) -> None:
    """``--rules`` selector and ``--format text|json`` (``--json``
    is the historical shorthand), shared by verify and check-model."""
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids (default: all)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report output format")
    parser.add_argument("--json", action="store_true",
                        help="shorthand for --format json")


def _sweep_flags(parser: argparse.ArgumentParser, jobs_default: int | None) -> None:
    parser.add_argument("--jobs", type=int, default=jobs_default,
                        help="worker processes for the grid searches")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not reuse/persist sweep results on disk")


def _shape_from_args(args: argparse.Namespace) -> "ShapeSpec":
    """The typed :class:`repro.api.ShapeSpec` for the shared shape flags."""
    from repro.api import ShapeSpec

    return ShapeSpec(
        stages=args.stages,
        microbatches=args.microbatches,
        slices=args.slices,
        virtual=args.virtual,
        forwards=args.forwards,
        wgrad_gemms=args.wgrad_gemms,
    )


def _rules_from_args(args: argparse.Namespace) -> tuple[str, ...] | None:
    """The raw ``--rules`` selector (validated by the API handlers)."""
    if not args.rules:
        return None
    return tuple(r for r in args.rules.split(",") if r.strip())


def _emit_report_response(
    response: "VerifyResponse", args: argparse.Namespace
) -> int:
    """Render a report-carrying response per ``--format``; exit status 1
    when any report carries an error-severity finding."""
    as_json = args.json or args.format == "json"
    if as_json:
        if len(response.reports) == 1:
            print(_json.dumps(response.reports[0], indent=2))
        else:
            print(_json.dumps(list(response.reports), indent=2))
    else:
        print(response.text)
    return 0 if response.ok else 1


def _build_for_cli(args: argparse.Namespace, method: str, **overrides):
    """Build (problem, schedule) from CLI shape flags.

    Returns ``(schedule, None)`` on success or ``(None, exit_code)``
    after printing the diagnosis — shared by every schedule-shaped
    command.
    """
    from repro.schedules import ScheduleError, build_problem, build_schedule

    kwargs = {
        "num_slices": args.slices,
        "virtual_size": args.virtual,
        "wgrad_gemms": args.wgrad_gemms,
    }
    kwargs.update(overrides)
    try:
        problem = build_problem(
            method, args.stages, args.microbatches, **kwargs
        )
        schedule = build_schedule(
            method, problem, forwards_before_first_backward=args.forwards
        )
    except KeyError as exc:  # unknown method name
        print(exc.args[0] if exc.args else exc)
        return None, 2
    except ValueError as exc:  # out-of-range shape (p/n/s/v/g)
        print(exc)
        return None, 2
    except ScheduleError as exc:
        # Invalid shape for the method, or the generator itself produced
        # a schedule the safety tier rejects — either way the message is
        # the diagnosis.
        print(exc)
        return None, 1
    return schedule, None


def _tiny_spec_for(problem: "PipelineProblem") -> "ModelSpec":
    """A miniature model spec executable under ``problem``.

    Enough decoder layers that embedding + head balance against them
    under the problem's chunking (the Section 7.1 layout), with the
    sequence divisible into the problem's slices.
    """
    from repro.model.spec import tiny_spec

    seq = 32
    if seq % problem.num_slices:
        seq = problem.num_slices * 8
    return tiny_spec(
        num_layers=2 * problem.num_chunks - 2, seq_length=seq
    )


def _run_both_substrates(
    args: argparse.Namespace,
    schedule: "Schedule",
    *,
    seed: int = 11,
    executor: str = "serial",
) -> "tuple[SimResult, RunResult]":
    """One iteration of ``schedule`` on the simulator and the runtime.

    ``executor`` selects the numerical substrate: ``"serial"`` for the
    single-process golden :class:`~repro.pipeline.PipelineRuntime`,
    ``"parallel"`` for the multi-process
    :class:`~repro.pipeline.ParallelPipelineRuntime` (one worker per
    stage; identical numerics, measured wall-clock overlap).

    The simulated result is stamped with the byte sizes of the
    runtime's actual float64 tensors, so the two substrates report the
    same communication volume (message counts always agree — they are
    derived from the same cross-stage boundary edges).
    """
    from repro.data import token_batches
    from repro.model.memory import sample_activation_bytes
    from repro.nn import build_model
    from repro.pipeline import ParallelPipelineRuntime, PipelineRuntime
    from repro.sim import UniformCost, simulate

    problem = schedule.problem
    spec = _tiny_spec_for(problem)
    batch = 2
    sim_result = simulate(schedule, UniformCost(problem, tw=args.tw))
    float64 = 8
    sim_result.comm_bytes_per_message = float(
        batch * (spec.seq_length // problem.num_slices)
        * spec.hidden_size * float64
    )
    sim_result.activation_bytes_per_unit = float(
        sample_activation_bytes(spec) * batch
    )
    tokens, targets = token_batches(
        spec.vocab_size, problem.num_microbatches, batch, spec.seq_length,
        seed=5,
    )
    model = build_model(spec, seed=seed)
    if executor == "parallel":
        run_result = ParallelPipelineRuntime(model, tokens, targets).run(schedule)
    else:
        run_result = PipelineRuntime(model, tokens, targets).run(schedule)
    return sim_result, run_result


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------
def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import REGISTRY
    from repro.experiments.common import configure_planner

    configure_planner(jobs=args.jobs, use_cache=not args.no_cache)
    if args.id == "list":
        for key in REGISTRY:
            print(key)
        return 0
    if args.id not in REGISTRY:
        print(f"unknown experiment {args.id!r}; try: {', '.join(REGISTRY)}")
        return 2
    print(REGISTRY[args.id]().render())
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.obs.chrome import write_sim_trace
    from repro.sim import UniformCost, simulate
    from repro.viz import render_memory_profile, render_timeline

    schedule, status = _build_for_cli(args, args.method)
    if schedule is None:
        assert status is not None
        return status
    result = simulate(schedule, UniformCost(schedule.problem, tw=args.tw))
    print(render_timeline(result, width=args.width))
    if args.memory:
        print()
        print(render_memory_profile(result, stage=0, width=args.width))
    if args.trace:
        path = write_sim_trace(result, args.trace)
        print(f"\nchrome trace written to {path} (open in ui.perfetto.dev)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.api import RequestError, VerifyRequest, execute

    request = VerifyRequest(
        method=args.method,
        shape=_shape_from_args(args),
        rules=_rules_from_args(args),
        capacity=args.capacity,
    )
    try:
        response = execute(request)
    except RequestError as exc:
        print(exc)
        return exc.exit_status
    return _emit_report_response(response, args)


def _cmd_check_model(args: argparse.Namespace) -> int:
    from repro.api import CheckModelRequest, RequestError, execute

    request = CheckModelRequest(
        method=args.method,
        model=args.model,
        shape=_shape_from_args(args),
        rules=_rules_from_args(args),
        capacity=args.capacity,
    )
    try:
        response = execute(request)
    except RequestError as exc:
        print(exc)
        return exc.exit_status
    return _emit_report_response(response, args)


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.api import PlanRequest, RequestError, execute

    request = PlanRequest(
        model=args.model,
        global_batch_size=args.gbs,
        cluster=args.cluster,
        methods=tuple(args.methods.split(",")),
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    try:
        response = execute(request)
    except RequestError as exc:
        print(exc)
        return exc.exit_status
    for entry in response.methods:
        method = entry["method"]
        if entry["best"] is None:
            print(f"{method:9s} OOM in every configuration")
        else:
            print(f"{method:9s} {entry['describe']}")
        if args.show_skipped:
            for skip in entry["skipped"]:
                print(f"  skipped {skip['config']}: {skip['reason']}")
    cache = response.cache
    if cache is not None and (cache["hits"] or cache["misses"]):
        print(f"sweep cache: {cache['hits']} hits, {cache['misses']} misses")
    gen = response.gen_cache
    if gen["hits"] or gen["misses"]:
        print(
            f"gen cache: {gen['hits']} hits, "
            f"{gen['misses']} misses, {gen['size']} resident"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.api import EvaluateRequest, RequestError, execute

    request = EvaluateRequest(
        method=args.method,
        shape=_shape_from_args(args),
        tw=args.tw,
        check=args.check,
    )
    try:
        response = execute(request)
    except RequestError as exc:
        print(exc)
        return exc.exit_status
    as_json = args.json or args.format == "json"
    if args.check:
        if as_json:
            print(_json.dumps(response.report, indent=2))
        else:
            print(response.text)
        return 0 if response.ok else 1
    if as_json:
        payload = dict(response.evaluation)
        if response.bounds is not None:
            payload["build_free_bounds"] = response.bounds
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(response.text)
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.api import CapacityRequest, RequestError, execute

    request = CapacityRequest(
        method=args.method,
        shape=_shape_from_args(args),
        tw=args.tw,
        mode=args.mode,
        rules=_rules_from_args(args),
        check=args.check,
    )
    try:
        response = execute(request)
    except RequestError as exc:
        print(exc)
        return exc.exit_status
    if args.json or args.format == "json":
        payload = dict(response.plan)
        payload["mode"] = response.mode
        payload["report"] = response.report
        if response.certificate is not None:
            payload["certificate"] = response.certificate
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(response.text)
    return 0 if response.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.record import record_iteration
    from repro.obs.sinks import ChromeTraceSink

    schedule, status = _build_for_cli(args, args.method)
    if schedule is None:
        assert status is not None
        return status
    executor = "parallel" if args.substrate == "parallel" else "serial"
    sim_result, run_result = _run_both_substrates(args, schedule, executor=executor)
    sink = ChromeTraceSink(
        args.out,
        other_data={
            "schedule": schedule.name,
            "sim_bubble_ratio": round(sim_result.bubble_ratio, 6),
            "runtime_bubble_ratio": round(run_result.bubble_ratio, 6),
        },
    )
    with sink:
        if args.substrate in ("both", "sim", "parallel"):
            record_iteration(sim_result, sink, pid=0, process="simulated")
        if args.substrate in ("both", "runtime"):
            record_iteration(run_result, sink, pid=1, process="executed")
        if args.substrate == "parallel":
            # The measured multi-process iteration renders alongside the
            # simulated one — same viewer schema, its own process group.
            record_iteration(run_result, sink, pid=2, process="parallel")
    print(f"chrome trace written to {args.out} (open in ui.perfetto.dev)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    schedule, status = _build_for_cli(args, args.method)
    if schedule is None:
        assert status is not None
        return status
    sim_result, run_result = _run_both_substrates(args, schedule)
    sim_metrics = sim_result.metrics()
    run_metrics = run_result.metrics()
    if args.json or args.format == "json":
        print(_json.dumps(
            {"sim": sim_metrics.to_dict(), "runtime": run_metrics.to_dict()},
            indent=2, sort_keys=True,
        ))
    else:
        print(sim_metrics.render_text())
        print()
        print(run_metrics.render_text())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import PlannerService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        request_timeout_s=args.timeout,
        dedup=not args.no_dedup,
        use_cache=not args.no_cache,
    )
    if args.tenant_quota is not None:
        config.tenant_quota = args.tenant_quota

    async def _serve() -> None:
        service = PlannerService(config)
        await service.start()
        print(
            f"planner service listening on {service.address} "
            f"(schema v{_schema_version()})",
            flush=True,
        )
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _schema_version() -> int:
    from repro.api import SCHEMA_VERSION

    return SCHEMA_VERSION


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.api import RequestError, request_from_dict
    from repro.api.types import REQUESTS
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(
        args.address, tenant=args.tenant, timeout_s=args.timeout
    )
    try:
        if args.what == "health":
            print(_json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.what == "job":
            if not args.arg:
                print("usage: client job <job-id>")
                return 2
            data = client.wait(args.arg) if args.wait else client.job(args.arg)
            print(_json.dumps(data, indent=2, sort_keys=True))
            return 0
        if args.what == "events":
            if not args.arg:
                print("usage: client events <job-id>")
                return 2
            for name, payload in client.events(args.arg):
                print(f"{name}: {_json.dumps(payload, sort_keys=True)}")
            return 0
        if args.what not in REQUESTS:
            print(
                f"unknown request kind {args.what!r}; known: "
                f"{', '.join(sorted(REQUESTS))}, job, events, health"
            )
            return 2
        body: dict = _json.loads(args.body) if args.body else {}
        body["kind"] = args.what
        request = request_from_dict(body)
        if args.mode == "async":
            print(_json.dumps(client.submit(request), indent=2,
                              sort_keys=True))
            return 0
        response = client.request(request)
        print(_json.dumps(response.to_dict(), indent=2, sort_keys=True))
        return 0 if response.ok else 1
    except RequestError as exc:
        print(exc)
        return exc.exit_status
    except ServiceError as exc:
        print(exc)
        return 1
    except OSError as exc:
        print(f"cannot reach {args.address}: {exc}")
        return 1


# ----------------------------------------------------------------------
# Per-command flag setup
# ----------------------------------------------------------------------
def _configure_experiment(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("id", help="experiment id, or 'list'")
    _sweep_flags(parser, jobs_default=None)


def _configure_schedule(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("method")
    _shape_flags(parser)
    parser.add_argument("--tw", type=float, default=1.0,
                        help="weight-gradient time (split methods)")
    parser.add_argument("--width", type=int, default=120)
    parser.add_argument("--memory", action="store_true",
                        help="also render stage 0's activation profile")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome/Perfetto trace JSON")


def _configure_verify(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("method")
    _shape_flags(parser)
    _report_flags(parser)
    parser.add_argument("--capacity", action="store_true",
                        help="also certify bounded-channel deadlock freedom "
                             "at the inferred minimal ring sizes (CP rules)")


def _configure_check_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "method", help="scheduling method, or 'grid' for the E0 acceptance grid"
    )
    parser.add_argument("--model", default="tiny",
                        help="model spec: tiny / 7b / 13b / 34b")
    _shape_flags(parser)
    _report_flags(parser)
    parser.add_argument("--capacity", action="store_true",
                        help="fold the bounded-channel CP rule family into "
                             "each report")


def _configure_capacity(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("method")
    _shape_flags(parser)
    _report_flags(parser)
    parser.add_argument("--tw", type=float, default=1.0,
                        help="weight-gradient time (split methods)")
    parser.add_argument("--mode",
                        choices=("deadlock-free", "backpressure-free", "full"),
                        default="backpressure-free",
                        help="which inferred capacity vector to certify")
    parser.add_argument("--check", action="store_true",
                        help="cross-validate the certificate against the "
                             "bounded-channel event simulator (CP004)")


def _configure_plan(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="7b / 13b / 34b")
    parser.add_argument("gbs", type=int)
    parser.add_argument("--cluster", default="rtx4090-64")
    parser.add_argument("--methods", default="dapple,vpp,zb,zbv,mepipe")
    _sweep_flags(parser, jobs_default=1)
    parser.add_argument("--show-skipped", action="store_true",
                        help="print every pruned/rejected config with reason")


def _configure_evaluate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("method")
    _shape_flags(parser)
    parser.add_argument("--tw", type=float, default=1.0,
                        help="weight-gradient time (split methods)")
    parser.add_argument("--check", action="store_true",
                        help="cross-validate the evaluation against the "
                             "event simulator (EV rules)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format")
    parser.add_argument("--json", action="store_true",
                        help="shorthand for --format json")


def _configure_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("method")
    _shape_flags(parser)
    parser.add_argument("--tw", type=float, default=1.0,
                        help="weight-gradient time (split methods)")
    parser.add_argument("--out", metavar="FILE", default="trace.json",
                        help="output trace path")
    parser.add_argument("--substrate",
                        choices=("both", "sim", "runtime", "parallel"),
                        default="both",
                        help="which substrate(s) to record")


def _configure_report(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("method")
    _shape_flags(parser)
    parser.add_argument("--tw", type=float, default=1.0,
                        help="weight-gradient time (split methods)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="metrics output format")
    parser.add_argument("--json", action="store_true",
                        help="shorthand for --format json")


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8731,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes per planner sweep")
    parser.add_argument("--timeout", type=float, default=None,
                        help="default request deadline in seconds "
                             "(default: REPRO_REQUEST_TIMEOUT, then "
                             "REPRO_CHANNEL_TIMEOUT, then 60)")
    parser.add_argument("--tenant-quota", type=int, default=None,
                        help="max concurrently active jobs per tenant")
    parser.add_argument("--no-dedup", action="store_true",
                        help="compute every request: do not share identical "
                             "in-flight requests or reuse finished answers")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not reuse/persist sweep results on disk")


def _configure_client(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "what",
        help="request kind (plan, verify, check-model, evaluate, "
             "capacity, simulate) or job / events / health",
    )
    parser.add_argument("arg", nargs="?", default=None,
                        help="job id for job/events")
    parser.add_argument("--address", default="http://127.0.0.1:8731")
    parser.add_argument("--body", default=None,
                        help="JSON request payload (kind is implied)")
    parser.add_argument("--mode", choices=("sync", "async"), default="sync",
                        help="async submits and prints the job descriptor")
    parser.add_argument("--tenant", default=None,
                        help="value for the X-Repro-Tenant header")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-request deadline in seconds")
    parser.add_argument("--wait", action="store_true",
                        help="with 'job': poll until the job finishes")


#: Every CLI command, declaratively.  ``build_parser`` materializes the
#: argparse tree from this table.
SUBCOMMANDS: tuple[Subcommand, ...] = (
    Subcommand("experiment", "regenerate a paper artifact",
               _configure_experiment, _cmd_experiment),
    Subcommand("schedule", "render a schedule timeline",
               _configure_schedule, _cmd_schedule),
    Subcommand("verify", "statically verify a generated schedule",
               _configure_verify, _cmd_verify),
    Subcommand("check-model",
               "statically analyze the (model partition, schedule) pair",
               _configure_check_model, _cmd_check_model),
    Subcommand("plan", "grid-search parallel strategies",
               _configure_plan, _cmd_plan),
    Subcommand("evaluate",
               "analytically evaluate a schedule (certified closed forms)",
               _configure_evaluate, _cmd_evaluate),
    Subcommand("capacity",
               "infer and certify bounded-channel ring capacities (CP rules)",
               _configure_capacity, _cmd_capacity),
    Subcommand("trace",
               "export a combined sim + runtime Chrome/Perfetto trace",
               _configure_trace, _cmd_trace),
    Subcommand("report",
               "print uniform iteration metrics from both substrates",
               _configure_report, _cmd_report),
    Subcommand("serve",
               "run the planner-as-a-service HTTP endpoint (docs/service.md)",
               _configure_serve, _cmd_serve),
    Subcommand("client",
               "talk to a running planner service",
               _configure_client, _cmd_client),
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="mepipe", description="MEPipe reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in SUBCOMMANDS:
        sub_parser = sub.add_parser(command.name, help=command.help)
        command.configure(sub_parser)
        sub_parser.set_defaults(func=command.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
