"""Evaluate one (method, parallel config) on a simulated cluster.

This is the heart of every end-to-end experiment: it builds the
pipeline problem, lets the method's scheduler plan with the calibrated
cost model (the role MEPipe's profiler plays, Section 6), evaluates the
schedule — confirmed against the simulator's heap oracle
(``tier="sim"``: full verification, then a check of claimed times
against the oracle's own cost probes, replaying only if it fails) or
priced by the certified closed-form evaluator (``tier="analytic"``);
the floats are bit-identical either way (``docs/evaluation.md``) — and
converts the outcome into iteration time, memory footprint, OOM
status, throughput, and MFU.

:func:`config_bounds` additionally derives certified build-free bounds
(iteration-time interval, memory floor) for a configuration without
generating a schedule at all; the grid search uses those to
prune dominated candidates before paying for schedule generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Protocol, Sequence

from repro.analysis import interface_report
from repro.analysis.evaluate import (
    AnalyticEvaluation,
    dense_schedule_times,
    evaluate_schedule,
    iteration_time_bounds,
    ledger_peak_units,
    peak_units_floor,
)
from repro.hardware.cluster import ClusterSpec
from repro.model.flops import model_train_flops
from repro.model.memory import GiB, MemoryBudget, budget_for
from repro.model.spec import ModelSpec
from repro.parallel.strategies import ParallelConfig, validate_for_cluster
from repro.schedules.base import PipelineProblem, Schedule, ScheduleError
from repro.schedules.graph import compiled_graph
from repro.schedules.greedy import (
    BuildPruned,
    MemoryCeiling,
    build_claim,
    build_facts,
    default_first_stage_cap,
    min_first_stage_cap,
)
from repro.schedules.methods import build_problem, build_schedule, method_traits
from repro.schedules.verify import assert_clean
from repro.sim.cost import ClusterCost
from repro.sim.executor import SimResult, confirm


@dataclass(frozen=True)
class EvalResult:
    """Outcome of evaluating one configuration."""

    method: str
    config: ParallelConfig
    iteration_time_s: float
    bubble_ratio: float
    peak_memory_bytes: int
    activation_bytes: int
    oom: bool
    tflops_per_gpu: float
    mfu: float
    forwards_before_first_backward: int | None = None
    #: Which evaluation tier produced this result: ``"sim"`` (the heap
    #: oracle's answer + full static verification) or ``"analytic"``
    #: (certified closed-form evaluator).  The numbers are bit-identical
    #: either way; the tier records provenance and keys the sweep cache
    #: so the tiers never alias.
    tier: str = "sim"
    #: Channel-buffer ledger (see :mod:`repro.analysis.capacity`): the
    #: ring-sizing mode the memory charge assumed (always
    #: :data:`CAPACITY_MODE` for a fresh evaluation; the field stays
    #: because it is part of the wire and sweep-cache bytes), the worst
    #: stage's pinned ring bytes (folded into ``peak_memory_bytes`` and
    #: the OOM check), the total ring slots across channels, and whether
    #: the charged capacities are certified backpressure-free (no
    #: critical-path lengthening vs unbounded channels).
    capacity_mode: str = "none"
    channel_buffer_bytes: int = 0
    channel_slots: int = 0
    backpressure_free: bool = True

    @property
    def peak_memory_gib(self) -> float:
        return self.peak_memory_bytes / GiB

    def describe(self) -> str:
        state = "OOM" if self.oom else f"{self.iteration_time_s * 1e3:8.1f} ms"
        return (
            f"{self.method:9s} {self.config.describe():34s} {state}  "
            f"bubble={self.bubble_ratio:5.1%}  mem={self.peak_memory_gib:5.1f} GiB"
        )


#: Fine-grained W GEMM fragments per (slice, chunk) used in cluster
#: evaluations; small to keep simulations fast, large enough that gap
#: filling works.
WGRAD_GEMMS = 2

#: The channel-buffer ledger every evaluation charges: the smallest
#: rings that leave the unbounded-channel critical path intact, i.e.
#: the sizing consistent with the reported iteration time.
CAPACITY_MODE = "backpressure-free"


@dataclass(frozen=True)
class ConfigPrelude:
    """Everything a configuration's evaluation needs before a schedule.

    ``auto_f`` is the Section 4.5 variant selection (``None`` for
    methods without slice-level variants, or when even the default
    fits); ``overhead_time`` the iteration-level DP-sync + optimizer
    seconds.  All of it is a pure function of the evaluation inputs, so
    one cached prelude serves ``config_bounds`` and both tiers of
    ``evaluate_config`` for the same cell — the bounds pass and the
    full evaluation do not each rebuild problem, interface report, cost
    model, and budget.
    """

    problem: PipelineProblem
    cost: ClusterCost
    budget: MemoryBudget
    auto_f: int | None
    overhead_time: float


# Sized for one search: its bounds pass, analytic pass and frontier
# confirmation each ask for every candidate's prelude, and the largest
# single search (7B x VPP, Figure 10) has 58 candidates.  A cold
# Figure 10 sweep answers 186 of its 451 calls here.
@lru_cache(maxsize=256)
def _prelude(
    method: str,
    spec: ModelSpec,
    cluster: ClusterSpec,
    config: ParallelConfig,
    global_batch_size: int,
) -> ConfigPrelude:
    """Validate and assemble one configuration's evaluation prelude.

    Raises exactly the ``ValueError``\\ s :func:`evaluate_config` has
    always raised (invalid config, failing interface check); the
    exceptions are not cached, so every caller observes them.
    """
    traits = method_traits(method)
    vp = traits.fixed_vp or config.vp
    effective = config.with_(vp=vp) if vp != config.vp else config
    problems = validate_for_cluster(effective, cluster.num_devices, spec)
    if problems:
        raise ValueError(f"invalid config {effective}: {problems}")
    n = config.micro_batches(global_batch_size)
    wgrad_gemms = WGRAD_GEMMS if traits.split_backward else 1
    problem = build_problem(
        method,
        config.pp,
        n,
        num_slices=config.spp,
        virtual_size=vp,
        wgrad_gemms=wgrad_gemms,
    )
    # Static interface gate: the partition this (pp, vp) chunking implies
    # must shape/dtype-check before any schedule is built or simulated;
    # a failing config is rejected with the rendered findings and the
    # grid search records why.
    interfaces = interface_report(spec, problem, name=f"{method} {config.describe()}")
    if not interfaces.ok:
        raise ValueError(
            f"partition fails interface checking:\n{interfaces.render_text()}"
        )
    cost = ClusterCost(spec=spec, config=config, cluster=cluster, problem=problem)
    budget = budget_for(
        spec,
        capacity_bytes=cluster.gpu.memory_bytes,
        # TP shards every stage's parameters the same way more pipeline
        # stages would, so it folds into the per-device divisor.
        pipeline_stages=config.pp * config.tp,
        total_devices=cluster.num_devices,
        micro_batch_tokens=cost.tokens_per_op * config.micro_batch_size,
    )
    auto_f = None
    if traits.uses_spp:
        auto_f = select_variant(problem, cost, budget.available_for_activations)
    overhead = cost.dp_sync_seconds() + cost.optimizer_seconds()
    return ConfigPrelude(
        problem=problem,
        cost=cost,
        budget=budget,
        auto_f=auto_f,
        overhead_time=overhead,
    )


def evaluate_config(
    method: str,
    spec: ModelSpec,
    cluster: ClusterSpec,
    config: ParallelConfig,
    global_batch_size: int,
    forwards_before_first_backward: int | None = None,
    tier: str = "sim",
    ceiling: int | None = None,
) -> EvalResult:
    """Evaluate one configuration; never raises for OOM (returns it).

    For SVPP/MEPipe without an explicit
    ``forwards_before_first_backward``, the Section 4.5 memory model
    selects the largest ``f`` whose activation footprint fits the
    device budget (fewer forwards in flight -> more bubbles but less
    memory, Figure 5).

    ``tier`` selects how the built schedule is evaluated.  ``"sim"``
    runs the full static verification (``assert_clean``) and takes the
    heap oracle's answer: the claimed times (a greedy build's committed
    timeline, else the scalar kernel's) checked against the oracle's
    own cost probes, with the heap replay only when the check fails
    (:func:`repro.sim.executor.confirm`).  ``"analytic"`` runs the
    certified closed-form evaluator instead, which produces
    bit-identical iteration time, bubble ratio, and memory — the grid
    search uses it for the cheap first pass and re-evaluates only the
    Pareto frontier at ``"sim"`` provenance.

    The channel-buffer ledger charges ring bytes at the
    :data:`CAPACITY_MODE` capacities
    (:func:`repro.analysis.capacity.infer_capacities`) to the
    peak-memory figure and the OOM check.  The charge is conservative:
    the worst stage's ring bytes are added to the shared per-stage
    budget.

    A memory floor (peak memory without ring bytes) at or above
    ``ceiling`` raises :class:`~repro.schedules.greedy.BuildPruned`
    unpriced, from inside a greedy build or before pricing.
    """
    pre = _prelude(method, spec, cluster, config, global_batch_size)
    f = forwards_before_first_backward
    if f is None:
        f = pre.auto_f

    bound = None
    if ceiling is not None:
        bound = MemoryCeiling(
            ceiling, pre.budget.pinned, pre.cost.activation_bytes_per_unit()
        )
    # Memoised on its inputs: a cell's analytic pass and its frontier
    # confirmation share one construction, verdict and compiled graph.
    schedule = build_schedule(method, pre.problem, pre.cost, f, ceiling=bound)
    if bound is not None:
        floor = bound.floor_bytes(_ledger_peak_units(schedule))
        if floor >= bound.limit_bytes:
            raise BuildPruned(floor, 0)
    result: SimResult | AnalyticEvaluation
    cost, overhead = pre.cost, pre.overhead_time
    if tier == "sim":
        # Full static verification (channel order, liveness, closed-form
        # cross-check on top of the builder's safety tier): a misgenerated
        # schedule is rejected here with the complete diagnostic report, so
        # the grid search skips it and the trail explains why.
        assert_clean(schedule, method=method)
        # The heap oracle's answer, deliberately: the sim tier confirms
        # the analytic tier's frontier, so the check prices with the
        # oracle's probes, not the kernel's cost table, and a claim it
        # rejects is replayed on the heap, not re-run on the kernel.
        claimed = build_claim(schedule, cost)
        if claimed is None:
            claimed = dense_schedule_times(compiled_graph(schedule), cost).start
        result = confirm(schedule, cost, claimed, overhead_time=overhead)
    elif tier == "analytic":
        # The closed-form evaluator: same floats, certified exact, no
        # event replay and only the builder's safety-tier verification
        # (the frontier is re-evaluated at "sim" before anything ships).
        result = evaluate_schedule(schedule, cost, overhead_time=overhead)
    else:
        raise ValueError(f"unknown evaluation tier {tier!r}")

    return _finalize(
        method,
        spec,
        cluster,
        config,
        global_batch_size,
        pre,
        f,
        schedule,
        result,
        tier,
    )


def _finalize(
    method: str,
    spec: ModelSpec,
    cluster: ClusterSpec,
    config: ParallelConfig,
    global_batch_size: int,
    pre: ConfigPrelude,
    f: int | None,
    schedule: Schedule,
    result: SimResult | AnalyticEvaluation,
    tier: str,
) -> EvalResult:
    """Turn a tier's raw evaluation into an :class:`EvalResult`.

    The memory/OOM/throughput postlude of :func:`evaluate_config`,
    the same code for both tiers so their results differ only in the
    ``tier`` tag.
    """
    cost, budget, problem = pre.cost, pre.budget, pre.problem
    act_bytes = int(result.peak_activation_units * cost.activation_bytes_per_unit())
    from repro.analysis.capacity import infer_capacities, ring_bytes_per_stage
    from repro.pipeline.channels import _HEADER_BYTES

    # Priced on the per-op times the tier already computed: the
    # inference never re-runs the dense kernel, and it skips the
    # deadlock-free coordinate descent this ledger never reads.
    plan = infer_capacities(
        schedule, cost, times=result.times, include_deadlock_free=False
    )
    caps = plan.capacities(CAPACITY_MODE)
    slot_bytes = _HEADER_BYTES + int(cost.boundary_message_bytes())
    per_stage = ring_bytes_per_stage(caps, problem.num_stages, slot_bytes)
    channel_bytes = max(per_stage, default=0)
    peak = budget.pinned + act_bytes + channel_bytes

    oom = peak > cluster.gpu.memory_bytes
    flops = model_train_flops(spec, spec.seq_length) * global_batch_size
    tflops_per_gpu = flops / result.iteration_time / cluster.num_devices / 1e12
    mfu = tflops_per_gpu / cluster.gpu.peak_fp16_tflops
    return EvalResult(
        method=method,
        config=config,
        iteration_time_s=result.iteration_time,
        bubble_ratio=result.bubble_ratio,
        peak_memory_bytes=peak,
        activation_bytes=act_bytes,
        oom=oom,
        tflops_per_gpu=tflops_per_gpu,
        mfu=mfu,
        forwards_before_first_backward=f,
        tier=tier,
        capacity_mode=CAPACITY_MODE,
        channel_buffer_bytes=channel_bytes,
        channel_slots=sum(caps.values()),
        backpressure_free=(
            plan.backpressure_free_makespan == plan.unbounded_makespan
        ),
    )


def _ledger_peak_units(schedule: Schedule) -> float:
    """The ledger peak :func:`_finalize` would charge: a greedy build's
    own (bit-equal), else the compiled graph's."""
    facts = build_facts(schedule)
    if facts is not None:
        return float(facts.ledger_peak_units)
    return ledger_peak_units(compiled_graph(schedule))


@dataclass(frozen=True)
class ConfigBounds:
    """Certified build-free bounds on one configuration's outcome.

    ``lower_time_s``/``upper_time_s`` bound the iteration time of *any*
    schedule of this configuration (guard-banded, see
    :mod:`repro.analysis.evaluate.bounds`); ``memory_floor_bytes``
    lower-bounds its peak memory the same way.  A configuration whose
    lower bound already loses to an evaluated frontier member on *both*
    axes is certainly dominated and need never be scheduled.
    """

    lower_time_s: float
    upper_time_s: float
    memory_floor_bytes: int


def config_bounds(
    method: str,
    spec: ModelSpec,
    cluster: ClusterSpec,
    config: ParallelConfig,
    global_batch_size: int,
) -> ConfigBounds | None:
    """Certified bounds for a configuration, without building a schedule.

    Mirrors :func:`evaluate_config`'s prelude (validation, problem and
    cost construction, budget, variant selection) but stops before
    ``build_schedule``.  Returns ``None`` whenever anything that the
    full evaluation would reject (or that the bound theory does not
    cover) comes up — the caller then falls through to the full
    evaluation, which raises or answers authoritatively.

    Not memoised: the grid sweep derives each candidate's bounds once
    per search, and a repeated request is answered by the service's
    job index before any search runs.
    """
    try:
        pre = _prelude(method, spec, cluster, config, global_batch_size)
        bounds = iteration_time_bounds(
            pre.problem, pre.cost, overhead_time=pre.overhead_time
        )
        if bounds is None:
            return None
        floor_units = peak_units_floor(
            pre.problem, pre.cost, forwards_floor=pre.auto_f
        )
        floor = pre.budget.pinned
        floor += int(floor_units * pre.cost.activation_bytes_per_unit())
        return ConfigBounds(
            lower_time_s=bounds.lower,
            upper_time_s=bounds.upper,
            memory_floor_bytes=floor,
        )
    except (ScheduleError, ValueError, KeyError):
        return None


class EvalTaskLike(Protocol):
    """The task shape the task-level helpers below consume.

    Structural twin of :class:`repro.planner.parallel.EvalTask`
    (declared here as a protocol because ``parallel`` imports this
    module, not the other way around).
    """

    @property
    def method(self) -> str: ...
    @property
    def spec(self) -> ModelSpec: ...
    @property
    def cluster(self) -> ClusterSpec: ...
    @property
    def config(self) -> ParallelConfig: ...
    @property
    def global_batch_size(self) -> int: ...
    @property
    def tier(self) -> str: ...


# Read only by bench/ledger.py's replay; retire it with that replay.
def task_class_key(task: EvalTaskLike) -> Hashable | None:
    """``(method, problem, auto_f, tier, CAPACITY_MODE)`` of one task.

    Tasks sharing this key build their schedules over the same problem
    with the same variant selection.  ``None`` when the prelude rejects
    the task (its evaluation errors identically).
    """
    try:
        pre = _prelude(
            task.method, task.spec, task.cluster, task.config, task.global_batch_size
        )
    except (ScheduleError, ValueError, KeyError):
        return None
    return (task.method, pre.problem, pre.auto_f, task.tier, CAPACITY_MODE)


def config_bounds_batch(
    tasks: Sequence[EvalTaskLike],
) -> list[ConfigBounds | None]:
    """:func:`config_bounds` of every task, in task order."""
    return [
        config_bounds(
            task.method,
            task.spec,
            task.cluster,
            task.config,
            task.global_batch_size,
        )
        for task in tasks
    ]


def select_variant(problem, cost: ClusterCost, available_bytes: int) -> int | None:
    """Section 4.5: pick the largest feasible ``f`` for the budget.

    Returns ``None`` when even the memory-optimal variant fits (the
    scheduler then uses its default), otherwise the clamped ``f``; the
    minimum ``v*s`` is returned even when it does not fit — the caller
    detects the OOM from the simulated footprint.
    """
    per_op = cost.activation_bytes_per_unit() * problem.activation_units_per_op
    max_f = default_first_stage_cap(problem)
    min_f = min_first_stage_cap(problem)
    if available_bytes <= 0:
        return min_f
    fit = int(available_bytes // per_op)
    if fit >= max_f:
        return None
    return max(min_f, fit)
