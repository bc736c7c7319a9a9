"""Grid search for the optimal parallel strategy per scheduling method.

Section 7.3 ("Selection of the Optimal Parallel Strategy"): memory and
bubble ratio are predictable, communication and kernel efficiency less
so, hence the paper grid-searches (PP, DP, CP or SPP, VP, recompute)
per method.  This module reproduces that search against the simulator.

The search itself is a task list handed to
:mod:`repro.planner.parallel`, which fans evaluations out over a
process pool (``jobs``) and replays previously computed cells from the
on-disk sweep cache; the merge is deterministic in both dimensions.
Every candidate the search does *not* evaluate is recorded in the
result's ``skipped`` trail with the reason, so a sweep is auditable:
``evaluated + skipped`` covers the whole enumerated space.

The default ``evaluator="grid"`` routes the sweep through the analytic
first pass (see ``docs/evaluation.md``), a branch-and-bound in waves:
a candidate certainly OOM or strictly dominated by the frontier so far
is pruned by its certified build-free bounds, or stops building once
its own prefix proves it.  The survivors are evaluated with the
closed-form evaluator (bit-identical numbers, no event replay), and
only the resulting Pareto frontier is re-evaluated at full ``"sim"``
provenance.  ``evaluator="sim"`` evaluates every candidate on the
simulator instead — the reference the tests prove ``"grid"`` against:
the best, the frontier and every evaluated row's numbers are
identical; only the provenance tags, the rows moved to ``skipped`` and
the work done differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.hardware.cluster import ClusterSpec
from repro.model.memory import GiB
from repro.model.spec import ModelSpec
from repro.obs.events import NULL_SINK, EventSink
from repro.parallel.grid import enumerate_configs
from repro.parallel.strategies import ParallelConfig
from repro.planner.evaluate import ConfigBounds, EvalResult, config_bounds_batch
from repro.planner.parallel import (
    EvalOutcome,
    EvalTask,
    SweepCache,
    best_result,
    evaluate_tasks,
    merge_outcomes,
)
from repro.schedules.methods import method_traits

@dataclass(frozen=True)
class SkippedConfig:
    """One candidate the search rejected without simulating, and why."""

    config: ParallelConfig
    reason: str


@dataclass
class SearchResult:
    """Best configuration found for one method, plus the trail."""

    method: str
    best: EvalResult | None
    evaluated: list[EvalResult]
    #: Candidates rejected before or during evaluation, with reasons
    #: (static pruning, fixed-VP methods, analytic domination,
    #: scheduler rejections).
    skipped: list[SkippedConfig] = field(default_factory=list)
    #: Which evaluation pipeline produced this result ("sim" or
    #: "grid"); the numbers are identical in either case.
    evaluator: str = "sim"

    @property
    def all_oom(self) -> bool:
        """Nothing fits, and something was evaluated or pruned as OOM."""
        return self.best is None and (
            any(r.oom for r in self.evaluated)
            or any(s.reason.startswith(CERTAIN_OOM) for s in self.skipped)
        )


def search_method(
    method: str,
    spec: ModelSpec,
    cluster: ClusterSpec,
    global_batch_size: int,
    max_spp: int = 16,
    max_vp: int = 2,
    min_dp: int = 2,
    jobs: int = 1,
    cache: SweepCache | None = None,
    sink: EventSink = NULL_SINK,
    evaluator: str = "grid",
) -> SearchResult:
    """Find the fastest non-OOM configuration of ``method``.

    The candidate space follows the paper's per-method search spaces
    (Section 7.1 "Baseline"): DAPPLE searches DP/PP/CP/recompute, VPP
    additionally VP, ZB/ZBV search PP/CP only (no recomputation), and
    SVPP/MEPipe search PP/SPP/VP with no CP and no recomputation.

    ``jobs`` fans the evaluations out over a process pool; ``cache``
    replays previously computed cells from disk.  Neither affects the
    returned result — best, trail, and skip reasons are identical for
    every ``jobs`` value and cache state.

    ``evaluator`` selects the pipeline: ``"grid"`` (the default) prunes
    candidates certainly OOM or dominated — by certified build-free
    bounds or their own partial build — evaluates survivors
    analytically, and re-evaluates the Pareto frontier at ``"sim"``
    provenance; ``"sim"`` evaluates every candidate with the full
    verification + event replay.  Both return the same best, frontier
    and numbers (``"grid"`` tags tiers and moves pruned rows to
    ``skipped``).

    An enabled ``sink`` observes the sweep: per-cell ``eval`` spans
    and cache-hit instants from :func:`~repro.planner.parallel
    .evaluate_tasks`, plus one ``skip`` instant per statically or
    analytically pruned candidate, the grid sweep's ``pruned`` /
    ``pruned_ops`` counters and a final ``skipped`` counter.
    """
    if evaluator not in ("sim", "grid"):
        raise ValueError(f"unknown search evaluator {evaluator!r}")
    traits = method_traits(method)
    candidates = enumerate_configs(
        spec,
        cluster.num_devices,
        global_batch_size,
        use_cp=traits.uses_cp,
        use_spp=traits.uses_spp,
        use_vp=traits.uses_vp and traits.fixed_vp is None,
        use_recompute=traits.supports_recompute,
        min_dp=min_dp,
        max_spp=max_spp,
        max_vp=max_vp,
    )
    skipped: list[SkippedConfig] = []
    tasks: list[EvalTask] = []
    for config in candidates:
        if traits.fixed_vp is not None and config.vp != 1:
            skipped.append(
                SkippedConfig(
                    config,
                    f"vp fixed at {traits.fixed_vp} by method {method!r}",
                )
            )
            continue
        reason = prune_reason(method, config, spec, cluster, global_batch_size)
        if reason is not None:
            skipped.append(SkippedConfig(config, reason))
            continue
        tasks.append(
            EvalTask(method, spec, cluster, config, global_batch_size)
        )
    if sink.enabled:
        for skip in skipped:
            sink.instant(
                f"skip {method} {skip.config.describe()}",
                ts=0.0,
                cat="skip",
                args={"method": method, "reason": skip.reason},
            )

    if evaluator == "sim":
        outcomes = evaluate_tasks(tasks, jobs=jobs, cache=cache, sink=sink)
        for task, outcome in zip(tasks, outcomes):
            if not outcome.ok:
                skipped.append(
                    SkippedConfig(task.config, f"rejected: {outcome.error}")
                )
        best, evaluated = merge_outcomes(outcomes)
    else:
        best, evaluated, grid_skips = _grid_sweep(
            tasks, jobs=jobs, cache=cache, sink=sink
        )
        skipped.extend(grid_skips)
    if sink.enabled:
        sink.counter("skipped", float(len(skipped)), ts=0.0)
    return SearchResult(
        method=method,
        best=best,
        evaluated=evaluated,
        skipped=skipped,
        evaluator=evaluator,
    )


#: Candidates per branch-and-bound wave; ceilings come from earlier
#: waves only, so every ``jobs`` value prunes alike.  A cold Figure 10
#: sweep emits 443 069 / 443 131 / 447 503 / 447 545 greedy ops at
#: waves of 1 / 2 / 4 / 8 (678 912 unpruned): 4 costs 1 % over 1 and
#: keeps up to four workers busy.
WAVE = 4

#: Reason prefix of a candidate whose memory floor exceeds the device.
CERTAIN_OOM = "analytic: certain OOM"


def _grid_sweep(
    tasks: list[EvalTask],
    jobs: int,
    cache: SweepCache | None,
    sink: EventSink,
) -> tuple[EvalResult | None, list[EvalResult], list[SkippedConfig]]:
    """The analytic first pass (module docstring, docs/evaluation.md).

    1. Derive certified build-free bounds for every candidate.
    2. Visit candidates in ascending ``(time lower bound, sort key)``
       order, in waves of :data:`WAVE`, each under one byte ceiling
       from the Pareto frontier of the waves before (:func:`_ceiling`).
       A build-free memory floor at the ceiling prunes without a build;
       otherwise the analytic evaluation's build stops once its prefix
       floor reaches it.  Either way the candidate is certainly OOM or
       strictly dominated, so the frontier and best are unchanged.
    3. Re-evaluate the resulting Pareto frontier at ``"sim"``
       provenance — full static verification plus event replay — and
       splice those results into the trail.

    Emits ``pruned`` (dispatched candidates a ceiling stopped) and
    ``pruned_ops`` (ops their aborted builds emitted) on ``sink``.
    """
    bounds = config_bounds_batch(tasks)

    def lower(i: int) -> float:
        b = bounds[i]
        return b.lower_time_s if b is not None else float("inf")

    order = sorted(
        range(len(tasks)), key=lambda i: (lower(i), tasks[i].config.sort_key())
    )
    outcomes: dict[int, EvalOutcome] = {}
    pruned: dict[int, str] = {}
    frontier: list[EvalResult] = []
    floor_pruned = pruned_ops = ahead = 0
    while ahead < len(order):
        wave: list[tuple[int, int, str]] = []
        while ahead < len(order) and len(wave) < WAVE:
            i = order[ahead]
            ahead += 1
            ceiling, reason = _ceiling(tasks[i], bounds[i], frontier)
            b = bounds[i]
            if b is not None and b.memory_floor_bytes >= ceiling:
                pruned[i] = reason
            else:
                wave.append((i, ceiling, reason))
        batch = [replace(tasks[i], tier="analytic", ceiling=c) for i, c, _ in wave]
        done = evaluate_tasks(batch, jobs=jobs, cache=cache, sink=sink)
        for (i, _, reason), outcome in zip(wave, done):
            if outcome.floor_bytes is None:
                outcomes[i] = outcome
                continue
            pruned[i] = reason
            floor_pruned += 1
            pruned_ops += outcome.pruned_ops
        frontier = pareto_frontier(
            [outcomes[i].result for i in sorted(outcomes) if outcomes[i].ok]
        )
    if sink.enabled:
        sink.counter("pruned", float(floor_pruned), ts=0.0)
        sink.counter("pruned_ops", float(pruned_ops), ts=0.0)

    skips: list[SkippedConfig] = []
    for i in sorted(pruned):
        skips.append(SkippedConfig(tasks[i].config, pruned[i]))
        if sink.enabled:
            sink.instant(
                f"skip {tasks[i].method} {tasks[i].config.describe()}",
                ts=0.0,
                cat="skip",
                args={"method": tasks[i].method, "reason": pruned[i]},
            )
    for i in sorted(outcomes):
        if not outcomes[i].ok:
            skips.append(
                SkippedConfig(
                    tasks[i].config, f"rejected: {outcomes[i].error}"
                )
            )
    _, evaluated = merge_outcomes([outcomes[i] for i in sorted(outcomes)])

    # Frontier refinement: only the Pareto-optimal survivors pay for the
    # full verification + event replay.  The analytic tier is exact, so
    # this replaces entries with bit-equal numbers under a "sim" tag.
    frontier = pareto_frontier(evaluated)
    sim_tasks = [
        next(t for t in tasks if t.config == r.config) for r in frontier
    ]
    refined = evaluate_tasks(sim_tasks, jobs=jobs, cache=cache, sink=sink)
    position = {r.config: k for k, r in enumerate(evaluated)}
    dropped: set[ParallelConfig] = set()
    for r, outcome in zip(frontier, refined):
        if outcome.result is not None:
            evaluated[position[r.config]] = outcome.result
        else:
            # Unreachable when analytic succeeded (same build path), but
            # a sim-tier rejection must not leave a stale analytic entry.
            dropped.add(r.config)
            skips.append(
                SkippedConfig(r.config, f"rejected: {outcome.error}")
            )
    if dropped:
        evaluated = [r for r in evaluated if r.config not in dropped]
    return best_result(evaluated), evaluated, skips


def _ceiling(
    task: EvalTask, bound: ConfigBounds | None, frontier: list[EvalResult]
) -> tuple[int, str]:
    """``min(device bytes + 1, least peak of the frontier members whose
    time the candidate's lower bound exceeds)`` — a memory floor there
    means certain OOM or strict domination — and the skip reason, which
    names the ceiling, never the floor (builds stop early, caches don't).
    """
    device = task.cluster.gpu.memory_bytes
    if bound is not None:
        rivals = [m for m in frontier if bound.lower_time_s > m.iteration_time_s]
        if rivals:
            m = min(rivals, key=lambda r: r.peak_memory_bytes)
            return m.peak_memory_bytes, (
                f"analytic: dominated by {m.config.describe()} "
                f"(time lower bound {bound.lower_time_s:.3f} s > "
                f"{m.iteration_time_s:.3f} s, memory floor >= "
                f"{m.peak_memory_bytes / GiB:.2f} GiB)"
            )
    return device + 1, (
        f"{CERTAIN_OOM} (memory floor > {device / GiB:.2f} GiB device memory)"
    )


def pareto_frontier(evaluated: list[EvalResult]) -> list[EvalResult]:
    """Non-dominated, non-OOM results in (iteration time, peak memory).

    A result is dominated when another non-OOM result is no worse on
    both axes and strictly better on at least one; order follows the
    input trail, so the frontier is deterministic.
    """
    candidates = [r for r in evaluated if not r.oom]
    frontier: list[EvalResult] = []
    for r in candidates:
        dominated = any(
            o.iteration_time_s <= r.iteration_time_s
            and o.peak_memory_bytes <= r.peak_memory_bytes
            and (
                o.iteration_time_s < r.iteration_time_s
                or o.peak_memory_bytes < r.peak_memory_bytes
            )
            for o in candidates
        )
        if not dominated:
            frontier.append(r)
    return frontier


def prune_reason(
    method: str,
    config: ParallelConfig,
    spec: ModelSpec,
    cluster: ClusterSpec,
    global_batch_size: int,
) -> str | None:
    """Why a candidate is not worth simulating, or ``None`` to keep it.

    Cheap static pruning to keep the search tractable: skips
    configurations whose *static* memory alone exceeds the device (the
    simulator would only confirm the OOM) and caps the number of
    micro-batches at 512 to bound simulation cost.
    """
    from repro.model.memory import budget_for

    n = global_batch_size // config.dp
    if n > 512:
        return f"{n} micro-batches exceeds the simulation cap of 512"
    budget = budget_for(
        spec,
        capacity_bytes=cluster.gpu.memory_bytes,
        pipeline_stages=config.pp,
        total_devices=cluster.num_devices,
        micro_batch_tokens=spec.seq_length // (config.cp * config.spp),
    )
    if budget.available_for_activations <= 0:
        return (
            "static memory alone exceeds device capacity "
            f"({budget.static / 2**30:.1f} GiB static)"
        )
    return None
