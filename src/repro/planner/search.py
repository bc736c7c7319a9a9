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
first pass (see ``docs/evaluation.md``): certified build-free bounds
prune candidates that are provably dominated by an already evaluated
configuration, the survivors are evaluated with the closed-form
evaluator (bit-identical numbers, no event replay), and only the
resulting Pareto frontier is re-evaluated at full ``"sim"``
provenance.  Each survivor is one independent cell — one schedule, one
pass of the scalar wavefront kernel — and a cell's prelude and bounds
are computed once for the whole sweep.  ``evaluator="sim"``
evaluates every candidate on the simulator instead — the reference the
tests prove ``"grid"`` against.  Because the analytic tier is exact,
the returned best, trail values, and frontier are identical across
``"sim"`` and ``"grid"`` — only the provenance tags and the work done
differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.hardware.cluster import ClusterSpec
from repro.model.memory import GiB
from repro.model.spec import ModelSpec
from repro.obs.events import NULL_SINK, EventSink
from repro.parallel.grid import enumerate_configs
from repro.parallel.strategies import ParallelConfig
from repro.planner.evaluate import EvalResult, config_bounds_batch
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
        return self.best is None and bool(self.evaluated)


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
    provably dominated candidates with certified build-free bounds,
    evaluates survivors analytically, one cell at a time, and
    re-evaluates the Pareto frontier at ``"sim"`` provenance; ``"sim"`` evaluates every
    candidate with the full verification + event replay.  The analytic
    tier is bit-exact, so both settings return the same best and the
    same numbers (the ``tier`` tags on the trail differ).

    An enabled ``sink`` observes the sweep: per-cell ``eval`` spans
    and cache-hit instants from :func:`~repro.planner.parallel
    .evaluate_tasks`, plus one ``skip`` instant per statically or
    analytically pruned candidate and a final ``skipped`` counter.
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


def _grid_sweep(
    tasks: list[EvalTask],
    jobs: int,
    cache: SweepCache | None,
    sink: EventSink,
) -> tuple[EvalResult | None, list[EvalResult], list[SkippedConfig]]:
    """The analytic first pass (see module docstring and docs/evaluation.md).

    1. Derive certified build-free bounds for every candidate (no
       schedule generation; candidates the bound theory cannot cover
       simply carry no bounds and are always evaluated in full).  The
       bounds pass shares one cached prelude per cell with the
       evaluation passes below.
    2. Probe candidates sequentially in ascending time-lower-bound
       order until the first non-OOM analytic result — the incumbent.
       Sequential regardless of ``jobs`` so the incumbent (and thus the
       prune set) is identical for every worker count.
    3. Prune every remaining candidate whose time lower bound *and*
       memory floor both lose to the incumbent: such a candidate is
       certainly dominated, and transitivity guarantees anything it
       would have dominated is dominated by the incumbent too — so the
       Pareto frontier is unchanged (the frontier-soundness argument in
       docs/evaluation.md).
    4. Evaluate the survivors analytically (parallel, cached, one
       ``evaluate_config`` per cell), then re-evaluate the resulting
       Pareto frontier at ``"sim"`` provenance — full static
       verification plus event replay — and splice those results into
       the trail.
    """
    bounds = config_bounds_batch(tasks)
    analytic = [replace(t, tier="analytic") for t in tasks]

    def lower(i: int) -> float:
        b = bounds[i]
        return b.lower_time_s if b is not None else float("inf")

    outcomes: dict[int, EvalOutcome] = {}
    incumbent: EvalResult | None = None
    order = sorted(
        range(len(tasks)), key=lambda i: (lower(i), tasks[i].config.sort_key())
    )
    for i in order:
        (outcome,) = evaluate_tasks([analytic[i]], jobs=1, cache=cache, sink=sink)
        outcomes[i] = outcome
        if outcome.result is not None and not outcome.result.oom:
            incumbent = outcome.result
            break

    pruned: dict[int, str] = {}
    if incumbent is not None:
        for i, b in enumerate(bounds):
            if i in outcomes or b is None:
                continue
            if (
                b.lower_time_s > incumbent.iteration_time_s
                and b.memory_floor_bytes >= incumbent.peak_memory_bytes
            ):
                pruned[i] = (
                    f"analytic: dominated by {incumbent.config.describe()} "
                    f"(time lower bound {b.lower_time_s:.3f} s > "
                    f"{incumbent.iteration_time_s:.3f} s, memory floor "
                    f"{b.memory_floor_bytes / GiB:.2f} GiB >= "
                    f"{incumbent.peak_memory_bytes / GiB:.2f} GiB)"
                )
    rest = [i for i in range(len(tasks)) if i not in outcomes and i not in pruned]
    rest_outcomes = evaluate_tasks(
        [analytic[i] for i in rest], jobs=jobs, cache=cache, sink=sink
    )
    for i, outcome in zip(rest, rest_outcomes):
        outcomes[i] = outcome

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
