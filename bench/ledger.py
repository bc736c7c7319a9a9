"""The outside-in layer ledger: time each layer's public functions on the
inputs a workload's sweeps actually used.

Nothing under ``src/`` is instrumented.  A traced op is run with a
capturing wrapper patched over the planner's entry point, which keeps
every :class:`~repro.planner.search.SearchResult`; :func:`replay` then
walks each captured sweep in pipeline order — enumerate → static prune →
bounds → generate → topo plan → verify → price → capacity → confirm →
cache I/O — calling the same public functions the planner calls, on the
same candidates / evaluated / frontier configs, each call inside a span.

The replay cannot be exact: the real sweep prices topology classes in
one stacked pass and shares compiled structure between members, while
the replay prices every survivor on its own, so it overcounts a little
(``trace.coverage`` says by how much).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator

from harness import Spans, median, scratch_dir


@dataclass
class Sweep:
    """One captured planner sweep: its inputs, result and wall time."""

    method: str
    spec: Any
    cluster: Any
    gbs: int
    kwargs: dict[str, Any]
    result: Any
    ms: float
    op: int | None


def reset_memos() -> None:
    """Return the planner's per-process memos to their start-up state.

    The replay has to see each cell cold, as the sweep did.  The memos
    are the generation cache and ``functools.lru_cache`` wrappers; the
    latter are found by walking the loaded ``repro`` modules, so a
    rename under ``src/`` cannot silently leave one warm.
    """
    from repro.schedules import gencache

    gencache.clear()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for value in list(vars(module).values()):
            # Module-level functions, and methods of module-level classes.
            members = list(vars(value).values()) if isinstance(value, type) else []
            for candidate in [value, *members]:
                clear = getattr(candidate, "cache_clear", None)
                if callable(clear):
                    clear()


@contextmanager
def capture_searches(
    module: Any, attr: str, spans: Spans, sweeps: list[Sweep]
) -> Iterator[None]:
    """Patch ``module.attr`` (a ``search(method, spec, cluster, gbs, ...)``
    callable) with a wrapper that spans each call and keeps its result."""
    original: Callable[..., Any] = getattr(module, attr)

    def wrapper(method: str, spec: Any, cluster: Any, gbs: int, **kwargs: Any) -> Any:
        with spans.span(
            "planner.search.search_method", method=method, model=spec.name, gbs=gbs
        ) as row:
            result = original(method, spec, cluster, gbs, **kwargs)
        sweeps.append(
            Sweep(method, spec, cluster, gbs, kwargs, result, Spans.ms(row), row["op"])
        )
        return result

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


def replay(sweeps: list[Sweep], spans: Spans) -> dict[str, float]:
    """Run the ledger over ``sweeps``; returns the planner-layer metrics.

    Times are sums over the sweeps (ms); counts are exact.
    """
    from repro.parallel.grid import enumerate_configs
    from repro.planner.evaluate import config_bounds_batch, task_class_key
    from repro.planner.parallel import EvalOutcome, EvalTask, SweepCache
    from repro.planner.search import pareto_frontier, prune_reason
    from repro.analysis.capacity import infer_capacities
    from repro.analysis.evaluate import evaluate_schedule
    from repro.schedules import gencache
    from repro.schedules.base import ScheduleError
    from repro.schedules.graph import build_topo_plan, compiled_graph, toposort_plan
    from repro.schedules.methods import build_schedule, method_traits
    from repro.schedules.verify import assert_clean
    from repro.sim.cost import ClusterCost
    from repro.sim.executor import simulate

    counts = dict.fromkeys(
        (
            "candidates static_pruned bound_pruned evaluated frontier "
            "ops_generated ops_confirmed gen_hits gen_misses cache_bytes"
        ).split(),
        0,
    )
    cache_ms: dict[str, list[float]] = {"put": [], "get": []}

    def timed(name: str, sweep: Sweep, fn: Callable[[], Any]) -> Any:
        with spans.span(name, op=sweep.op, method=sweep.method, model=sweep.spec.name):
            return fn()

    for sweep in sweeps:
        reset_memos()
        method, spec, cluster, gbs = sweep.method, sweep.spec, sweep.cluster, sweep.gbs
        traits = method_traits(method)
        knobs = {k: sweep.kwargs[k] for k in ("min_dp", "max_spp", "max_vp") if k in sweep.kwargs}
        candidates = timed(
            "parallel.grid.enumerate",
            sweep,
            lambda: list(
                enumerate_configs(
                    spec,
                    cluster.num_devices,
                    gbs,
                    use_cp=traits.uses_cp,
                    use_spp=traits.uses_spp,
                    use_vp=traits.uses_vp and traits.fixed_vp is None,
                    use_recompute=traits.supports_recompute,
                    **({"max_vp": 2} | knobs),
                )
            ),
        )
        counts["candidates"] += len(candidates)
        tasks = timed(
            "planner.search.prune",
            sweep,
            lambda: {
                config: EvalTask(method, spec, cluster, config, gbs, tier="analytic")
                for config in candidates
                if not (traits.fixed_vp is not None and config.vp != 1)
                and prune_reason(method, config, spec, cluster, gbs) is None
            },
        )
        counts["static_pruned"] += len(candidates) - len(tasks)
        timed(
            "planner.evaluate.bounds",
            sweep,
            lambda: config_bounds_batch(list(tasks.values())),
        )

        result = sweep.result
        counts["bound_pruned"] += sum(
            s.reason.startswith("analytic:") for s in result.skipped
        )
        counts["evaluated"] += len(result.evaluated)
        frontier = {r.config for r in pareto_frontier(result.evaluated)}
        counts["frontier"] += len(frontier)

        with scratch_dir("ledger-cache-") as tmp:
            cache = SweepCache(tmp)
            cache.enabled = True  # the workload may run with REPRO_SWEEP_CACHE=0
            for evaluated in result.evaluated:
                task = tasks[evaluated.config]
                _, problem, f, _, _ = task_class_key(task)  # type: ignore[misc]
                cost = ClusterCost(spec=spec, config=task.config, cluster=cluster, problem=problem)
                overhead = cost.dp_sync_seconds() + cost.optimizer_seconds()
                before = gencache.snapshot()
                try:
                    schedule = timed(
                        "schedules.greedy.generate",
                        sweep,
                        lambda: build_schedule(
                            method, problem, cost=cost, forwards_before_first_backward=f
                        ),
                    )
                except ScheduleError:
                    continue
                after = gencache.snapshot()
                counts["gen_hits"] += after[0] - before[0]
                counts["gen_misses"] += after[1] - before[1]
                graph = compiled_graph(schedule)
                counts["ops_generated"] += graph.num_ops
                # Generation already compiled the graph and (inside the
                # builder's safety tier) ran Kahn once; re-running Kahn
                # uncached is the only outside-in handle on its cost.
                timed("schedules.graph.compile", sweep, lambda: (toposort_plan(graph), build_topo_plan(graph)))
                if task.config in frontier:
                    timed("schedules.verify.verify", sweep, lambda: assert_clean(schedule, method=method))
                priced = timed(
                    "analysis.evaluate.price",
                    sweep,
                    lambda: evaluate_schedule(schedule, cost, overhead_time=overhead),
                )
                timed(
                    "analysis.capacity.infer",
                    sweep,
                    lambda: infer_capacities(
                        schedule, cost, times=priced.times, include_deadlock_free=False
                    ),
                )
                if task.config in frontier:
                    timed(
                        "sim.executor.confirm",
                        sweep,
                        lambda: simulate(schedule, cost, overhead_time=overhead, engine="heap"),
                    )
                    counts["ops_confirmed"] += graph.num_ops
                outcome = EvalOutcome(result=replace(evaluated, tier="analytic"))
                with spans.span("planner.parallel.cache_put", op=sweep.op) as row:
                    cache.put(task, outcome)
                cache_ms["put"].append(Spans.ms(row))
                with spans.span("planner.parallel.cache_get", op=sweep.op) as row:
                    hit = cache.get(task)
                cache_ms["get"].append(Spans.ms(row))
                if hit is None or hit.result != outcome.result:
                    raise AssertionError(f"sweep cache did not round-trip {task.config}")
            counts["cache_bytes"] += sum(p.stat().st_size for p in Path(tmp).iterdir())

    self_ms = spans.self_ms()

    def layer(name: str) -> float:
        return self_ms.get(name, 0.0)

    generate_s = layer("schedules.greedy.generate") / 1e3
    confirm_s = layer("sim.executor.confirm") / 1e3
    lookups = counts["gen_hits"] + counts["gen_misses"]
    sweep_ms = [s.ms for s in sweeps]
    return {
        "parallel.grid.enumerate_ms": layer("parallel.grid.enumerate"),
        "parallel.grid.candidates": counts["candidates"],
        "planner.search.static_pruned": counts["static_pruned"],
        "planner.search.bound_pruned": counts["bound_pruned"],
        "planner.search.evaluated": counts["evaluated"],
        "planner.search.frontier": counts["frontier"],
        "planner.search.top_cell_share": max(sweep_ms) / sum(sweep_ms),
        "planner.evaluate.bounds_ms": layer("planner.evaluate.bounds"),
        "schedules.greedy.generate_ms": generate_s * 1e3,
        "schedules.greedy.ops_generated": counts["ops_generated"],
        "schedules.greedy.kops_per_s": counts["ops_generated"] / generate_s / 1e3,
        "schedules.gencache.hit_ratio": counts["gen_hits"] / lookups if lookups else 0.0,
        "schedules.graph.compile_ms": layer("schedules.graph.compile"),
        "schedules.verify.verify_ms": layer("schedules.verify.verify"),
        "analysis.evaluate.price_ms": layer("analysis.evaluate.price"),
        "analysis.capacity.infer_ms": layer("analysis.capacity.infer"),
        "sim.executor.confirm_ms": confirm_s * 1e3,
        "sim.executor.kops_per_s": counts["ops_confirmed"] / confirm_s / 1e3,
        "planner.parallel.cache_put_ms": median(cache_ms["put"]),
        "planner.parallel.cache_get_ms": median(cache_ms["get"]),
        "planner.parallel.cache_bytes": counts["cache_bytes"],
    }


#: Layers whose replayed time explains a sweep.  ``schedules.graph.compile``
#: is left out: it re-runs work that ``generate`` already contains.
EXPLAINING_LAYERS = (
    "parallel.grid.enumerate",
    "planner.search.prune",
    "planner.evaluate.bounds",
    "schedules.greedy.generate",
    "schedules.verify.verify",
    "analysis.evaluate.price",
    "analysis.capacity.infer",
    "sim.executor.confirm",
)


def pool_probe(sweep: Sweep) -> dict[str, float]:
    """Cost of routing one sweep's evaluations through the worker pool:
    ``evaluate_tasks(jobs=2)`` minus ``jobs=1`` from cold memos, then a
    second pooled call on the warm pool to count reused workers."""
    from repro.planner import pool
    from repro.planner.parallel import EvalTask, evaluate_tasks

    tasks = [
        EvalTask(sweep.method, sweep.spec, sweep.cluster, r.config, sweep.gbs, tier="analytic")
        for r in sweep.result.evaluated
    ]
    walls = []
    try:
        for jobs in (1, 2):
            reset_memos()
            t0 = time.perf_counter()
            evaluate_tasks(tasks, jobs=jobs)
            walls.append((time.perf_counter() - t0) * 1e3)
        before = pool.stats()["worker_reuse"]
        evaluate_tasks(tasks, jobs=2)
        reuse = pool.stats()["worker_reuse"] - before
    finally:
        pool.shutdown()
    return {
        "planner.pool.dispatch_ms": walls[1] - walls[0],
        "planner.pool.worker_reuse": reuse,
    }


def count_calls(fn: Callable[[], Any]) -> dict[str, float]:
    """Exact Python+C call count of ``fn()`` under ``cProfile``, in
    thousands, in total and for the heaviest layer modules."""
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.runcall(fn)
    stats = pstats.Stats(profile)
    total = 0
    by_module: dict[str, int] = {}
    for (filename, _, _), (_, ncalls, _, _, _) in stats.stats.items():  # type: ignore[attr-defined]
        total += ncalls
        marker = "/repro/"
        if marker in filename:
            module = filename.split(marker, 1)[1].removesuffix(".py").replace("/", ".")
            by_module[module] = by_module.get(module, 0) + ncalls
    out = {"trace.pycalls_k": total / 1e3}
    for module in ("schedules.greedy", "sim.executor", "schedules.verify.deps"):
        out[f"trace.pycalls_k.{module}"] = by_module.get(module, 0) / 1e3
    return out
