"""Prefix pruning: a greedy build stops once its own ledger proves the
cell OOM or dominated, and the grid sweep is a wave branch-and-bound.

The contract, each part with a seeded mutation that breaks it:

* the build's running ledger is the simulator's, bit for bit, so a
  prefix floor never over-estimates (mutation: W GEMMs release nothing);
* a build aborts only when the schedule ``greedy_schedule`` would
  return crosses the ceiling — a fast attempt that would wedge defers
  to the strong retry (mutation: the strong-retry rule is dropped);
* an aborted build never enters the schedule memo (mutation: the
  truncated prefix is memoised);
* a wave's ceilings come from the frontier of earlier waves only, so
  the trail is the same for every ``jobs`` (mutation: the frontier
  tightens per completed task, in pool completion order);
* whichever path decides a cell — an in-build crossing, a complete
  cached result, a stored floor — the trail is the same, and it agrees
  with ``evaluator="sim"`` (a derandomized property over small cells).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.planner.search as search_module
import repro.schedules.greedy as greedy
import repro.schedules.methods as methods_module
from repro.analysis.evaluate import evaluate_schedule
from repro.hardware import get_cluster
from repro.hardware.cluster import RTX4090_CLUSTER
from repro.model import get_model
from repro.model.spec import LLAMA_13B
from repro.obs.sinks import MemorySink
from repro.parallel.strategies import ParallelConfig
from repro.planner import SweepCache, search_method
from repro.planner import evaluate as evaluate_module
from repro.planner.evaluate import config_bounds
from repro.planner.parallel import EvalOutcome, EvalTask, evaluate_tasks
from repro.planner.search import pareto_frontier
from repro.schedules import gencache
from repro.schedules.base import Schedule, ScheduleError, StageProgram
from repro.schedules.graph import compiled_graph
from repro.schedules.greedy import (
    BuildPruned,
    GreedyPolicy,
    MemoryCeiling,
    greedy_schedule,
)
from repro.schedules.methods import build_problem, build_schedule
from repro.sim.cost import UniformCost

from tests.test_greedy_golden import DEADLOCK_CAP, DEADLOCK_PROBLEM


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts and ends on cold planner memos: a mutated
    build must not leave its schedule (or its ledger peak) behind."""

    def clear():
        gencache.clear()
        evaluate_module._prelude.cache_clear()

    clear()
    yield
    clear()


def _trail(result):
    return (
        result.best,
        result.evaluated,
        [(s.config, s.reason) for s in result.skipped],
    )


# ----------------------------------------------------------------------
# The engine's ledger and ceiling
# ----------------------------------------------------------------------
LEDGER_CASES = [
    ("mepipe", 4, 8, 4, 1),
    ("mepipe", 4, 8, 2, 2),
    ("svpp", 4, 6, 4, 2),
    ("zb", 4, 8, 1, 1),
    ("zbv", 4, 8, 1, 2),
    ("hanayo", 4, 8, 1, 2),
]


@pytest.mark.parametrize("case", LEDGER_CASES, ids=str)
def test_build_ledger_peak_is_the_evaluators(case):
    method, p, n, s, v = case
    problem = build_problem(
        method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=2
    )
    cost = UniformCost(problem, tf=1.0, tb=2.0, tw=0.7)
    schedule = build_schedule(method, problem, cost)
    peak = evaluate_schedule(schedule, cost).peak_activation_units
    assert schedule.ledger_peak_units == peak


def _ceiling_at(units: float, delta: int = 0) -> MemoryCeiling:
    ceiling = MemoryCeiling(0, 1000, 1e6)
    return replace(ceiling, limit_bytes=ceiling.floor_bytes(units) + delta)


@pytest.mark.parametrize("strong", [True, False], ids=["one-attempt", "retry"])
def test_ceiling_stops_exactly_at_the_final_floor(strong):
    # Without strong_reserve this shape's strong attempt has the lower
    # floor, so deciding it finishes the fast attempt too.
    problem = build_problem("mepipe", 4, 8, num_slices=4, wgrad_gemms=2)
    policy = GreedyPolicy(cap_slope=0, strong_reserve=strong)
    full = greedy_schedule(problem, policy)
    at = _ceiling_at(full.ledger_peak_units)
    with pytest.raises(BuildPruned) as caught:
        greedy_schedule(problem, policy, ceiling=at)
    assert caught.value.floor_bytes == at.limit_bytes
    assert (0 < caught.value.ops < full.num_ops) == strong
    above = greedy_schedule(
        problem, policy, ceiling=_ceiling_at(full.ledger_peak_units, 1)
    )
    assert compiled_graph(above).fingerprint == compiled_graph(full).fingerprint


# ----------------------------------------------------------------------
# The strong-retry rule
# ----------------------------------------------------------------------
def _strong_rule_case():
    """A ceiling between the strong schedule's floor and the floor the
    (wedging) fast attempt reaches first: the final schedule is the
    strong one, under the ceiling, so the answer is "not pruned"."""
    policy = GreedyPolicy(first_stage_cap=DEADLOCK_CAP)
    with pytest.raises(ScheduleError):
        greedy._greedy_once(DEADLOCK_PROBLEM, policy, None, "greedy")
    strong = greedy._greedy_once(
        DEADLOCK_PROBLEM, replace(policy, strong_reserve=True), None, "greedy"
    )
    ceiling = _ceiling_at(strong.ledger_peak_units, 1)
    with pytest.raises(BuildPruned):  # the fast prefix alone crosses
        greedy._greedy_once(DEADLOCK_PROBLEM, policy, None, "greedy", ceiling)
    return policy, ceiling, strong


def _pruned(policy, ceiling) -> bool:
    try:
        greedy_schedule(DEADLOCK_PROBLEM, policy, ceiling=ceiling)
    except BuildPruned:
        return True
    return False


def test_fast_crossing_defers_to_the_strong_retry():
    policy, ceiling, strong = _strong_rule_case()
    assert not _pruned(policy, ceiling)
    kept = greedy_schedule(DEADLOCK_PROBLEM, policy, ceiling=ceiling)
    assert compiled_graph(kept).fingerprint == compiled_graph(strong).fingerprint
    # One byte lower and the strong attempt crosses too: pruned.
    assert _pruned(policy, replace(ceiling, limit_bytes=ceiling.limit_bytes - 1))


def test_mutation_strong_retry_rule_dropped_is_caught(monkeypatch):
    policy, ceiling, _ = _strong_rule_case()

    def prune_on_fast_crossing(problem, policy, cost, name, ceiling, crossed):
        raise crossed

    monkeypatch.setattr(greedy, "_settle_fast_crossing", prune_on_fast_crossing)
    assert _pruned(policy, ceiling)  # wrongly pruned: the invariant's test fails


# ----------------------------------------------------------------------
# The schedule memo never holds an aborted build
# ----------------------------------------------------------------------
MEMO_PROBLEM = build_problem("mepipe", 4, 8, num_slices=4, wgrad_gemms=2)


def _later_build_is_cold() -> bool:
    """Abort a build, then ask for the same inputs unbounded: is the
    answer the schedule a cold memo builds?"""
    cold = compiled_graph(build_schedule("mepipe", MEMO_PROBLEM)).fingerprint
    gencache.clear()
    try:
        build_schedule("mepipe", MEMO_PROBLEM, ceiling=MemoryCeiling(1, 0, 1e6))
    except (BuildPruned, ScheduleError):
        pass  # the first F crosses
    try:
        later = build_schedule("mepipe", MEMO_PROBLEM)
    except ScheduleError:
        return False
    return compiled_graph(later).fingerprint == cold


def test_aborted_build_is_never_memoised():
    assert _later_build_is_cold()
    assert gencache.stats() == {"hits": 0, "misses": 2, "size": 1}


def test_mutation_memoised_abort_is_caught(monkeypatch):
    real = methods_module._run_generator

    def memoising(key, problem, cost, f, ceiling=None):
        try:
            return real(key, problem, cost, f, ceiling)
        except BuildPruned as pruned:
            # The aborted build's prefix, handed back as a schedule.
            full, left = real(key, problem, cost, f, None), pruned.ops
            programs = []
            for program in full.programs:
                programs.append(StageProgram(program.stage, program.ops[:left]))
                left = max(0, left - len(program.ops))
            return Schedule(problem, programs, full.name)

    monkeypatch.setattr(methods_module, "_run_generator", memoising)
    assert not _later_build_is_cold()


# ----------------------------------------------------------------------
# The ledger mutation, caught against evaluator="sim"
# ----------------------------------------------------------------------
def test_mutation_ledger_without_w_releases_is_caught(monkeypatch):
    args = ("zb", LLAMA_13B, RTX4090_CLUSTER, 32)
    sim = search_method(*args, evaluator="sim")
    grid = search_method(*args)
    assert grid.best == sim.best
    assert pareto_frontier(grid.evaluated) == pareto_frontier(sim.evaluated)

    real = greedy._ledger_deltas

    def no_w_release(problem):
        steps = real(problem)
        cells = problem.num_microbatches * problem.num_slices * problem.num_chunks
        kept = 2 * cells  # every F and B step
        return steps[:kept] + [0.0] * (len(steps) - kept)

    gencache.clear()
    monkeypatch.setattr(greedy, "_ledger_deltas", no_w_release)
    mutant = search_method(*args)
    # The floor over-estimates, so a frontier member is pruned.
    assert pareto_frontier(mutant.evaluated) != pareto_frontier(sim.evaluated)


# ----------------------------------------------------------------------
# Waves: the frontier moves between waves, never inside one
# ----------------------------------------------------------------------
def _wave_cell(jobs):
    # A cell where, inside one wave, an earlier task's result would
    # prune a later one: the mutation below shows up here.
    return search_method("zb", LLAMA_13B, RTX4090_CLUSTER, 64, jobs=jobs)


def test_trail_is_jobs_invariant():
    assert _trail(_wave_cell(2)) == _trail(_wave_cell(1))


def test_mutation_frontier_per_completed_task_is_caught(monkeypatch):
    """Mutation: within a wave, each completed task tightens the
    ceilings of the tasks still running — in pool completion order,
    here the reverse of dispatch order when ``jobs > 1``."""
    real = search_module.evaluate_tasks
    done: list = []

    def per_task(tasks, jobs=1, cache=None, sink=None):
        if not tasks or tasks[0].ceiling is None:
            return real(tasks, jobs=jobs, cache=cache, sink=sink)
        order = range(len(tasks))[::-1] if jobs > 1 else range(len(tasks))
        out = [None] * len(tasks)
        for k in order:
            task = tasks[k]
            bound = config_bounds(
                task.method, task.spec, task.cluster, task.config,
                task.global_batch_size,
            )
            ceiling, _ = search_module._ceiling(task, bound, pareto_frontier(done))
            (out[k],) = real(
                [replace(task, ceiling=ceiling)], jobs=1, cache=cache, sink=sink
            )
            if out[k].ok:
                done.append(out[k].result)
        return out

    monkeypatch.setattr(search_module, "evaluate_tasks", per_task)
    in_order = _trail(_wave_cell(1))
    done.clear()
    assert _trail(_wave_cell(2)) != in_order


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_sweep_counts_pruned_cells_and_their_ops():
    sink = MemorySink()
    result = search_method(
        "mepipe", LLAMA_13B, RTX4090_CLUSTER, 32, max_spp=4, sink=sink
    )
    (pruned,) = sink.counters("pruned")
    (pruned_ops,) = sink.counters("pruned_ops")
    # A cell a ceiling pruned was dispatched, so it keeps its eval span;
    # one the build-free bounds pruned never was.
    spans = {c for e in sink.spans() if e.cat == "eval" for c in e.arg("configs")}
    dispatched = [
        s for s in result.skipped
        if s.reason.startswith("analytic:") and s.config.describe() in spans
    ]
    assert pruned.value == len(dispatched) > 0
    assert pruned_ops.value > 0


# ----------------------------------------------------------------------
# The floor entry
# ----------------------------------------------------------------------
def _pruned_task():
    """One analytic task whose device ceiling prunes it."""
    task = EvalTask(
        "mepipe", LLAMA_13B, RTX4090_CLUSTER,
        ParallelConfig(dp=16, pp=4, spp=4), 32, tier="analytic",
    )
    return replace(task, ceiling=RTX4090_CLUSTER.gpu.memory_bytes + 1)


def test_floor_entry_answers_only_the_tasks_it_prunes(tmp_path):
    cache = SweepCache(tmp_path)
    task = _pruned_task()
    (outcome,) = evaluate_tasks([task], cache=cache)
    assert outcome.floor_bytes is not None and outcome.pruned_ops > 0
    entry = json.loads(next(tmp_path.iterdir()).read_text())
    assert entry["status"] == "floor" and "result" not in entry
    # A task with the same or a lower ceiling is answered, with no ops.
    assert cache.get(task) == EvalOutcome(floor_bytes=outcome.floor_bytes)
    assert cache.get(replace(task, ceiling=outcome.floor_bytes)) is not None
    # A higher ceiling, or none, is a miss: the floor decides nothing.
    assert cache.get(replace(task, ceiling=outcome.floor_bytes + 1)) is None
    assert cache.get(replace(task, ceiling=None)) is None
    # The unbounded evaluation replaces it; a floor never replaces that.
    (full,) = evaluate_tasks([replace(task, ceiling=None)], cache=cache)
    assert full.ok and full.result.oom
    cache.put(task, outcome)
    assert json.loads(next(tmp_path.iterdir()).read_text())["status"] == "ok"
    # The complete entry decides a bounded task the way the build did.
    floor = full.result.peak_memory_bytes - full.result.channel_buffer_bytes
    assert cache.get(task) == EvalOutcome(floor_bytes=floor)
    assert cache.get(replace(task, ceiling=floor + 1)).result == full.result


# ----------------------------------------------------------------------
# The property: grid == sim, and one trail whichever path decides
# ----------------------------------------------------------------------
cells = st.tuples(
    st.sampled_from(["dapple", "vpp", "zb", "zbv", "mepipe"]),
    st.sampled_from(["13b", "34b"]),
    st.sampled_from(["rtx4090-64", "a100-32"]),
    st.sampled_from([32, 64, 96, 128]),
    st.integers(1, 4),
)


def _sweep(cell, **kwargs):
    method, model, cluster, gbs, max_spp = cell
    return search_method(
        method, get_model(model), get_cluster(cluster), gbs,
        max_spp=max_spp, **kwargs,
    )


def _drop_floor_entries(root) -> None:
    for path in root.iterdir():
        if json.loads(path.read_text())["status"] == "floor":
            path.unlink()


def test_grid_matches_sim_and_every_path_gives_one_trail(tmp_path_factory):
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cell=cells)
    def check(cell):
        sim = _sweep(cell, evaluator="sim")
        grid = _sweep(cell)
        frontier = pareto_frontier(grid.evaluated)
        assert grid.best == sim.best
        assert frontier == pareto_frontier(sim.evaluated)
        assert grid.all_oom == sim.all_oom
        sim_rows = {r.config: r for r in sim.evaluated}
        for r in grid.evaluated:
            assert dataclasses.replace(r, tier="sim") == sim_rows[r.config]
        sim_rejected = {
            s.config for s in sim.skipped if s.reason.startswith("rejected:")
        }
        for skip in grid.skipped:
            if not skip.reason.startswith("analytic:"):
                continue
            row = sim_rows.get(skip.config)
            if row is None:
                # The build-free bounds pruned a cell the generator
                # rejects; nothing was built, so nothing was learned.
                assert skip.config in sim_rejected, skip
                continue
            assert row.oom or any(
                m.iteration_time_s < row.iteration_time_s
                and m.peak_memory_bytes <= row.peak_memory_bytes
                for m in frontier
            ), skip
        want = _trail(grid)
        root = tmp_path_factory.mktemp("sweep-cache")
        assert _trail(_sweep(cell, jobs=2, cache=SweepCache(root))) == want
        assert _trail(_sweep(cell, cache=SweepCache(root))) == want
        _drop_floor_entries(root)  # complete entries only, as older writers
        assert _trail(_sweep(cell, cache=SweepCache(root))) == want
        # A cache holding a complete entry for every candidate (what a
        # sweep that prunes nothing writes) decides each prune from it.
        full = tmp_path_factory.mktemp("complete-cache")
        with mock.patch.object(search_module, "_ceiling", lambda *a: (2**62, "")):
            _sweep(cell, cache=SweepCache(full))
        assert _trail(_sweep(cell, cache=SweepCache(full))) == want

    check()
