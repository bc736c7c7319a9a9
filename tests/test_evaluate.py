"""The analytic evaluator against the simulator, across the grids.

The evaluator's central claim — "exact" certificates are bit-for-bit,
"bounded" certificates contain the simulated value — is checked here on
the full acceptance grid from ``tests/test_verify.py`` and the E0
method grid, under the uniform, imbalanced, and calibrated cluster cost
models.  The cross-validation harness (:mod:`repro.sim.crossval`) does
the bit-level comparison against the heap oracle (and, where a test
says so, the fixed-point reference in ``tests/oracles``), so these
tests never compare the wavefront with itself.

Also covered: the planner's analytic first pass returning exactly the
sim-only sweep's optimum and Pareto frontier, and the sweep cache never
aliasing analytic and sim entries (tier + evaluator version are part of
the fingerprint).
"""

import dataclasses
import random

import pytest

from repro.analysis.evaluate import (
    EVALUATE_RULES,
    EVALUATOR_VERSION,
    evaluate_schedule,
    iteration_time_bounds,
    peak_units_floor,
)
from repro.experiments.e0 import METHOD_SETUPS
from repro.hardware.cluster import RTX4090_CLUSTER
from repro.model.spec import LLAMA_13B
from repro.parallel.strategies import ParallelConfig
from repro.planner.parallel import (
    EvalTask,
    SweepCache,
    eval_fingerprint,
    evaluate_tasks,
)
from repro.planner.search import pareto_frontier, search_method
from repro.schedules.methods import build_problem, build_schedule
from repro.sim.cost import ClusterCost, UniformCost
from repro.sim.crossval import cross_validate
from repro.sim.executor import simulate

from tests.oracles.fixed_point import crossval_on_fixed_point
from tests.test_verify import golden_grid

SEEDS = [0, 1, 2]

GBS = 64


def imbalanced_cost(problem, s):
    return UniformCost(
        problem, tw=0.5, imbalance=tuple(1.0 + 0.1 * i for i in range(s))
    )


# ----------------------------------------------------------------------
# Exactness over the acceptance grids
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "method,p,n,s,v,g", list(golden_grid()), ids=lambda val: str(val)
)
def test_analytic_is_bit_exact_on_golden_grid(method, p, n, s, v, g):
    problem = build_problem(
        method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=g
    )
    schedule = build_schedule(method, problem)
    cost = imbalanced_cost(problem, s)
    bounds = iteration_time_bounds(problem, cost)
    report = cross_validate(schedule, cost, bounds=bounds)
    assert report.ok, report.render_text()
    assert report.checked_rules == EVALUATE_RULES


@pytest.mark.parametrize("method,kwargs", METHOD_SETUPS, ids=lambda v: str(v))
def test_analytic_is_bit_exact_on_e0_grid(method, kwargs):
    if not isinstance(kwargs, dict):
        pytest.skip("parametrize unpacking artifact")
    problem = build_problem(method, 4, 4, **kwargs)
    schedule = build_schedule(method, problem)
    cost = UniformCost(problem, tw=0.5)
    bounds = iteration_time_bounds(problem, cost)
    with crossval_on_fixed_point():
        report = cross_validate(schedule, cost, bounds=bounds)
    assert report.ok, report.render_text()


def test_analytic_is_bit_exact_under_cluster_cost():
    config = ParallelConfig(dp=8, pp=8, spp=4)
    problem = build_problem("mepipe", 8, 16, num_slices=4, wgrad_gemms=2)
    cost = ClusterCost(
        spec=LLAMA_13B, config=config, cluster=RTX4090_CLUSTER,
        problem=problem,
    )
    schedule = build_schedule("mepipe", problem, cost=cost)
    overhead = cost.dp_sync_seconds() + cost.optimizer_seconds()
    bounds = iteration_time_bounds(problem, cost, overhead_time=overhead)
    report = cross_validate(
        schedule, cost, overhead_time=overhead, bounds=bounds
    )
    assert report.ok, report.render_text()
    # Byte conversions are stamped identically on both result types.
    sim = simulate(schedule, cost, overhead_time=overhead)
    ev = evaluate_schedule(schedule, cost, overhead_time=overhead)
    assert ev.stage_peak_bytes == sim.stage_peak_bytes
    assert ev.comm_bytes_per_message == sim.comm_bytes_per_message


def test_exactness_survives_overhead_and_actgrad():
    problem = build_problem("mepipe", 4, 8, num_slices=2, wgrad_gemms=3)
    schedule = build_schedule("mepipe", problem)
    cost = UniformCost(problem, tw=0.5)
    with crossval_on_fixed_point():
        report = cross_validate(
            schedule, cost, overhead_time=0.25, actgrad_factor=0.5
        )
    assert report.ok, report.render_text()


# ----------------------------------------------------------------------
# Certificates, bounds, phases
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "method,p,n,s,v,g", list(golden_grid()), ids=lambda val: str(val)
)
def test_bounds_contain_sim_and_floor_is_sound(method, p, n, s, v, g):
    problem = build_problem(
        method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=g
    )
    schedule = build_schedule(method, problem)
    cost = imbalanced_cost(problem, s)
    sim = simulate(schedule, cost)
    bounds = iteration_time_bounds(problem, cost)
    assert bounds is not None  # UniformCost is micro-batch invariant
    assert bounds.lower <= sim.iteration_time <= bounds.upper
    assert bounds.certificate.kind == "bounded"
    assert bounds.certificate.consistent()
    assert peak_units_floor(problem, cost) <= sim.peak_activation_units


def test_certificate_is_exact_and_versioned():
    problem = build_problem("mepipe", 4, 4, num_slices=4, wgrad_gemms=3)
    schedule = build_schedule("mepipe", problem)
    ev = evaluate_schedule(schedule, UniformCost(problem, tw=0.5))
    cert = ev.certificate
    assert cert.kind == "exact"
    assert cert.version == EVALUATOR_VERSION
    assert cert.lower == ev.iteration_time == cert.upper
    assert cert.consistent() and cert.contains(ev.iteration_time)


def test_phases_tile_each_stage():
    problem = build_problem("mepipe", 4, 8, num_slices=4, wgrad_gemms=3)
    schedule = build_schedule("mepipe", problem)
    ev = evaluate_schedule(schedule, UniformCost(problem, tw=0.5))
    for s, ph in enumerate(ev.phases):
        assert ph.ordered()
        assert ph.stage == s
        assert ph.end == ev.stage_ends[s]
        assert ph.warmup + ph.steady + ph.cooldown == pytest.approx(ph.end)
    # The first stage's warmup holds its forwards-before-first-backward.
    assert ev.phases[0].warmup > 0.0


def test_non_invariant_cost_declines_bounds():
    problem = build_problem("mepipe", 4, 8, num_slices=2, wgrad_gemms=2)

    class PerMicrobatchCost:
        def duration(self, op):
            return 1.0 + 0.25 * (op.microbatch % 3)

        def comm_time(self, dep, op):
            return 0.0

        def act_units(self, op):
            return 1.0

    assert iteration_time_bounds(problem, PerMicrobatchCost()) is None
    assert peak_units_floor(problem, PerMicrobatchCost()) == 0.0


# ----------------------------------------------------------------------
# Planner tiering: identical optimum, identical frontier
# ----------------------------------------------------------------------
def row_key(r):
    return (r.config, r.iteration_time_s, r.peak_memory_bytes, r.oom)


def test_grid_search_matches_sim_search():
    grid = search_method(
        "mepipe", LLAMA_13B, RTX4090_CLUSTER, GBS, evaluator="grid"
    )
    sim = search_method(
        "mepipe", LLAMA_13B, RTX4090_CLUSTER, GBS, evaluator="sim"
    )
    # The optimum is identical including provenance: the grid sweep
    # re-evaluates its frontier at "sim" tier.
    assert grid.best == sim.best
    assert grid.evaluator == "grid" and sim.evaluator == "sim"
    assert [row_key(r) for r in pareto_frontier(grid.evaluated)] == [
        row_key(r) for r in pareto_frontier(sim.evaluated)
    ]
    assert all(r.tier == "sim" for r in pareto_frontier(grid.evaluated))
    # Every row the grid sweep did evaluate carries the sim sweep's
    # exact numbers (the analytic tier is bit-exact).
    sim_rows = {r.config: row_key(r) for r in sim.evaluated}
    for r in grid.evaluated:
        assert row_key(r) == sim_rows[r.config]
    # Every pruned candidate names its certified dominator, or is a
    # certain OOM the sim sweep confirms.
    analytic_skips = [
        s for s in grid.skipped if s.reason.startswith("analytic:")
    ]
    sim_oom = {r.config for r in sim.evaluated if r.oom}
    for skip in analytic_skips:
        assert "dominated by" in skip.reason or (
            skip.reason.startswith("analytic: certain OOM")
            and skip.config in sim_oom
        )
        assert skip.config not in {r.config for r in grid.evaluated}


def test_unknown_evaluator_rejected():
    # "tiered" named the cell-at-a-time twin of "grid" until it was
    # deleted; it is rejected like any other unknown name.
    for evaluator in ("bogus", "tiered"):
        with pytest.raises(ValueError, match="unknown search evaluator"):
            search_method(
                "mepipe", LLAMA_13B, RTX4090_CLUSTER, GBS, evaluator=evaluator
            )


def test_all_oom_sweeps_survive_tiering():
    """All-OOM sweeps never build a frontier, so only certain OOM prunes
    and the all-OOM verdict is preserved: every sim row is either the
    grid's bit-equal row or a grid certain-OOM skip."""
    grid = search_method(
        "mepipe", LLAMA_13B, RTX4090_CLUSTER, GBS,
        evaluator="grid", min_dp=16,
    )
    sim = search_method(
        "mepipe", LLAMA_13B, RTX4090_CLUSTER, GBS,
        evaluator="sim", min_dp=16,
    )
    assert grid.all_oom and sim.all_oom
    grid_rows = {r.config: row_key(r) for r in grid.evaluated}
    certain_oom = {
        s.config for s in grid.skipped
        if s.reason.startswith("analytic: certain OOM")
    }
    assert not certain_oom & grid_rows.keys()
    for r in sim.evaluated:
        assert grid_rows.get(r.config) == row_key(r) or r.config in certain_oom


# ----------------------------------------------------------------------
# Sweep cache: tiers never alias (satellite: fingerprint versioning)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_cache_entry_for_one_tier_misses_for_the_other(tmp_path, seed):
    spp = random.Random(seed).choice([2, 4, 8])
    sim_task = EvalTask(
        "mepipe", LLAMA_13B, RTX4090_CLUSTER,
        ParallelConfig(dp=8, pp=8, spp=spp), GBS,
    )
    analytic_task = dataclasses.replace(sim_task, tier="analytic")
    assert eval_fingerprint(sim_task) != eval_fingerprint(analytic_task)

    cache = SweepCache(tmp_path)
    (outcome,) = evaluate_tasks([analytic_task], cache=cache)
    assert outcome.ok and outcome.result.tier == "analytic"
    # The analytic entry is warm for its own tier...
    hit = cache.get(analytic_task)
    assert hit is not None and hit.result.tier == "analytic"
    # ...and stale (a miss) for the sim tier: no aliasing.
    assert cache.get(sim_task) is None


def test_evaluator_version_is_part_of_the_fingerprint(monkeypatch):
    task = EvalTask(
        "mepipe", LLAMA_13B, RTX4090_CLUSTER,
        ParallelConfig(dp=8, pp=8, spp=4), GBS, tier="analytic",
    )
    before = eval_fingerprint(task)
    monkeypatch.setattr(
        "repro.planner.parallel.EVALUATOR_VERSION", EVALUATOR_VERSION + 1
    )
    assert eval_fingerprint(task) != before
