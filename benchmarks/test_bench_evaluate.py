"""Bench the analytic evaluation tier against the sim tier.

The planner's first pass replaces ``assert_clean`` + event replay with
the certified closed-form evaluator (see ``docs/evaluation.md``).  Two
claims are benchmarked, each with a conservative asserted floor and the
measured ratio printed for the record:

* the analytic evaluation stage beats the sim evaluation stage on the
  sweep's largest cells while producing bit-identical numbers
  (measured ~5-8x; asserted >= 3x);
* the build-free first pass dispatches a certified-dominated candidate
  cheaper than the sim-only pipeline would evaluate it (measured ~4x on
  the candidates the 13B sweep actually prunes; asserted >= 2x).

That the default sweep returns the identical best configuration and
Pareto frontier as a sim-only sweep is tier-1's job
(``tests/test_evaluate.py::test_grid_search_matches_sim_search``).

Schedule *generation* is excluded from the per-cell timed regions: both
tiers share the same built schedule (the planner memoizes builds), so
the tiers differ only in how they evaluate it.  ``docs/evaluation.md``
records why the per-cell ratio saturates around ~8x: both tiers are
linear-time in ops, and bit-exactness forbids the closed-form float
shortcuts that would break certificate equality.
"""

import time

from repro.analysis.evaluate import evaluate_schedule
from repro.hardware.cluster import RTX4090_CLUSTER
from repro.model.spec import LLAMA_13B
from repro.parallel.strategies import ParallelConfig
from repro.planner.evaluate import (
    _cached_schedule,
    config_bounds,
    evaluate_config,
)
from repro.planner.search import search_method
from repro.schedules.methods import build_problem, build_schedule
from repro.schedules.verify import assert_clean
from repro.sim.cost import ClusterCost
from repro.sim.executor import simulate

#: The largest (dp, pp, spp, microbatches) cells the 13B sweeps
#: evaluate — GBS-256 scale, where per-cell evaluation cost matters.
CELLS = [
    (8, 8, 8, 32),
    (8, 8, 16, 32),
]

#: A candidate the GBS-128 sweep certifies as dominated without
#: ever building its schedule (see test_bench_first_pass_prune_speedup).
PRUNED = ParallelConfig(dp=16, pp=4, spp=8)


def build_subjects():
    subjects = []
    for dp, pp, spp, n in CELLS:
        config = ParallelConfig(dp=dp, pp=pp, spp=spp)
        problem = build_problem("mepipe", pp, n, num_slices=spp, wgrad_gemms=2)
        cost = ClusterCost(
            spec=LLAMA_13B, config=config, cluster=RTX4090_CLUSTER,
            problem=problem,
        )
        subjects.append((build_schedule("mepipe", problem, cost=cost), cost))
    return subjects


def test_bench_evaluate_sim_tier(once):
    """The sim tier's per-cell cost: full verification + event replay."""
    subjects = build_subjects()

    def sim_tier():
        out = []
        for schedule, cost in subjects:
            assert_clean(schedule, method="mepipe")
            out.append(simulate(schedule, cost, engine="heap"))
        return out

    sims = once(sim_tier)
    assert all(s.iteration_time > 0 for s in sims)


def test_bench_evaluate_analytic_tier(once):
    """The analytic tier's per-cell cost, bit-identical to the sim tier."""
    subjects = build_subjects()
    sims = [simulate(schedule, cost) for schedule, cost in subjects]

    def analytic_tier():
        return [evaluate_schedule(schedule, cost) for schedule, cost in subjects]

    evals = once(analytic_tier)
    for ev, sim in zip(evals, sims):
        assert ev.iteration_time == sim.iteration_time
        assert ev.bubble_ratio == sim.bubble_ratio
        assert ev.stage_peak_units == tuple(
            m.peak_activation_units for m in sim.stages
        )


def test_bench_evaluation_stage_speedup(once):
    """The analytic evaluation stage beats the sim stage, bit-for-bit.

    The sim stage is what the planner's confirmation tier runs per cell
    (``assert_clean`` + the scalar heap replay); the analytic stage is
    the first-pass evaluator.  Measured ~5-8x on these cells; the
    asserted floor leaves margin for CI noise.
    """
    subjects = build_subjects()

    def measure():
        t0 = time.perf_counter()
        sims = []
        for schedule, cost in subjects:
            assert_clean(schedule, method="mepipe")
            sims.append(simulate(schedule, cost, engine="heap"))
        t_sim = time.perf_counter() - t0
        t0 = time.perf_counter()
        evals = [evaluate_schedule(s, c) for s, c in subjects]
        t_analytic = time.perf_counter() - t0
        return sims, evals, t_sim, t_analytic

    sims, evals, t_sim, t_analytic = once(measure)
    for ev, sim in zip(evals, sims):
        assert ev.iteration_time == sim.iteration_time
        assert ev.bubble_ratio == sim.bubble_ratio
    speedup = t_sim / t_analytic
    print(f"\nevaluation stage: sim {t_sim * 1e3:.1f} ms, "
          f"analytic {t_analytic * 1e3:.1f} ms, {speedup:.1f}x")
    assert speedup >= 3.0, f"analytic tier only {speedup:.1f}x faster"


def test_bench_first_pass_prune_speedup(once):
    """Dispatching a dominated candidate: certified bounds vs sim-only.

    The sweep's analytic first pass decides a candidate's fate from
    build-free bounds; the sim-only pipeline must build, verify, and
    replay the schedule to reach the same verdict.  The candidate here
    is one the GBS-128 sweep *actually* prunes (asserted below), so the
    measured ratio is the real per-candidate saving, including the
    skipped schedule build.
    """

    def measure():
        sweep = search_method("mepipe", LLAMA_13B, RTX4090_CLUSTER, 128)
        t0 = time.perf_counter()
        bounds = config_bounds(
            "mepipe", LLAMA_13B, RTX4090_CLUSTER, PRUNED, 128
        )
        t_first = time.perf_counter() - t0
        _cached_schedule.cache_clear()  # sim-only has no memoized build
        t0 = time.perf_counter()
        row = evaluate_config(
            "mepipe", LLAMA_13B, RTX4090_CLUSTER, PRUNED, 128, tier="sim"
        )
        t_sim = time.perf_counter() - t0
        return sweep, bounds, row, t_first, t_sim

    sweep, bounds, row, t_first, t_sim = once(measure)
    assert any(
        s.config == PRUNED and s.reason.startswith("analytic:")
        for s in sweep.skipped
    ), "expected the GBS-128 sweep to prune this candidate analytically"
    assert bounds is not None
    assert bounds.lower_time_s <= row.iteration_time_s <= bounds.upper_time_s
    speedup = t_sim / t_first
    print(f"\nfirst pass: bounds {t_first * 1e3:.2f} ms, "
          f"sim-only {t_sim * 1e3:.2f} ms, {speedup:.1f}x")
    assert speedup >= 2.0, f"first pass only {speedup:.1f}x cheaper"
