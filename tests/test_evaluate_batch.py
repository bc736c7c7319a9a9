"""The batched (multi-config) analytic evaluator, bit for bit.

The central claim of :mod:`repro.analysis.evaluate.batch` — one stacked
``(n_configs, n_ops)`` sweep of a topology class equals the scalar
:func:`evaluate_schedule` member for member, bit-identically — is
checked here over the full acceptance grid under distinct per-member
cost tables, plus the structural-agreement guard and the grid-tier
planner integration (``evaluate_config_batch`` equals the scalar
``evaluate_config`` member for member; ``evaluator="grid"`` returns
exactly what ``"sim"`` returns).
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.evaluate import (
    evaluate_schedule,
    evaluate_schedule_batch,
)
from repro.hardware.cluster import RTX4090_CLUSTER
from repro.model.spec import LLAMA_13B
from repro.planner.evaluate import evaluate_config, evaluate_config_batch
from repro.planner.parallel import EvalTask, evaluate_tasks
from repro.planner.search import search_method
from repro.schedules import gencache
from repro.schedules.graph import compiled_graph
from repro.schedules.methods import build_problem, build_schedule
from repro.sim.cost import UniformCost

from tests.test_verify import golden_grid

GBS = 64


def member_costs(problem, s, k=3):
    """``k`` distinct cost models over one problem (one topology class
    for cost-independent builders; for greedy builders the generated
    structures may differ and the batch entry points group on them)."""
    return [
        UniformCost(
            problem,
            tw=0.5 + 0.25 * j,
            imbalance=tuple(1.0 + 0.1 * (i + j) for i in range(s)),
        )
        for j in range(k)
    ]


def assert_identical(batched, scalar):
    """Full bit-identity including the (compare=False) dense times."""
    assert batched == scalar
    assert batched.certificate == scalar.certificate
    assert np.array_equal(batched.times.start, scalar.times.start)
    assert np.array_equal(batched.times.end, scalar.times.end)
    assert batched.activation_bytes_per_unit == scalar.activation_bytes_per_unit
    assert batched.comm_bytes_per_message == scalar.comm_bytes_per_message


# ----------------------------------------------------------------------
# Golden bit-identity over the acceptance grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "method,p,n,s,v,g", list(golden_grid()), ids=lambda val: str(val)
)
def test_batch_is_bit_identical_on_golden_grid(method, p, n, s, v, g):
    problem = build_problem(
        method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=g
    )
    costs = member_costs(problem, s)
    # One schedule per cost: cost-aware builders may shape the schedule
    # from the durations, so each member gets its own build.  The batch
    # call requires one topology class; structurally divergent members
    # are exercised by the planner-level grouping test below.
    schedules = [build_schedule(method, problem, cost=c) for c in costs]
    key = compiled_graph(schedules[0]).structure_key()
    same = [
        (sch, c)
        for sch, c in zip(schedules, costs)
        if compiled_graph(sch).structure_key() == key
    ]
    overheads = [0.125 * j for j in range(len(same))]
    batch = evaluate_schedule_batch(
        [sch for sch, _ in same], [c for _, c in same], overheads
    )
    for (sch, c), overhead, batched in zip(same, overheads, batch):
        assert_identical(batched, evaluate_schedule(sch, c, overhead))


def test_batch_of_one_equals_scalar_exactly():
    rng = random.Random(7)
    for method, s, v, g in [
        ("mepipe", 4, 2, 2),
        ("zbv", 1, 2, 2),
        ("dapple", 1, 1, 1),
    ]:
        problem = build_problem(
            method, 4, 8, num_slices=s, virtual_size=v, wgrad_gemms=g
        )
        for _ in range(3):
            cost = UniformCost(
                problem,
                tw=rng.uniform(0.1, 2.0),
                imbalance=tuple(rng.uniform(0.8, 1.4) for _ in range(s)),
            )
            schedule = build_schedule(method, problem, cost=cost)
            overhead = rng.uniform(0.0, 5.0)
            (batched,) = evaluate_schedule_batch(
                [schedule], [cost], [overhead]
            )
            assert_identical(
                batched, evaluate_schedule(schedule, cost, overhead)
            )


def test_structural_mismatch_raises():
    a = build_problem("mepipe", 4, 8, num_slices=2, wgrad_gemms=2)
    b = build_problem("mepipe", 4, 16, num_slices=2, wgrad_gemms=2)
    ca, cb = UniformCost(a), UniformCost(b)
    sa, sb = build_schedule("mepipe", a, ca), build_schedule("mepipe", b, cb)
    with pytest.raises(ValueError, match="one topology class"):
        evaluate_schedule_batch([sa, sb], [ca, cb], [0.0, 0.0])


def test_mismatched_batch_lengths_raise():
    problem = build_problem("dapple", 2, 4)
    cost = UniformCost(problem)
    schedule = build_schedule("dapple", problem, cost=cost)
    with pytest.raises(ValueError, match="mismatched batch"):
        evaluate_schedule_batch([schedule], [cost], [0.0, 1.0])


def test_empty_batch_is_empty():
    assert evaluate_schedule_batch([], [], []) == []


# ----------------------------------------------------------------------
# Planner integration: grouping, batching, and the grid evaluator
# ----------------------------------------------------------------------
def test_evaluate_config_batch_matches_scalar_sweep():
    from repro.parallel.strategies import ParallelConfig

    tasks = [
        EvalTask(
            "dapple",
            LLAMA_13B,
            RTX4090_CLUSTER,
            ParallelConfig(dp=8, pp=8, recompute=rc),
            GBS,
            tier="analytic",
        )
        for rc in (False, True)
    ] + [
        EvalTask(
            "mepipe",
            LLAMA_13B,
            RTX4090_CLUSTER,
            ParallelConfig(dp=8, pp=8, spp=spp),
            GBS,
            tier="analytic",
        )
        # spp=3 does not divide the sequence: the prelude rejects it.
        for spp in (1, 2, 3)
    ]
    report = evaluate_config_batch(tasks)
    assert len(report.results) == len(tasks)
    # Member for member the scalar definition: same result, or the
    # same exception type and text.
    rejected = 0
    for task, got in zip(tasks, report.results):
        try:
            want = evaluate_config(
                task.method,
                task.spec,
                task.cluster,
                task.config,
                task.global_batch_size,
                tier=task.tier,
                capacity_mode=task.capacity_mode,
            )
        except ValueError as exc:
            rejected += 1
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            assert got == want
    assert rejected == 1
    # And the dispatcher reports exactly those outcomes.
    outcomes = evaluate_tasks(list(tasks))
    assert [o.result for o in outcomes] == [
        r if not isinstance(r, Exception) else None for r in report.results
    ]
    assert [o.error for o in outcomes if not o.ok] == [
        str(r).splitlines()[0]
        for r in report.results
        if isinstance(r, Exception)
    ]
    # The dapple recompute pair shares one problem and a cost-independent
    # builder — a genuine topology class of size 2.
    assert any(size >= 2 for size in report.class_sizes)


def test_grid_evaluator_matches_sim():
    results = {
        evaluator: search_method(
            "mepipe",
            LLAMA_13B,
            RTX4090_CLUSTER,
            GBS,
            max_spp=4,
            evaluator=evaluator,
        )
        for evaluator in ("sim", "grid")
    }
    grid, sim = results["grid"], results["sim"]
    # The frontier is confirmed at "sim" provenance, so the winner is
    # the same object; off-frontier rows carry the same numbers under
    # an "analytic" tag.
    assert grid.best == sim.best
    sim_rows = {r.config: r for r in sim.evaluated}
    for r in grid.evaluated:
        assert replace(r, tier="sim") == sim_rows[r.config]


def test_structure_store_shares_plans_across_sweeps():
    gencache.clear()
    # dapple's builder is cost-independent, so two builds under
    # different cost tables share one structure; the second
    # evaluation's topological plan comes from the store.  (mepipe's
    # greedy builder is cost-aware — different durations can reshape
    # the schedule — so it is exactly the case the store must NOT
    # alias, which the structural key guarantees.)
    problem = build_problem("dapple", 4, 8)
    cost_a = UniformCost(problem, tw=0.5)
    cost_b = UniformCost(problem, tw=1.5)
    evaluate_schedule(build_schedule("dapple", problem, cost=cost_a), cost_a)
    before = gencache.structure_stats()
    evaluate_schedule(build_schedule("dapple", problem, cost=cost_b), cost_b)
    after = gencache.structure_stats()
    assert after["hits"] >= before["hits"] + 1
