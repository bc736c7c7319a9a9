"""Golden equivalence: every engine replays the fixed-point engine.

The plan-order kernel (``"event"``) and the event-driven heap oracle
(``"heap"``) must be pure speedups — not approximations — of the
original fixed-point replay (``tests/oracles/fixed_point.py``).  These
tests compare the engines bit-for-bit (op records, makespan, per-stage
busy time and activation peaks) across the acceptance grid from
``tests/test_verify.py``, under the uniform cost model, an imbalanced
one, the calibrated cluster model, and a custom model that charges
same-stage communication (exercising the executor's promise to probe
``comm_time`` on every dependency edge).  The graph engines' results
are array-backed; read lazily they must be field for field what an
eager construction holds (``assert_lazy_records_match``).
"""

import dataclasses

import pytest

from repro.analysis.capacity import bounded_dense_times, channel_messages
from repro.hardware.cluster import RTX4090_CLUSTER
from repro.model.spec import LLAMA_13B
from repro.parallel.strategies import ParallelConfig
from repro.schedules.base import OpId
from repro.schedules.graph import compiled_graph
from repro.schedules.methods import build_problem, build_schedule
from repro.sim.cost import ClusterCost, UniformCost
from repro.sim.executor import OpRecord, simulate

from tests.oracles.fixed_point import simulate_fixed_point
from tests.test_capacity_mutations import binding_grid
from tests.test_verify import golden_grid


def assert_bitwise_equal(a, b):
    assert a.records == b.records
    assert a.makespan == b.makespan
    assert [s.busy_time for s in a.stages] == [s.busy_time for s in b.stages]
    assert [s.peak_activation_units for s in a.stages] == [
        s.peak_activation_units for s in b.stages
    ]
    assert [s.op_count for s in a.stages] == [s.op_count for s in b.stages]
    for stage in range(len(a.stages)):
        assert a.stage_records(stage) == b.stage_records(stage)
    assert a.metrics() == b.metrics()


def program_order(schedule):
    """Stage-major program order: the key order of an eagerly built
    records dict (the fixed-point engine's is its own scan order)."""
    return [
        op
        for stage in range(schedule.problem.num_stages)
        for op in schedule.stage_ops(stage)
    ]


def assert_lazy_records_match(schedule, result, reference):
    """An array-backed result read lazily is what the eager reference
    holds: same records in program key order, one cached object."""
    assert result.op_times is not None
    assert result.records is result.records
    assert result.stage_record_lists is result.stage_record_lists
    assert list(result.records) == program_order(schedule)
    assert_bitwise_equal(result, reference)
    assert [r for stage in result.stage_record_lists for r in stage] == list(
        result.records.values()
    )
    assert dataclasses.replace(result) == result
    shifted = dataclasses.replace(result, overhead_time=1.0)
    assert shifted.records == reference.records and shifted != result


@pytest.mark.parametrize(
    "method,p,n,s,v,g", list(golden_grid()), ids=lambda val: str(val)
)
def test_engines_agree_on_golden_grid(method, p, n, s, v, g):
    problem = build_problem(
        method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=g
    )
    schedule = build_schedule(method, problem)
    cost = UniformCost(problem, tw=0.5, imbalance=tuple(
        1.0 + 0.1 * i for i in range(s)
    ))
    fixed = simulate_fixed_point(schedule, cost)
    assert fixed.op_times is None  # the reference builds records eagerly
    event = simulate(schedule, cost, engine="event")
    heap = simulate(schedule, cost, engine="heap")
    channels = channel_messages(compiled_graph(schedule))
    slack = simulate(
        schedule, cost,
        channel_capacities={key: len(msgs) for key, msgs in channels.items()},
    )
    for result in (event, heap, slack):
        assert_lazy_records_match(schedule, result, fixed)
    assert event == heap == slack


def test_binding_capacities_build_the_same_lazy_records():
    """Under capacities that bind there is no fixed-point reference;
    the lazily built records must be the eager construction over the
    analytic slot-augmented times."""
    for schedule, cost, cert in binding_grid():
        num_stages = schedule.problem.num_stages
        times = bounded_dense_times(compiled_graph(schedule), cert.caps(), cost)
        starts, ends = times.start.tolist(), times.end.tolist()
        bounded = simulate(schedule, cost, channel_capacities=cert.caps())
        eager, index = {}, 0
        for stage in range(num_stages):
            for op in schedule.stage_ops(stage):
                eager[op] = OpRecord(op, stage, starts[index], ends[index])
                index += 1
        assert bounded.records is bounded.records
        assert bounded.records == eager
        assert list(bounded.records) == list(eager)
        for stage in range(num_stages):
            assert bounded.stage_records(stage) == [
                r for r in eager.values() if r.stage == stage
            ]
        assert bounded.makespan == cert.makespan


def test_engines_agree_under_cluster_cost():
    config = ParallelConfig(dp=8, pp=8, spp=4)
    problem = build_problem("mepipe", 8, 16, num_slices=4, wgrad_gemms=2)
    cost = ClusterCost(
        spec=LLAMA_13B,
        config=config,
        cluster=RTX4090_CLUSTER,
        problem=problem,
    )
    schedule = build_schedule("mepipe", problem, cost=cost)
    fixed = simulate_fixed_point(schedule, cost)
    for engine in ("event", "heap"):
        assert_bitwise_equal(simulate(schedule, cost, engine=engine), fixed)


class _EdgeTaxCost:
    """Charges every dependency edge — including same-stage ones — and
    is deliberately *not* declared micro-batch invariant."""

    def __init__(self, problem):
        self.problem = problem

    def duration(self, op: OpId) -> float:
        return 1.0 + 0.25 * (op.microbatch % 3)

    def comm_time(self, dep: OpId, op: OpId) -> float:
        return 0.125 + 0.0625 * ((dep.microbatch + op.chunk) % 2)

    def act_units(self, op: OpId) -> float:
        return 1.0


def test_engines_agree_with_edge_charging_cost():
    problem = build_problem("mepipe", 4, 8, num_slices=2, wgrad_gemms=2)
    schedule = build_schedule("mepipe", problem)
    cost = _EdgeTaxCost(problem)
    fixed = simulate_fixed_point(schedule, cost)
    for engine in ("event", "heap"):
        assert_lazy_records_match(
            schedule, simulate(schedule, cost, engine=engine), fixed
        )


def test_heap_probes_a_non_invariant_model_once_per_op_and_edge():
    """Without ``microbatch_invariant`` no two ops may share a probe:
    durations here differ per micro-batch, so a memo keyed on
    (kind, slice, chunk, gemm) would replay the wrong floats."""
    problem = build_problem("mepipe", 4, 8, num_slices=2, wgrad_gemms=2)
    schedule = build_schedule("mepipe", problem)
    graph = compiled_graph(schedule)
    calls = {"duration": 0, "comm_time": 0}

    class Counting(_EdgeTaxCost):
        def duration(self, op):
            calls["duration"] += 1
            return super().duration(op)

        def comm_time(self, dep, op):
            calls["comm_time"] += 1
            return super().comm_time(dep, op)

    simulate(schedule, Counting(problem), engine="heap")
    assert calls == {"duration": graph.num_ops, "comm_time": len(graph.pred)}


def test_unknown_engine_rejected():
    problem = build_problem("dapple", 2, 4)
    schedule = build_schedule("dapple", problem)
    cost = UniformCost(problem)
    with pytest.raises(ValueError, match="unknown simulation engine"):
        simulate(schedule, cost, engine="bogus")
    # The bounded-channel mode runs on the heap whatever valid engine is
    # named, but it must not launder an invalid one.
    caps = dict.fromkeys(channel_messages(compiled_graph(schedule)), 2)
    with pytest.raises(ValueError, match="unknown simulation engine"):
        simulate(schedule, cost, engine="bogus", channel_capacities=caps)
    # The fixed-point reference is a test oracle now, not an engine.
    for kwargs in ({}, {"channel_capacities": caps}):
        with pytest.raises(ValueError) as err:
            simulate(schedule, cost, engine="fixed-point", **kwargs)
        assert str(err.value) == "unknown simulation engine 'fixed-point'"


def test_slack_capacities_leave_the_heap_replay_untouched():
    """With every capacity >= its channel's message count no slot-reuse
    edge exists, so the bounded mode is the unbounded heap replay."""
    problem = build_problem("mepipe", 4, 8, num_slices=2, wgrad_gemms=2)
    schedule = build_schedule("mepipe", problem)
    cost = UniformCost(problem, tw=0.5)
    channels = channel_messages(compiled_graph(schedule))
    assert channels
    unbounded = simulate(schedule, cost, engine="heap")
    for slack in (0, 3):
        caps = {key: len(msgs) + slack for key, msgs in channels.items()}
        bounded = simulate(
            schedule, cost, engine="heap", channel_capacities=caps
        )
        assert_bitwise_equal(bounded, unbounded)
        assert bounded.stage_record_lists == unbounded.stage_record_lists


def test_stage_records_cached_and_sorted():
    problem = build_problem("mepipe", 4, 8, num_slices=2, wgrad_gemms=2)
    schedule = build_schedule("mepipe", problem)
    cost = UniformCost(problem)
    for result in (
        simulate(schedule, cost, engine="event"),
        simulate(schedule, cost, engine="heap"),
        simulate_fixed_point(schedule, cost),
    ):
        for stage in range(problem.num_stages):
            records = result.stage_records(stage)
            assert records is result.stage_records(stage)  # cached
            starts = [r.start for r in records]
            assert starts == sorted(starts)
            assert len(records) == result.stages[stage].op_count
