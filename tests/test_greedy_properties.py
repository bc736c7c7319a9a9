"""Property-based tests of the greedy schedule generator.

Whatever the shape and policy, a generated schedule must be complete,
dependency-consistent (deadlock-free), and respect the first-stage
activation cap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedules import (
    GreedyPolicy,
    OpKind,
    PipelineProblem,
    default_first_stage_cap,
    greedy_schedule,
    min_first_stage_cap,
    validate_schedule,
)
from repro.sim import UniformCost, simulate

shapes = st.tuples(
    st.integers(min_value=1, max_value=5),  # p
    st.integers(min_value=1, max_value=6),  # n
    st.integers(min_value=1, max_value=4),  # s
    st.integers(min_value=1, max_value=3),  # v
)


@settings(max_examples=60, deadline=None)
@given(shapes)
def test_any_shape_generates_valid_schedule(shape):
    p, n, s, v = shape
    problem = PipelineProblem(
        num_stages=p, num_microbatches=n, num_slices=s, virtual_size=v
    )
    schedule = greedy_schedule(problem)
    validate_schedule(schedule)


@settings(max_examples=40, deadline=None)
@given(shapes, st.booleans(), st.sampled_from(["children", "fifo"]))
def test_split_backward_any_policy_valid(shape, fill, priority):
    p, n, s, v = shape
    problem = PipelineProblem(
        num_stages=p,
        num_microbatches=n,
        num_slices=s,
        virtual_size=v,
        split_backward=True,
        wgrad_gemms=2,
    )
    policy = GreedyPolicy(fill_with_wgrad=fill, backward_priority=priority)
    schedule = greedy_schedule(problem, policy)
    validate_schedule(schedule)


@settings(max_examples=40, deadline=None)
@given(shapes, st.data())
def test_every_f_variant_respects_its_cap(shape, data):
    """Peak live F ops on stage 0 never exceeds f (Section 4.2)."""
    p, n, s, v = shape
    problem = PipelineProblem(
        num_stages=p, num_microbatches=n, num_slices=s, virtual_size=v
    )
    lo, hi = min_first_stage_cap(problem), default_first_stage_cap(problem)
    f = data.draw(st.integers(min_value=lo, max_value=hi))
    schedule = greedy_schedule(problem, GreedyPolicy(first_stage_cap=f))
    validate_schedule(schedule)
    result = simulate(schedule, UniformCost(problem))
    cap_units = f * problem.activation_units_per_op
    assert result.stages[0].peak_activation_units <= cap_units + 1e-9


@settings(max_examples=30, deadline=None)
@given(shapes)
def test_makespan_at_least_critical_path(shape):
    """The makespan can never beat the single-sample dependency chain."""
    p, n, s, v = shape
    problem = PipelineProblem(
        num_stages=p, num_microbatches=n, num_slices=s, virtual_size=v
    )
    schedule = greedy_schedule(problem)
    cost = UniformCost(problem, tf=1.0, tb=2.0)
    result = simulate(schedule, cost)
    # Critical path of one sample: all chunks forward then backward for
    # one slice, plus per-stage work for the remaining load.
    chain = (cost.tf + cost.tb) * problem.num_chunks / (s * v)
    per_stage = n * (cost.tf + cost.tb)
    assert result.makespan >= max(chain, per_stage) - 1e-9


@settings(max_examples=30, deadline=None)
@given(shapes)
def test_total_busy_time_is_conserved(shape):
    """Scheduling reorders work; it cannot create or destroy it."""
    p, n, s, v = shape
    problem = PipelineProblem(
        num_stages=p, num_microbatches=n, num_slices=s, virtual_size=v
    )
    schedule = greedy_schedule(problem)
    cost = UniformCost(problem)
    result = simulate(schedule, cost)
    expected = sum(cost.duration(op) for op in problem.all_ops())
    assert sum(m.busy_time for m in result.stages) == \
        __import__("pytest").approx(expected)


@settings(max_examples=30, deadline=None)
@given(shapes)
def test_all_activations_released(shape):
    """Every forward's activations are freed by the end of the iteration."""
    p, n, s, v = shape
    problem = PipelineProblem(
        num_stages=p, num_microbatches=n, num_slices=s, virtual_size=v,
        split_backward=True, wgrad_gemms=3,
    )
    schedule = greedy_schedule(problem)
    from tests.oracles.fixed_point import Ledger

    for stage in range(p):
        ledger = Ledger(problem=problem)
        for op in schedule.stage_ops(stage):
            ledger.apply(op, problem.activation_units_per_op)
        assert abs(ledger.current) < 1e-9
