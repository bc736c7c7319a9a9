"""The max-plus check: claimed times pass exactly when they are the
replay's.

:func:`repro.analysis.evaluate.certify.check` stands in for a replay in
two places: ``evaluate_schedule`` prices a greedy build from the
timeline it committed, and the planner's sim tier
(:func:`repro.sim.executor.confirm`) takes claimed times as the heap
oracle's answer.  Each seeded mutation below puts wrong times, wrong
costs or a wrong stage order in front of the check, which must reject
it; the callers then fall back to the kernel or the heap, whose answer
is what they return.  The last tests show the check does not reject
what it should pass, so no build falls back silently.
"""

import dataclasses
import inspect
from collections import OrderedDict

import numpy as np
import pytest

import repro.analysis.evaluate.core as core
import repro.analysis.evaluate.dense as dense
import repro.schedules.greedy as greedy
import repro.sim.executor as executor
from repro.analysis.evaluate import evaluate_schedule, ledger_peak_units
from repro.analysis.evaluate.certify import check
from repro.analysis.evaluate.dense import dense_schedule_times, op_cost_arrays
from repro.api import EvaluateRequest, ShapeSpec, execute
from repro.hardware.cluster import RTX4090_CLUSTER
from repro.model.spec import LLAMA_7B
from repro.parallel.strategies import ParallelConfig
from repro.planner.evaluate import _ledger_peak_units, _prelude
from repro.schedules import dapple_schedule, gencache, mepipe_schedule
from repro.schedules.base import OpKind, Schedule
from repro.schedules.graph import compiled_graph, toposort_plan
from repro.schedules.greedy import build_facts, greedy_schedule
from repro.schedules.methods import build_problem
from repro.schedules.verify import ensure_verified
from repro.sim.cost import UniformCost, cost_table
from repro.sim.executor import confirm, simulate

from tests.test_greedy_golden import POLICIES, SHAPES, costs_for, problem_grid
from tests.test_verify import Draft

#: A Figure 10-style cell (LLaMA-7B, 64 RTX 4090s, dp=16 x pp=4) whose
#: mepipe build, at ``ARRIVAL_EPS`` admission, starts ops up to ε
#: early under the ε clock: 128 ops, a few milliseconds to build.
CELL = ("mepipe", LLAMA_7B, RTX4090_CLUSTER, ParallelConfig(dp=16, pp=4), 128)


def cluster_cell():
    """A fresh mepipe build of :data:`CELL` and its ``ClusterCost``."""
    pre = _prelude(*CELL)
    return mepipe_schedule(pre.problem, pre.auto_f, pre.cost), pre.cost


def uniform_subject():
    problem = build_problem("mepipe", 4, 8, num_slices=2, wgrad_gemms=2)
    cost = UniformCost(problem, tf=1.3, tb=2.1, tw=0.7, imbalance=(1.0, 1.3))
    return mepipe_schedule(problem, cost=cost), cost


def claim(schedule, cost, start):
    """``check`` of ``start`` against ``cost``'s kernel tables."""
    graph = compiled_graph(schedule)
    return check(graph, start, *op_cost_arrays(graph, cost))


def counting(monkeypatch, module, name):
    """Count calls of ``module.name``; returns the call log."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def rebuilt(schedule, start):
    """A copy of greedy ``schedule`` that claims ``start`` instead."""
    return greedy._DenseSchedule(
        schedule.problem,
        schedule.name,
        schedule._build_ops,
        schedule._stage_codes,
        schedule._dense_token,
        schedule.ledger_peak_units,
        start,
        schedule._cost,
    )


def assert_kernel_priced(schedule, cost, monkeypatch):
    """``evaluate_schedule`` falls back to the kernel, and its times are
    the kernel's bit for bit."""
    kernel = dense_schedule_times(compiled_graph(schedule), cost)
    replays = counting(monkeypatch, dense, "wavefront_times")
    priced = evaluate_schedule(schedule, cost).times
    assert len(replays) == 1
    assert priced.start.tobytes() == kernel.start.tobytes()
    assert priced.end.tobytes() == kernel.end.tobytes()


def assert_heap_confirmed(schedule, cost, claimed, monkeypatch):
    """``confirm`` rejects ``claimed`` and returns the heap's answer."""
    heap = simulate(schedule, cost, engine="heap")
    replays = counting(monkeypatch, executor, "_simulate_heap")
    confirmed = confirm(schedule, cost, claimed)
    assert len(replays) == 1
    assert confirmed.times.start.tobytes() == heap.times.start.tobytes()
    assert confirmed.stages == heap.stages


# ----------------------------------------------------------------------
# What passes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("subject", [cluster_cell, uniform_subject])
def test_kernel_and_build_times_pass_and_match_the_heap(subject):
    schedule, cost = subject()
    graph = compiled_graph(schedule)
    heap = simulate(schedule, cost, engine="heap").times
    kernel = dense_schedule_times(graph, cost)
    facts = build_facts(schedule)
    for start in (kernel.start, facts.start):
        times = claim(schedule, cost, start)
        assert times is not None
        assert times.start.tobytes() == heap.start.tobytes()
        assert times.end.tobytes() == heap.end.tobytes()
        confirmed = check(graph, start, *executor._oracle_costs(graph, cost))
        assert confirmed is not None
        assert confirmed.comm.tobytes() == heap.comm.tobytes()


def test_an_explicit_schedule_passes_with_its_kernel_times():
    problem = build_problem("dapple", 4, 8)
    cost = UniformCost(problem)
    schedule = dapple_schedule(problem)
    assert build_facts(schedule) is None
    assert claim(schedule, cost, dense_schedule_times(
        compiled_graph(schedule), cost).start) is not None


# ----------------------------------------------------------------------
# Seeded mutations the check must reject
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("direction", [np.inf, -np.inf])
def test_one_start_off_by_one_ulp(seed, direction):
    schedule, cost = cluster_cell()
    start = build_facts(schedule).start.copy()
    index = np.random.default_rng(seed).integers(1, start.size)
    start[index] = np.nextafter(start[index], direction)
    assert claim(schedule, cost, start) is None


def test_two_stage_order_ops_swapped():
    # Swap the last two ops of the last stage (two W GEMMs; nothing
    # depends on them) and keep every op's claimed time: those times
    # belong to the other stage order.
    schedule, cost = uniform_subject()
    graph = compiled_graph(schedule)
    times = dense_schedule_times(graph, cost)
    by_op = dict(zip(graph.ops, times.start.tolist()))
    draft = Draft(schedule)
    last = draft.ops[-1]
    assert {last[-1].kind, last[-2].kind} == {OpKind.W}
    last[-2], last[-1] = last[-1], last[-2]
    swapped = draft.build()
    ensure_verified(swapped, context="test")
    swapped_graph = compiled_graph(swapped)
    claimed = np.array([by_op[op] for op in swapped_graph.ops])
    assert check(swapped_graph, claimed, *op_cost_arrays(swapped_graph, cost)) is None
    # The swapped order's own kernel times pass.
    kernel = dense_schedule_times(swapped_graph, cost)
    assert check(swapped_graph, kernel.start, kernel.duration, kernel.comm) is not None


def test_a_binding_edge_dropped_from_the_kernel_input():
    schedule, cost = cluster_cell()
    graph = compiled_graph(schedule)
    duration, comm = op_cost_arrays(graph, cost)
    times = dense_schedule_times(graph, cost)
    indptr, pred = np.asarray(graph.pred_indptr), np.asarray(graph.pred)
    head = np.repeat(np.arange(graph.num_ops), np.diff(indptr))
    arrival = times.end[pred] + comm
    # An edge that alone decides its op's start: strictly later than the
    # stage predecessor's end and every other edge into the op.
    binding = [
        e for e in range(pred.size)
        if arrival[e] == times.start[head[e]]
        and (graph.pos[head[e]] == 0 or times.end[head[e] - 1] < arrival[e])
        and (arrival[indptr[head[e]]:indptr[head[e] + 1]] == arrival[e]).sum() == 1
    ]
    assert binding
    drop = binding[len(binding) // 2]
    keep = np.arange(pred.size) != drop
    start, _ = dense.wavefront_times(
        graph.pos,
        (indptr - (np.arange(indptr.size) > head[drop])).tolist(),
        pred[keep].tolist(),
        comm[keep].tolist(),
        duration.tolist(),
        toposort_plan(graph).order,
    )
    start = np.asarray(start)
    assert start[head[drop]] < times.start[head[drop]]
    assert check(graph, start, duration, comm) is None


def test_a_wrong_comm_entry_in_the_cost_table(monkeypatch):
    # The build, and the kernel's tables, read the corrupted entry; the
    # confirmation's own probes do not, so it rejects the build's
    # timeline and the heap answers.
    pre = _prelude(*CELL)
    cost = dataclasses.replace(pre.cost)
    table = cost_table(pre.problem, cost)
    wrong = list(table.f_next_chunk)
    wrong[0] += 1e-3
    cost._tables[("cost_table", pre.problem)] = dataclasses.replace(
        table, f_next_chunk=wrong
    )
    schedule = mepipe_schedule(pre.problem, pre.auto_f, cost)
    start = build_facts(schedule).start
    analytic = evaluate_schedule(schedule, cost)
    assert claim(schedule, cost, start) is not None  # consistent with the table
    assert_heap_confirmed(schedule, cost, start, monkeypatch)
    heap = simulate(schedule, cost, engine="heap")
    assert heap.makespan != analytic.makespan


def test_a_build_timeline_nudged_by_one_ulp(monkeypatch):
    schedule, cost = cluster_cell()
    start = build_facts(schedule).start.copy()
    index = int(np.argmax(start))
    start[index] = np.nextafter(start[index], np.inf)
    nudged = rebuilt(schedule, start)
    assert claim(nudged, cost, start) is None
    assert_kernel_priced(nudged, cost, monkeypatch)
    assert_heap_confirmed(nudged, cost, start, monkeypatch)


#: The commit step's exact clock in ``greedy._drain``; without it the
#: build starts every op at the wake that admitted it (the ε clock).
EXACT_CLOCK = """            arr = arrival[code]
            if arr > start:
                start = arr
"""


def test_the_epsilon_clock_left_in_place(monkeypatch):
    source = inspect.getsource(greedy._drain)
    assert source.count(EXACT_CLOCK) == 1
    namespace = dict(vars(greedy))
    exec(source.replace(EXACT_CLOCK, ""), namespace)
    exact, cost = cluster_cell()
    monkeypatch.setattr(greedy, "_drain", namespace["_drain"])
    schedule, _ = cluster_cell()
    monkeypatch.undo()
    # Same program, a timeline that is off by rounding only.
    assert compiled_graph(schedule).fingerprint == compiled_graph(exact).fingerprint
    eps_start, exact_start = build_facts(schedule).start, build_facts(exact).start
    assert (eps_start != exact_start).any()
    assert np.abs(eps_start - exact_start).max() <= greedy.ARRIVAL_EPS
    assert claim(schedule, cost, eps_start) is None
    assert_kernel_priced(schedule, cost, monkeypatch)
    assert_heap_confirmed(schedule, cost, eps_start, monkeypatch)


def test_durs_tiling_off_by_one_code(monkeypatch):
    real = greedy._code_costs

    def shifted(*args):
        durs, delta, scomm = real(*args)
        return durs[1:] + durs[:1], delta, scomm

    monkeypatch.setattr(greedy, "_code_costs", shifted)
    schedule, cost = uniform_subject()
    monkeypatch.undo()
    start = build_facts(schedule).start
    assert claim(schedule, cost, start) is None
    assert_kernel_priced(schedule, cost, monkeypatch)
    assert_heap_confirmed(schedule, cost, start, monkeypatch)


def test_a_wrong_float_in_the_kernel_claim_is_replayed_on_the_heap(monkeypatch):
    # An explicit schedule's claim is the kernel's: one wrong float out
    # of it is what the heap confirmation has always caught.
    problem = build_problem("dapple", 4, 8)
    cost = UniformCost(problem, tf=1.3, tb=2.1)
    schedule = dapple_schedule(problem)
    start = dense_schedule_times(compiled_graph(schedule), cost).start.copy()
    start[start.size // 2] += 0.125
    assert_heap_confirmed(schedule, cost, start, monkeypatch)


# ----------------------------------------------------------------------
# No silent fallback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_every_golden_build_passes_against_its_own_cost(shape):
    checked = 0
    for problem in problem_grid(shape):
        for policy in POLICIES:
            for cost in costs_for(problem):
                schedule = greedy_schedule(problem, policy, cost)
                own = cost or UniformCost(problem)
                assert claim(schedule, own, build_facts(schedule).start) is not None, (
                    problem, policy, cost,
                )
                checked += 1
    assert checked


def test_a_build_priced_under_another_cost_model_falls_back(monkeypatch):
    schedule, cost = uniform_subject()
    other = UniformCost(schedule.problem, tf=1.0, tb=2.5, tw=0.5)
    assert claim(schedule, other, build_facts(schedule).start) is None
    assert_kernel_priced(schedule, other, monkeypatch)


@pytest.mark.parametrize("tw,checks,replays", [(1.0, 0, 1), (0.0, 1, 0)])
def test_an_evaluate_request_checks_only_a_build_planned_under_its_cost(
    tw, checks, replays, monkeypatch
):
    # The request builds under the unit cost model (tw 0) and prices
    # under its own tw: the build's timeline is a claim about tw 0 only.
    monkeypatch.setattr(gencache, "_store", OrderedDict())  # a fresh build
    request = EvaluateRequest(
        method="mepipe", shape=ShapeSpec(4, 8, slices=4, wgrad_gemms=2), tw=tw
    )
    checked = counting(monkeypatch, core, "check")
    replayed = counting(monkeypatch, dense, "wavefront_times")
    body = execute(request).to_json()
    assert (len(checked), len(replayed)) == (checks, replays)
    # The same bytes as the kernel's answer.
    monkeypatch.setattr(core, "build_claim", lambda schedule, cost: None)
    assert execute(request).to_json() == body


def test_a_greedy_build_is_priced_and_confirmed_without_a_replay(monkeypatch):
    schedule, cost = cluster_cell()
    kernel = dense_schedule_times(compiled_graph(schedule), cost)
    heap = simulate(schedule, cost, engine="heap")
    replays = counting(monkeypatch, dense, "wavefront_times")
    replays += counting(monkeypatch, executor, "_simulate_heap")
    priced = evaluate_schedule(schedule, cost)
    confirmed = confirm(schedule, cost, build_facts(schedule).start)
    assert replays == []
    assert priced.times.end.tobytes() == kernel.end.tobytes()
    assert confirmed.times.end.tobytes() == heap.times.end.tobytes()
    assert confirmed.stages == heap.stages


# ----------------------------------------------------------------------
# Build facts describe the emitted programs only
# ----------------------------------------------------------------------
def test_replaced_programs_disown_the_build_facts(monkeypatch):
    """A build's programs cannot be replaced; an edited copy is a plain
    :class:`Schedule`, with no build facts, so the kernel prices it."""
    problem = build_problem(
        "mepipe", 4, 8, num_slices=2, virtual_size=1, wgrad_gemms=2
    )
    schedule = mepipe_schedule(problem)
    assert _ledger_peak_units(schedule) == schedule.ledger_peak_units
    with pytest.raises(dataclasses.FrozenInstanceError):
        schedule.programs = schedule.programs[::-1]
    # Every W of stage 0 moved to the end of its program: legal, and
    # the deferred weight gradients pin more memory.
    draft = Draft(schedule)
    first = draft.ops[0]
    draft.ops[0] = [op for op in first if op.kind is not OpKind.W]
    draft.ops[0] += [op for op in first if op.kind is OpKind.W]
    edited = draft.build()
    graph = compiled_graph(edited)
    assert type(edited) is Schedule
    assert build_facts(edited) is None
    assert _ledger_peak_units(edited) == ledger_peak_units(graph) == 4.0
    # The build keeps its own facts.
    assert build_facts(schedule) is not None
    assert _ledger_peak_units(schedule) == schedule.ledger_peak_units == 1.0
    cost = UniformCost(problem)
    assert_kernel_priced(edited, cost, monkeypatch)
