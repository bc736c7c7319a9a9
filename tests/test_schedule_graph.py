"""Unit tests of the compiled schedule graph IR.

The graph is the shared substrate of the verifier's fast paths and the
event-driven simulator, so these tests pin its contract: dense
stage-major layout, CSR edges that agree exactly with
``PipelineProblem.deps``, content-keyed caching, and compile errors on
structurally broken schedules.
"""

import pytest

from repro.schedules.base import OpId, OpKind, ScheduleError
from repro.schedules.graph import (
    KIND_B,
    KIND_F,
    KIND_W,
    ScheduleGraph,
    compiled_graph,
    fingerprint,
)
from repro.schedules.methods import build_problem, build_schedule

from tests.test_verify import clone, golden_grid


def _build(method="mepipe", p=4, n=8, s=4, v=1, g=2):
    problem = build_problem(
        method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=g
    )
    return build_schedule(method, problem)


def test_dense_layout_is_stage_major_program_order():
    schedule = _build()
    graph = compiled_graph(schedule)
    assert graph.num_ops == len(schedule.problem.all_ops())
    for stage, (lo, hi) in enumerate(graph.stage_bounds):
        program = schedule.stage_ops(stage)
        assert [graph.ops[i] for i in range(lo, hi)] == program
        for offset, i in enumerate(range(lo, hi)):
            assert graph.stage[i] == stage
            assert graph.pos[i] == offset


@pytest.mark.parametrize(
    "method,p,n,s,v,g", list(golden_grid()), ids=lambda val: str(val)
)
def test_csr_edges_match_problem_deps(method, p, n, s, v, g):
    problem = build_problem(
        method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=g
    )
    schedule = build_schedule(method, problem)
    graph = compiled_graph(schedule)
    index_of = {op: i for i, op in enumerate(graph.ops)}
    for i, op in enumerate(graph.ops):
        expect = [index_of[d] for d in problem.deps(op)]
        assert sorted(graph.preds_of(i)) == sorted(expect), op
    # Successor arrays are the exact transpose of the predecessors.
    edges = {
        (graph.pred[e], i)
        for i in range(graph.num_ops)
        for e in range(graph.pred_indptr[i], graph.pred_indptr[i + 1])
    }
    tr = {
        (i, graph.succ[e])
        for i in range(graph.num_ops)
        for e in range(graph.succ_indptr[i], graph.succ_indptr[i + 1])
    }
    assert edges == tr


def test_kind_codes_and_cross_flags():
    schedule = _build(p=4, s=2)
    graph = compiled_graph(schedule)
    code_of = {OpKind.F: KIND_F, OpKind.B: KIND_B, OpKind.W: KIND_W}
    problem = schedule.problem
    for i, op in enumerate(graph.ops):
        assert graph.kind[i] == code_of[op.kind]
    for i in range(graph.num_ops):
        for e in range(graph.pred_indptr[i], graph.pred_indptr[i + 1]):
            dep, op = graph.ops[graph.pred[e]], graph.ops[i]
            assert graph.pred_cross[e] == problem.is_cross_stage(dep, op)


def test_compiled_graph_is_cached_and_invalidates_on_mutation():
    schedule = clone(_build())  # build_schedule's result is shared
    g1 = compiled_graph(schedule)
    assert compiled_graph(schedule) is g1
    # In-place reorder changes the fingerprint and recompiles.
    ops = schedule.programs[0].ops
    ops[0], ops[1] = ops[1], ops[0]
    token = fingerprint(schedule)
    g2 = compiled_graph(schedule)
    assert g2 is not g1
    assert g2.fingerprint == token
    ops[0], ops[1] = ops[1], ops[0]
    g3 = compiled_graph(schedule)
    assert g3 is not g2
    assert g3.fingerprint == g1.fingerprint


def test_compile_rejects_foreign_op():
    schedule = clone(_build(method="dapple", s=1, v=1, g=1))
    schedule.programs[0].ops.append(OpId(OpKind.F, 999, 0, 0))
    with pytest.raises(ScheduleError, match="cannot compile"):
        compiled_graph(schedule)


def test_compile_rejects_duplicate_op():
    schedule = clone(_build(method="dapple", s=1, v=1, g=1))
    schedule.programs[0].ops.append(schedule.programs[0].ops[0])
    with pytest.raises(ScheduleError, match="cannot compile"):
        compiled_graph(schedule)


def test_compile_rejects_misplaced_op():
    schedule = clone(_build(method="dapple", s=1, v=1, g=1))
    moved = schedule.programs[0].ops.pop(0)
    schedule.programs[1].ops.append(moved)
    with pytest.raises(ScheduleError, match="cannot compile"):
        compiled_graph(schedule)


def test_compile_rejects_missing_op():
    schedule = clone(_build(method="dapple", s=1, v=1, g=1))
    schedule.programs[0].ops.pop()
    with pytest.raises(ScheduleError, match="cannot compile"):
        compiled_graph(schedule)


def test_graph_is_slotted():
    graph = compiled_graph(_build())
    assert isinstance(graph, ScheduleGraph)
    with pytest.raises(AttributeError):
        graph.arbitrary_attribute = 1
