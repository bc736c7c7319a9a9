"""Unit tests of the compiled schedule graph IR.

The graph is the shared substrate of the verifier's fast paths and the
event-driven simulator, so these tests pin its contract: dense
stage-major layout, CSR edges that agree exactly with
``PipelineProblem.deps``, content-keyed caching, and compile errors on
structurally broken schedules.
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.analysis.capacity.core import _slot_augmented_preds
from repro.schedules.base import OpId, OpKind, ScheduleError
from repro.schedules.graph import (
    KIND_B,
    KIND_F,
    KIND_W,
    ScheduleGraph,
    boundary_table,
    channel_table,
    compiled_graph,
    fingerprint,
    kahn_order,
    toposort_plan,
)
from repro.schedules.greedy import (
    _bkeys_children,
    _bkeys_fifo,
    _DenseSchedule,
    _fkeys_round_desc,
    _op_hashes,
    _structure_tables,
)
from repro.schedules.methods import build_problem, build_schedule
from repro.schedules.verify import verify_schedule

from tests.test_pipeline_runtime import ALL_METHODS, N
from tests.test_verify import Draft, golden_grid


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
        assert graph.ops[lo:hi] == schedule.programs[stage].ops
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
        # Exact order: the evaluator's critical-path tie-break reads it.
        expect = [index_of[d] for d in problem.deps(op)]
        assert list(graph.preds_of(i)) == expect, op
        succs = list(graph.succ[graph.succ_indptr[i] : graph.succ_indptr[i + 1]])
        assert succs == sorted(succs), op
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


@pytest.mark.parametrize(
    "method,kwargs", ALL_METHODS, ids=[f"{m}-{k}" for m, k in ALL_METHODS]
)
def test_boundary_table_is_the_op_rule(method, kwargs):
    """``fed_by``/``feeds`` are the Section 4.1 rule on ``OpId``s (F
    takes chunk c-1's tensor, B takes chunk c+1's), and the pairs that
    cross stages are exactly :func:`channel_table`'s messages."""
    problem = build_problem(method, 4, N, **kwargs)
    graph = compiled_graph(build_schedule(method, problem))
    fed_by, feeds = boundary_table(graph)
    index_of = {op: i for i, op in enumerate(graph.ops)}
    expect_fed = [-1] * graph.num_ops
    for i, op in enumerate(graph.ops):
        mb, sl, c = op.microbatch, op.slice_idx, op.chunk
        if op.kind is OpKind.F and c > 0:
            expect_fed[i] = index_of[OpId(OpKind.F, mb, sl, c - 1)]
        elif op.kind is OpKind.B and c < problem.num_chunks - 1:
            expect_fed[i] = index_of[OpId(OpKind.B, mb, sl, c + 1)]
    expect_feeds = [-1] * graph.num_ops
    crossing: dict[tuple[int, int, str], list[tuple[int, int]]] = {}
    local = 0
    for i, j in enumerate(expect_fed):
        if j < 0:
            continue
        expect_feeds[j] = i
        src, dst = graph.stage[j], graph.stage[i]
        if src == dst:
            local += 1
        else:
            kind = graph.ops[j].kind.value
            crossing.setdefault((src, dst, kind), []).append((j, i))
    assert list(fed_by) == expect_fed
    assert list(feeds) == expect_feeds
    table = channel_table(graph)
    assert sorted(crossing) == sorted(table)
    for key, channel in table.items():
        assert sorted(crossing[key]) == list(
            zip(channel.src_ops.tolist(), channel.dst_ops.tolist())
        ), key
    if method in ("hanayo", "zbv"):
        # The V turn: two adjacent chunks on one stage, a local tensor.
        assert local > 0


def test_kind_codes_and_cross_flags():
    schedule = _build(p=4, s=2)
    graph = compiled_graph(schedule)
    code_of = {OpKind.F: KIND_F, OpKind.B: KIND_B, OpKind.W: KIND_W}
    problem = schedule.problem
    for i, op in enumerate(graph.ops):
        assert graph.kind[i] == code_of[op.kind]
    cross = {
        e
        for i in range(graph.num_ops)
        for e in range(graph.pred_indptr[i], graph.pred_indptr[i + 1])
        if problem.is_cross_stage(graph.ops[graph.pred[e]], graph.ops[i])
    }
    table = channel_table(graph)
    listed = [e for channel in table.values() for e in channel.edges.tolist()]
    assert sorted(listed) == sorted(cross)
    for (src, dst, kind), (src_ops, dst_ops, edges) in table.items():
        for e, j, i in zip(edges.tolist(), src_ops.tolist(), dst_ops.tolist()):
            assert graph.pred[e] == j
            assert graph.pred_indptr[i] <= e < graph.pred_indptr[i + 1]
            assert (graph.stage[j], graph.stage[i]) == (src, dst)
            assert graph.ops[j].kind.value == kind
        # Slot-claim order: the producer's program order.
        assert sorted(src_ops.tolist()) == src_ops.tolist()


def test_compiled_graph_is_cached_and_invalidates_on_mutation():
    """A schedule is frozen, so it compiles once: an in-place edit
    raises, and an edited copy compiles to its own graph."""
    schedule = _build()
    g1 = compiled_graph(schedule)
    assert compiled_graph(schedule) is g1
    with pytest.raises(FrozenInstanceError):
        schedule.programs = schedule.programs[::-1]
    with pytest.raises(FrozenInstanceError):
        schedule.programs[0].ops = ()
    with pytest.raises(AttributeError):
        schedule.programs[0].ops.reverse()
    # A reordered copy has its own fingerprint and graph.
    draft = Draft(schedule)
    ops = draft.ops[0]
    ops[0], ops[1] = ops[1], ops[0]
    swapped = draft.build()
    g2 = compiled_graph(swapped)
    assert g2 is not g1
    assert compiled_graph(swapped) is g2
    assert g2.fingerprint == fingerprint(swapped) != g1.fingerprint
    # Swapped back, the plain copy hashes as the greedy build's token.
    ops[0], ops[1] = ops[1], ops[0]
    g3 = compiled_graph(draft.build())
    assert g3 is not g1
    assert g3.fingerprint == g1.fingerprint
    assert compiled_graph(schedule) is g1


def test_compile_rejects_foreign_op():
    draft = Draft(_build(method="dapple", s=1, v=1, g=1))
    draft.ops[0].append(OpId(OpKind.F, 999, 0, 0))
    with pytest.raises(ScheduleError, match="cannot compile"):
        compiled_graph(draft.build())


def test_compile_rejects_duplicate_op():
    draft = Draft(_build(method="dapple", s=1, v=1, g=1))
    draft.ops[0].append(draft.ops[0][0])
    with pytest.raises(ScheduleError, match="cannot compile"):
        compiled_graph(draft.build())


def test_compile_rejects_misplaced_op():
    draft = Draft(_build(method="dapple", s=1, v=1, g=1))
    draft.ops[1].append(draft.ops[0].pop(0))
    with pytest.raises(ScheduleError, match="cannot compile"):
        compiled_graph(draft.build())


def test_compile_rejects_missing_op():
    draft = Draft(_build(method="dapple", s=1, v=1, g=1))
    draft.ops[0].pop()
    with pytest.raises(ScheduleError, match="cannot compile"):
        compiled_graph(draft.build())


#: An op outside every test problem, indexed by the first code past
#: the problem's code space.
FOREIGN = OpId(OpKind.F, 999, 0, 0)


def _dense_variant(edit):
    """A fresh greedy-emitted schedule whose code programs ``edit``
    corrupted, and the op the corrupted code stands for."""
    base = _build()
    assert isinstance(base, _DenseSchedule)
    codes = [list(stage) for stage in base._stage_codes]
    code = edit(codes)
    ops = base._build_ops() + [FOREIGN]
    schedule = _DenseSchedule(
        base.problem, base.name, lambda: ops, codes, hash(repr(codes)),
        base.ledger_peak_units, base._start, base._cost,
    )
    return schedule, ops[code]


def _duplicate(codes):
    # Overwrite, so the op count still matches the problem's.
    codes[0][1] = codes[0][0]
    return codes[0][0]


def _drop(codes):
    return codes[0].pop()


def _out_of_range(codes):
    total = sum(map(len, codes))
    codes[0][-1] = total
    return total


def _move(codes):
    moved = codes[0].pop(0)
    codes[1].append(moved)
    return moved


@pytest.mark.parametrize(
    "edit,rule",
    [
        (_duplicate, "ST003"),
        (_drop, "ST002"),
        (_out_of_range, "ST004"),
        (_move, "ST001"),
    ],
    ids=["duplicate", "missing", "out-of-range", "misplaced"],
)
def test_compile_rejects_bad_codes(edit, rule):
    schedule, op = _dense_variant(edit)
    with pytest.raises(ScheduleError, match="cannot compile"):
        compiled_graph(schedule)
    # The detailed pass still itemizes the defect, naming the op.
    assert op in {f.op for f in verify_schedule(schedule).by_rule(rule)}


def test_graph_is_slotted():
    graph = compiled_graph(_build())
    assert isinstance(graph, ScheduleGraph)
    with pytest.raises(AttributeError):
        graph.arbitrary_attribute = 1


# ----------------------------------------------------------------------
# Representation: every table is one read-only int64 buffer
# ----------------------------------------------------------------------
TABLES = (
    "kind", "cell", "gemm", "stage", "pos",
    "pred_indptr", "pred", "succ_indptr", "succ",
)


@pytest.fixture(params=["mepipe", "dapple"], ids=["greedy", "explicit"])
def graph(request):
    schedule = _build(method=request.param, s=2 if request.param == "mepipe" else 1)
    assert isinstance(schedule, _DenseSchedule) == (request.param == "mepipe")
    return compiled_graph(schedule)


def _buffers(graph):
    return [getattr(graph, name) for name in TABLES] + [toposort_plan(graph).order]


def test_tables_are_compact_read_only_int64(graph):
    for table in _buffers(graph):
        assert isinstance(table, memoryview)
        assert table.readonly
        assert np.asarray(table).dtype == np.int64
        assert table.nbytes == 8 * len(table)
        assert isinstance(table[0], int)
    assert len(toposort_plan(graph).order) == graph.num_ops


def test_writing_a_table_raises(graph):
    for table in _buffers(graph):
        with pytest.raises(TypeError):
            table[0] = 1
        # The slot-edge splice's in-place shift, aimed at the table itself.
        with pytest.raises(ValueError):
            np.asarray(table)[1:] += 1
    assert graph.pred_indptr[-1] == len(graph.pred)


def test_numpy_views_share_the_table(graph):
    for table in _buffers(graph):
        assert np.shares_memory(np.asarray(table), np.asarray(table))


def test_edge_augmenting_walks_leave_the_tables_byte_equal(graph):
    before = [table.tobytes() for table in _buffers(graph)]
    last = graph.num_ops - 1
    edges = [(0, last, (0, 1, "F")), (1, last, (0, 1, "F")), (2, 3, (0, 1, "F"))]
    kahn_order(graph, edges)
    _slot_augmented_preds(graph, np.zeros(len(graph.pred)), edges)
    assert [table.tobytes() for table in _buffers(graph)] == before


def test_generator_tables_are_read_only_int64():
    schedule = _build()
    problem = schedule.problem
    memos = [
        *_structure_tables(problem),
        _fkeys_round_desc(problem),
        _bkeys_children(problem),
        _bkeys_fifo(problem),
        _op_hashes(
            problem.num_microbatches, problem.num_slices, problem.num_chunks,
            problem.split_backward, problem.wgrad_gemms,
        ),
        *schedule._stage_codes,
    ]
    for table in memos:
        assert isinstance(table, memoryview) and table.readonly
        assert np.asarray(table).dtype == np.int64
