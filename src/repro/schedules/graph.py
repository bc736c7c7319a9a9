"""Compiled schedule graph IR.

A :class:`ScheduleGraph` is the dense, integer-indexed form of a
:class:`~repro.schedules.base.Schedule`: every op becomes one index in
``[0, num_ops)``, laid out stage-major in program order, with
CSR-style predecessor/successor arrays over the Section 4.1 dependency
edges and per-op ``kind``/``cell``/``stage``/``pos`` tables.  The
verifier's deadlock, channel, and liveness analyses and the simulator's
event-driven replay all walk these flat arrays instead of re-deriving
``PipelineProblem.deps`` (which allocates fresh ``OpId`` objects) per
probe.

Contract:

* The graph compiles only from *structurally clean* schedules — one
  program per stage in order, every op of the problem exactly once, on
  its home stage.  Anything else raises ``ScheduleError``; diagnosing
  malformed schedules stays with the legacy dict-of-``OpId`` walks in
  :mod:`repro.schedules.verify`, which produce the full witness output.
* Ops are numbered stage-major: ``stage_bounds[s] = (lo, hi)`` and the
  ops of stage ``s`` occupy ``[lo, hi)`` in program order, so the
  implicit program-order edge of op ``i`` (when ``pos[i] > 0``) is
  ``i - 1 -> i``.
* ``pred_indptr``/``pred`` list each op's dependency predecessors in
  the exact order ``PipelineProblem.deps`` returns them;
  ``pred_cross[e]`` flags edges that cross a stage boundary.
  ``succ_indptr``/``succ`` is the transpose.
* ``cell[i]`` is the canonical ``(mb * s + sl) * chunks + c`` index of
  op ``i``'s (micro-batch, slice, chunk) coordinate — the key the
  liveness ledger shares between an F op and its B/W counterparts.
* Graphs are cached on the schedule object keyed by the same content
  fingerprint the verifier uses, so one (schedule, analysis) lifetime
  compiles exactly once; mutating a program invalidates the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.schedules.base import (
    OpId,
    OpKind,
    PipelineProblem,
    Schedule,
    ScheduleError,
)

#: Integer op kinds used in :attr:`ScheduleGraph.kind` (array-friendly
#: stand-ins for the :class:`OpKind` enum).
KIND_F: int = 0
KIND_B: int = 1
KIND_W: int = 2


class ScheduleGraph:
    """Dense compiled form of one schedule (see module docstring)."""

    __slots__ = (
        "problem",
        "fingerprint",
        "_ops",
        "_ops_factory",
        "kind",
        "cell",
        "gemm",
        "stage",
        "pos",
        "stage_bounds",
        "pred_indptr",
        "pred",
        "pred_cross",
        "succ_indptr",
        "succ",
        "_dense_plan",
        "_capacity_tables",
    )

    def __init__(
        self,
        problem: PipelineProblem,
        fingerprint: int,
        ops: tuple[OpId, ...] | None,
        kind: tuple[int, ...],
        cell: tuple[int, ...],
        gemm: tuple[int, ...],
        stage: tuple[int, ...],
        pos: tuple[int, ...],
        stage_bounds: tuple[tuple[int, int], ...],
        pred_indptr: tuple[int, ...],
        pred: tuple[int, ...],
        pred_cross: tuple[bool, ...],
        succ_indptr: tuple[int, ...],
        succ: tuple[int, ...],
        ops_factory: Callable[[], tuple[OpId, ...]] | None = None,
    ) -> None:
        if ops is None and ops_factory is None:
            raise ValueError("ScheduleGraph needs ops or an ops_factory")
        self.problem = problem
        self.fingerprint = fingerprint
        self._ops = ops
        self._ops_factory = ops_factory
        self.kind = kind
        self.cell = cell
        self.gemm = gemm
        self.stage = stage
        self.pos = pos
        self.stage_bounds = stage_bounds
        self.pred_indptr = pred_indptr
        self.pred = pred
        self.pred_cross = pred_cross
        self.succ_indptr = succ_indptr
        self.succ = succ
        # Cost-independent topological plan, built on first use by
        # toposort_plan (order + height depend only on the graph, never
        # on the cost model).
        self._dense_plan: TopoPlan | None = None
        # Channel messages + minimal deadlock-free capacities, lazily
        # built and cached by repro.analysis.capacity (also purely
        # structural — cost models only affect backpressure analysis).
        self._capacity_tables: object | None = None

    @property
    def ops(self) -> tuple[OpId, ...]:
        """``OpId`` of each dense index.

        Graphs emitted directly by the greedy engine build this tuple
        lazily — the integer tables carry all structure, and many
        consumers (fingerprint checks, bounds evaluation) never touch
        the ``OpId`` objects at all.
        """
        materialized = self._ops
        if materialized is None:
            factory = self._ops_factory
            assert factory is not None  # enforced in __init__
            materialized = self._ops = factory()
        return materialized

    @property
    def num_ops(self) -> int:
        """Total ops in the compiled schedule."""
        return len(self.kind)

    def op_at(self, i: int) -> OpId:
        """The ``OpId`` of dense index ``i``.

        Decoded from the integer tables (``cell = (mb*s + sl)*chunks +
        c``) when the full ops tuple is not already materialized —
        field-for-field equal to ``self.ops[i]`` — so diagnostic paths
        that name a handful of ops do not force the whole tuple.
        """
        materialized = self._ops
        if materialized is not None:
            return materialized[i]
        problem = self.problem
        chunks = problem.num_chunks
        s = problem.num_slices
        kc, ce = self.kind[i], self.cell[i]
        kind = OpKind.F if kc == KIND_F else OpKind.W if kc == KIND_W else OpKind.B
        return OpId(
            kind,
            ce // (chunks * s),
            (ce // chunks) % s,
            ce % chunks,
            self.gemm[i],
        )

    def preds_of(self, i: int) -> tuple[int, ...]:
        """Dependency predecessors of op ``i`` (dense indices)."""
        return self.pred[self.pred_indptr[i] : self.pred_indptr[i + 1]]

    def succs_of(self, i: int) -> tuple[int, ...]:
        """Dependency successors of op ``i`` (dense indices)."""
        return self.succ[self.succ_indptr[i] : self.succ_indptr[i + 1]]


def fingerprint(schedule: Schedule) -> int:
    """Cheap content hash of the per-stage op orders.

    Hashing every op is ~two orders of magnitude cheaper than
    re-verifying or re-compiling, and unlike an op count it also
    invalidates cached verdicts/graphs when a schedule is reordered in
    place.  Shared by :func:`compiled_graph` and the verifier's verdict
    cache so both invalidate together.  Hashes the ops' precomputed
    ``_hash`` values directly — same collision behavior as hashing the
    ``OpId`` tuples (tuple hashing combines element hashes either way)
    without a Python-level ``__hash__`` call per op.

    Dense-emitted schedules (the greedy engine's ``_DenseSchedule``)
    carry the token precomputed at generation under ``_dense_token``;
    while their ``OpId`` programs are still unmaterialized nothing
    observable could have been mutated, so the token *is* the content
    hash and the per-op walk is skipped.  The moment ``programs`` is
    materialized (or replaced) the fast path disarms and in-place
    mutation invalidates caches exactly as before.
    """
    token: int | None = getattr(schedule, "_dense_token", None)
    if token is not None and getattr(schedule, "_programs", None) is None:
        return token
    return hash(
        tuple(
            (program.stage, tuple(op._hash for op in program.ops))
            for program in schedule.programs
        )
    )


def compiled_graph(schedule: Schedule) -> ScheduleGraph:
    """The compiled graph of ``schedule``, cached by content fingerprint."""
    token = fingerprint(schedule)
    cached: tuple[int, ScheduleGraph] | None = getattr(
        schedule, "_graph_cache", None
    )
    if cached is not None and cached[0] == token:
        return cached[1]
    graph = _compile(schedule, token)
    schedule._graph_cache = (token, graph)  # type: ignore[attr-defined]
    return graph


@dataclass(frozen=True)
class TopoPlan:
    """Cost-independent topological plan of one compiled graph.

    ``order`` is a topological order of the op indices (dependency and
    program-order edges, Kahn wavefront by wavefront); ``levels`` is the
    dependency height (the number of wavefronts).  One plan serves every
    structural consumer — the verifier's deadlock verdict (the plan
    exists iff the combined edge relation is acyclic), the analytic
    evaluator's replay order, the capacity ledger's op ranks — so the
    Kahn pass over a graph runs at most once.
    """

    order: list[int]
    levels: int


def build_topo_plan(graph: ScheduleGraph) -> TopoPlan:
    """Kahn's algorithm over dependency + program-order edges.

    Raises :class:`ScheduleError` if the combined edge relation has a
    cycle (the frontier stalls before covering every op) — the same
    deadlock the simulator's engines detect.
    """
    num_ops = graph.num_ops
    pred_indptr = graph.pred_indptr
    succ_indptr, succ = graph.succ_indptr, graph.succ
    pos = graph.pos
    indeg = [
        pred_indptr[i + 1] - pred_indptr[i] + (1 if pos[i] > 0 else 0)
        for i in range(num_ops)
    ]
    frontier = [i for i in range(num_ops) if indeg[i] == 0]
    order: list[int] = []
    levels = 0
    while frontier:
        levels += 1
        order.extend(frontier)
        nxt: list[int] = []
        for i in frontier:
            for e in range(succ_indptr[i], succ_indptr[i + 1]):
                j = succ[e]
                indeg[j] -= 1
                if indeg[j] == 0:
                    nxt.append(j)
            j = i + 1
            if j < num_ops and pos[j] > 0:
                indeg[j] -= 1
                if indeg[j] == 0:
                    nxt.append(j)
        frontier = nxt
    if len(order) != num_ops:
        stuck = [str(graph.ops[i]) for i in range(num_ops) if indeg[i] > 0][:8]
        raise ScheduleError(f"evaluation deadlock; blocked ops: {stuck}")
    return TopoPlan(order=order, levels=levels)


def toposort_plan(graph: ScheduleGraph) -> TopoPlan:
    """The graph's topological plan, built on first use and cached on
    the graph (it depends only on structure, never on a cost model)."""
    plan = graph._dense_plan
    if plan is None:
        plan = graph._dense_plan = build_topo_plan(graph)
    return plan


def _compile(schedule: Schedule, token: int) -> ScheduleGraph:
    problem = schedule.problem
    p = problem.num_stages
    if [program.stage for program in schedule.programs] != list(range(p)):
        raise ScheduleError(
            f"cannot compile {schedule.name!r}: expected one program per "
            f"stage in order 0..{p - 1}"
        )

    n, s = problem.num_microbatches, problem.num_slices
    chunks = problem.num_chunks
    split = problem.split_backward
    gemms = problem.wgrad_gemms
    cells = n * s * chunks
    # Canonical op codes: F -> cell, B -> cells + cell,
    # W(g) -> 2*cells + cell*gemms + g.
    total = cells * 2 + (cells * gemms if split else 0)
    stage_of_chunk = problem._placement_tables[0]

    dense_of = [-1] * total
    ops: list[OpId] = []
    kind_arr: list[int] = []
    cell_arr: list[int] = []
    gemm_arr: list[int] = []
    stage_arr: list[int] = []
    pos_arr: list[int] = []
    code_arr: list[int] = []
    stage_bounds: list[tuple[int, int]] = []

    for program in schedule.programs:
        lo = len(ops)
        for idx, op in enumerate(program.ops):
            mb, sl, c, g = op.microbatch, op.slice_idx, op.chunk, op.gemm
            if not (0 <= mb < n and 0 <= sl < s and 0 <= c < chunks):
                raise ScheduleError(
                    f"cannot compile {schedule.name!r}: op {op} is not "
                    f"part of the problem"
                )
            base = (mb * s + sl) * chunks + c
            if op.kind is OpKind.F:
                ok, code, kc = g == -1, base, KIND_F
            elif op.kind is OpKind.B:
                ok, code, kc = g == -1, cells + base, KIND_B
            else:
                ok = split and 0 <= g < gemms
                code, kc = 2 * cells + base * gemms + g, KIND_W
            if not ok:
                raise ScheduleError(
                    f"cannot compile {schedule.name!r}: op {op} is not "
                    f"part of the problem"
                )
            if dense_of[code] != -1:
                raise ScheduleError(
                    f"cannot compile {schedule.name!r}: duplicate op {op}"
                )
            if stage_of_chunk[c] != program.stage:
                raise ScheduleError(
                    f"cannot compile {schedule.name!r}: op {op} scheduled "
                    f"on stage {program.stage}, belongs to stage "
                    f"{stage_of_chunk[c]}"
                )
            dense_of[code] = len(ops)
            ops.append(op)
            kind_arr.append(kc)
            cell_arr.append(base)
            gemm_arr.append(g)
            stage_arr.append(program.stage)
            pos_arr.append(idx)
            code_arr.append(code)
        stage_bounds.append((lo, len(ops)))

    if len(ops) != total:
        raise ScheduleError(
            f"cannot compile {schedule.name!r}: {total - len(ops)} op(s) "
            f"missing from the schedule"
        )

    return _finish(
        problem, token, ops, kind_arr, cell_arr, gemm_arr, stage_arr,
        pos_arr, stage_bounds, dense_of, cells, chunks, s,
    )


def graph_from_codes(
    problem: PipelineProblem,
    stage_codes: list[list[int]],
    token: int,
    ops_factory: Callable[[], tuple[OpId, ...]],
) -> ScheduleGraph:
    """Compile directly from a generator's dense code tables.

    ``stage_codes[k]`` is stage ``k``'s program as canonical op codes.
    The caller (the array-native greedy engine, which schedules every
    code of the problem exactly once on its home stage) guarantees
    structural cleanliness, so :func:`_compile`'s validation — and the
    per-``OpId`` attribute walk it validates with — is skipped: every
    table derives from code arithmetic, vectorized, and the ``OpId``
    tuple itself is built lazily by ``ops_factory`` (which must return
    the ops in dense = stage-major program order).  The emitted tables
    are identical to compiling the materialized schedule, asserted by
    ``tests/test_greedy_golden.py``.
    """
    import numpy as np

    n, s = problem.num_microbatches, problem.num_slices
    chunks = problem.num_chunks
    gemms = problem.wgrad_gemms
    cells = n * s * chunks
    counts = [len(codes) for codes in stage_codes]
    total = sum(counts)

    code = np.concatenate(
        [np.asarray(codes, dtype=np.int64) for codes in stage_codes]
    )
    is_f = code < cells
    is_b = ~is_f & (code < 2 * cells)
    is_w = ~is_f & ~is_b
    wrem = code - 2 * cells
    kind = np.where(is_f, KIND_F, np.where(is_b, KIND_B, KIND_W))
    cell = np.where(is_f, code, np.where(is_b, code - cells, wrem // gemms))
    gemm = np.where(is_w, wrem % gemms, -1)
    stage = np.repeat(np.arange(len(stage_codes), dtype=np.int64), counts)
    pos = np.concatenate([np.arange(k, dtype=np.int64) for k in counts])
    dense_of = np.empty(total, dtype=np.int64)
    dense_of[code] = np.arange(total, dtype=np.int64)
    hi = np.cumsum(np.asarray(counts, dtype=np.int64))
    stage_bounds = tuple(zip((hi - counts).tolist(), hi.tolist()))

    # Dependency edges.  Each op has at most three predecessors; slot
    # order per kind reproduces ``PipelineProblem.deps`` order, and
    # row-major flattening keeps edges grouped by op in that order.
    c = cell % chunks
    sl = cell // chunks % s
    slots = np.full((total, 3), -1, dtype=np.int64)
    m = is_f & (c > 0)
    slots[m, 0] = cell[m] - 1
    m = is_f & (sl > 0)
    slots[m, 1] = cell[m] - chunks
    slots[is_b, 0] = cell[is_b]
    m = is_b & (c < chunks - 1)
    slots[m, 1] = cells + cell[m] + 1
    m = is_b & (sl < s - 1)
    slots[m, 2] = cells + cell[m] + chunks
    slots[is_w, 0] = cells + cell[is_w]

    flat = slots.ravel()
    active = flat >= 0
    pred_dense = dense_of[flat[active]]
    edge_src = np.repeat(np.arange(total, dtype=np.int64), 3)[active]
    pred_cross = stage[pred_dense] != stage[edge_src]
    pred_indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(slots >= 0, axis=1), out=pred_indptr[1:])

    # Successors = the transpose: stable sort of edges by target keeps
    # the source order ascending within each group, matching
    # ``_finish``'s ``succ_lists[j].append(i)`` with ``i`` ascending.
    order = np.argsort(pred_dense, kind="stable")
    succ = edge_src[order]
    succ_indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(pred_dense, minlength=total), out=succ_indptr[1:])

    return ScheduleGraph(
        problem=problem,
        fingerprint=token,
        ops=None,
        kind=tuple(kind.tolist()),
        cell=tuple(cell.tolist()),
        gemm=tuple(gemm.tolist()),
        stage=tuple(stage.tolist()),
        pos=tuple(pos.tolist()),
        stage_bounds=stage_bounds,
        pred_indptr=tuple(pred_indptr.tolist()),
        pred=tuple(pred_dense.tolist()),
        pred_cross=tuple(pred_cross.tolist()),
        succ_indptr=tuple(succ_indptr.tolist()),
        succ=tuple(succ.tolist()),
        ops_factory=ops_factory,
    )


def _finish(
    problem: PipelineProblem,
    token: int,
    ops: list[OpId],
    kind_arr: list[int],
    cell_arr: list[int],
    gemm_arr: list[int],
    stage_arr: list[int],
    pos_arr: list[int],
    stage_bounds: list[tuple[int, int]],
    dense_of: list[int],
    cells: int,
    chunks: int,
    s: int,
) -> ScheduleGraph:
    """Edge tables + assembly shared by :func:`_compile` and
    :func:`graph_from_codes` (predecessor order matches
    ``PipelineProblem.deps``; successors are its transpose)."""
    num_ops = len(ops)
    pred_indptr: list[int] = [0]
    pred_list: list[int] = []
    cross_list: list[bool] = []
    succ_lists: list[list[int]] = [[] for _ in range(num_ops)]
    for i in range(num_ops):
        kc = kind_arr[i]
        base = cell_arr[i]
        c = base % chunks
        sl = (base // chunks) % s
        dep_codes: list[int] = []
        if kc == KIND_F:
            if c > 0:
                dep_codes.append(base - 1)
            if sl > 0:
                dep_codes.append(base - chunks)
        elif kc == KIND_B:
            dep_codes.append(base)
            if c < chunks - 1:
                dep_codes.append(cells + base + 1)
            if sl < s - 1:
                dep_codes.append(cells + base + chunks)
        else:
            dep_codes.append(cells + base)
        st = stage_arr[i]
        for code in dep_codes:
            j = dense_of[code]
            pred_list.append(j)
            cross_list.append(stage_arr[j] != st)
            succ_lists[j].append(i)
        pred_indptr.append(len(pred_list))

    succ_indptr: list[int] = [0]
    succ_list: list[int] = []
    for js in succ_lists:
        succ_list.extend(js)
        succ_indptr.append(len(succ_list))

    return ScheduleGraph(
        problem=problem,
        fingerprint=token,
        ops=tuple(ops),
        kind=tuple(kind_arr),
        cell=tuple(cell_arr),
        gemm=tuple(gemm_arr),
        stage=tuple(stage_arr),
        pos=tuple(pos_arr),
        stage_bounds=tuple(stage_bounds),
        pred_indptr=tuple(pred_indptr),
        pred=tuple(pred_list),
        pred_cross=tuple(cross_list),
        succ_indptr=tuple(succ_indptr),
        succ=tuple(succ_list),
    )
