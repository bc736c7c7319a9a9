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

* One compiler: a schedule's programs are encoded to canonical op codes
  (a greedy emission already holds them), and :func:`graph_from_codes`
  builds every table from the codes.  It compiles only *structurally
  clean* schedules — one program per stage in order, every op of the
  problem exactly once, on its home stage.  Anything else raises
  ``ScheduleError("cannot compile ...")``, so a successful compile is
  the verifier's structure verdict; itemizing what is wrong with a
  malformed schedule stays with the ``OpId`` walks in
  :mod:`repro.schedules.verify`, which produce the full witness output.
* Ops are numbered stage-major: ``stage_bounds[s] = (lo, hi)`` and the
  ops of stage ``s`` occupy ``[lo, hi)`` in program order, so the
  implicit program-order edge of op ``i`` (when ``pos[i] > 0``) is
  ``i - 1 -> i``.
* ``pred_indptr``/``pred`` list each op's dependency predecessors in
  the exact order ``PipelineProblem.deps`` returns them;
  ``succ_indptr``/``succ`` is the transpose.
* Cross-stage traffic is worked out here once: :func:`channel_table`
  groups the dependency edges whose endpoints sit on different stages
  into channels, each in slot-claim order, and the FIFO lint, the
  capacity analyzer and the network replay all read it.
* ``cell[i]`` is the canonical ``(mb * s + sl) * chunks + c`` index of
  op ``i``'s (micro-batch, slice, chunk) coordinate — the key the
  liveness ledger shares between an F op and its B/W counterparts.
* Every per-op and CSR table, and the topological plan's ``order``, is
  one read-only int64 buffer (:func:`int64_table`): indexing yields
  Python ints, so scalar loops and diagnostics read it like a tuple,
  and ``np.asarray`` of it is a zero-copy view, so vector consumers
  convert nothing.  A consumer that edits a table copies it first
  (``np.array``); a write through a view raises ``ValueError``.
* Graphs are cached on the schedule object keyed by the same content
  fingerprint the verifier uses, so one (schedule, analysis) lifetime
  compiles exactly once; mutating a program invalidates the cache.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

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
_KIND_CHARS = ("F", "B", "W")

#: A channel's identity: ``(src stage, dst stage, kind)``, ``kind`` one
#: of ``"F"``/``"B"``/``"W"``.
ChannelId = tuple[int, int, str]

if TYPE_CHECKING:
    import numpy as np
    import numpy.typing as npt

    IntArray = npt.NDArray[np.int64]


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
        "succ_indptr",
        "succ",
        "_dense_plan",
        "_channel_table",
        "_capacity_tables",
    )

    def __init__(
        self,
        problem: PipelineProblem,
        fingerprint: int,
        kind: memoryview,
        cell: memoryview,
        gemm: memoryview,
        stage: memoryview,
        pos: memoryview,
        stage_bounds: tuple[tuple[int, int], ...],
        pred_indptr: memoryview,
        pred: memoryview,
        succ_indptr: memoryview,
        succ: memoryview,
        ops_factory: Callable[[], tuple[OpId, ...]],
    ) -> None:
        self.problem = problem
        self.fingerprint = fingerprint
        self._ops: tuple[OpId, ...] | None = None
        self._ops_factory = ops_factory
        self.kind = kind
        self.cell = cell
        self.gemm = gemm
        self.stage = stage
        self.pos = pos
        self.stage_bounds = stage_bounds
        self.pred_indptr = pred_indptr
        self.pred = pred
        self.succ_indptr = succ_indptr
        self.succ = succ
        # Cost-independent topological plan, built on first use by
        # toposort_plan (order + height depend only on the graph, never
        # on the cost model).
        self._dense_plan: TopoPlan | None = None
        # Cross-stage messages by channel, built on first use by
        # channel_table (structural, like the plan).
        self._channel_table: dict[ChannelId, Channel] | None = None
        # Occupancy peaks + minimal deadlock-free capacities, lazily
        # built and cached by repro.analysis.capacity (also purely
        # structural — cost models only affect backpressure analysis).
        self._capacity_tables: object | None = None

    @property
    def ops(self) -> tuple[OpId, ...]:
        """``OpId`` of each dense index, built on first use by the
        compiler's ``ops_factory`` — the integer tables carry all
        structure, and many consumers (fingerprint checks, bounds
        evaluation) never touch the ``OpId`` objects at all.
        """
        materialized = self._ops
        if materialized is None:
            materialized = self._ops = self._ops_factory()
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
        return _decode(self.problem, self.kind[i], self.cell[i], self.gemm[i])

    def preds_of(self, i: int) -> memoryview:
        """Dependency predecessors of op ``i`` (dense indices), a
        zero-copy slice of ``pred``."""
        return self.pred[self.pred_indptr[i] : self.pred_indptr[i + 1]]


def int64_table(values: npt.ArrayLike) -> memoryview:
    """``values`` (an array or a sequence of ints) as one read-only
    int64 buffer: 8 bytes an entry, indexing yields Python ints, and
    ``np.asarray`` of it is a zero-copy view that refuses writes."""
    import numpy as np

    table = np.ascontiguousarray(values, dtype=np.int64)
    table.flags.writeable = False
    return memoryview(table)


def _decode(problem: PipelineProblem, kc: int, ce: int, g: int) -> OpId:
    """The ``OpId`` of kind code ``kc``, cell ``ce`` and gemm ``g``."""
    chunks, s = problem.num_chunks, problem.num_slices
    kind = OpKind.F if kc == KIND_F else OpKind.W if kc == KIND_W else OpKind.B
    return OpId(kind, ce // (chunks * s), (ce // chunks) % s, ce % chunks, g)


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
    program-order edges, Kahn wavefront by wavefront), a read-only int64
    buffer like the graph's tables; ``levels`` is the
    dependency height (the number of wavefronts).  One plan serves every
    structural consumer — the verifier's deadlock verdict (the plan
    exists iff the combined edge relation is acyclic), the analytic
    evaluator's replay order, the capacity ledger's op ranks — so the
    Kahn pass over a graph runs at most once.  The same
    :func:`kahn_order` also walks the capacity analyzer's slot-augmented
    graphs, and the plan's neighbour :func:`channel_table` holds the
    cross-stage messages those slot edges are drawn from.
    """

    order: memoryview
    levels: int


def kahn_order(
    graph: ScheduleGraph, extra: Sequence[tuple[int, ...]] = ()
) -> tuple[list[int], int, list[int]]:
    """Kahn's algorithm over dependency + program-order edges, plus the
    ``extra`` edges (``(tail, head, ...)``; later fields are ignored).

    Returns ``(order, levels, residual)``: the ops in wavefront order,
    the number of wavefronts, and the ops the frontier never reached in
    ascending index order — non-empty iff the combined edge relation
    has a cycle.
    """
    import numpy as np

    num_ops = graph.num_ops
    succ_indptr: Sequence[int] = graph.succ_indptr
    succ: Sequence[int] = graph.succ
    pos = graph.pos
    indeg: list[int] = (
        np.diff(np.asarray(graph.pred_indptr)) + (np.asarray(pos) > 0)
    ).tolist()
    if extra:
        # Each extra edge joins the end of its tail's successor run, so
        # the wavefront loop below stays the plain one.  Sorted by tail
        # first: consecutive empty runs share one insertion point.
        tails = np.fromiter((e[0] for e in extra), np.int64, count=len(extra))
        heads = np.fromiter((e[1] for e in extra), np.int64, count=len(extra))
        by_tail = np.argsort(tails, kind="stable")
        tails, heads = tails[by_tail], heads[by_tail]
        indptr = np.array(succ_indptr)  # a copy: the graph's is read-only
        at = indptr[tails + 1]
        indptr[1:] += np.cumsum(np.bincount(tails, minlength=num_ops))
        succ_indptr = indptr.tolist()
        succ = np.insert(np.asarray(succ), at, heads).tolist()
        for j in heads.tolist():
            indeg[j] += 1
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
    residual = (
        [i for i in range(num_ops) if indeg[i] > 0]
        if len(order) != num_ops
        else []
    )
    return order, levels, residual


def build_topo_plan(graph: ScheduleGraph) -> TopoPlan:
    """The graph's :class:`TopoPlan`, by :func:`kahn_order`.

    Raises :class:`ScheduleError` if the combined edge relation has a
    cycle (the frontier stalls before covering every op) — the same
    deadlock the simulator's engines detect.
    """
    order, levels, residual = kahn_order(graph)
    if residual:
        stuck = [str(graph.ops[i]) for i in residual[:8]]
        raise ScheduleError(f"evaluation deadlock; blocked ops: {stuck}")
    return TopoPlan(order=int64_table(order), levels=levels)


def toposort_plan(graph: ScheduleGraph) -> TopoPlan:
    """The graph's topological plan, built on first use and cached on
    the graph (it depends only on structure, never on a cost model)."""
    plan = graph._dense_plan
    if plan is None:
        plan = graph._dense_plan = build_topo_plan(graph)
    return plan


class Channel(NamedTuple):
    """One channel's messages, in the order they claim ring slots."""

    src_ops: IntArray  #: producers (the sends), ascending program position
    dst_ops: IntArray  #: the consumer of each message (the receives)
    edges: IntArray  #: each message's dependency edge, an index into ``pred``


def channel_table(graph: ScheduleGraph) -> dict[ChannelId, Channel]:
    """Every cross-stage message of ``graph``, grouped by channel.

    A dependency edge whose producer and consumer sit on different
    stages is one message on channel ``(src stage, dst stage, kind)``,
    ``kind`` the producer's ``"F"``/``"B"``/``"W"``: forward activations
    and backward gradients travel on separate channels, as in the
    runtime's rings and the FIFO lint.  A channel's messages are listed
    in the producer's program order, the order its sends claim slots;
    channels come in ``(src, dst, kind code)`` order.  Built on first use
    and cached on the graph, like :func:`toposort_plan`; the FIFO lint,
    the capacity analyzer and the network replay all read this one
    table.
    """
    table = graph._channel_table
    if table is None:
        table = graph._channel_table = _build_channel_table(graph)
    return table


def _build_channel_table(graph: ScheduleGraph) -> dict[ChannelId, Channel]:
    """One sort of the cross-stage edges by channel, then by producer
    index (program order: a channel's producers share one stage), split
    at channel boundaries."""
    import numpy as np

    num_ops = graph.num_ops
    pred, stage, kind = map(np.asarray, (graph.pred, graph.stage, graph.kind))
    heads = np.repeat(
        np.arange(num_ops, dtype=np.int64), np.diff(np.asarray(graph.pred_indptr))
    )
    edges = np.flatnonzero(stage[pred] != stage[heads])
    srcs, dsts = pred[edges], heads[edges]
    chan = (stage[srcs] * graph.problem.num_stages + stage[dsts]) * 3 + kind[srcs]
    order = np.argsort(chan * num_ops + srcs)
    edges, srcs, dsts, chan = edges[order], srcs[order], dsts[order], chan[order]
    bounds = [0, *(np.flatnonzero(np.diff(chan)) + 1).tolist(), int(srcs.size)]
    table: dict[ChannelId, Channel] = {}
    for b, e in zip(bounds[:-1], bounds[1:]):
        if e > b:  # no cross-stage edge at all leaves one empty run
            j, i = int(srcs[b]), int(dsts[b])
            key = (int(stage[j]), int(stage[i]), _KIND_CHARS[int(kind[j])])
            table[key] = Channel(srcs[b:e], dsts[b:e], edges[b:e])
    return table


def _compile(schedule: Schedule, token: int) -> ScheduleGraph:
    """Lower ``schedule`` to canonical op codes, then to its graph.

    A dense-emitted schedule (the greedy engine's) whose ``OpId``
    programs are still unmaterialized hands over its per-stage codes
    as they are, and its ``OpId`` tuple is built only on demand.  Any
    other schedule is encoded here in one pass over its programs; the
    graph's ``ops`` is the tuple of ops snapshotted by that pass, so a
    later in-place edit of a program never shows through.
    """
    problem = schedule.problem
    emitted = getattr(schedule, "_stage_codes", None)
    if emitted is not None and getattr(schedule, "_programs", 0) is None:
        build_ops = schedule._build_ops  # type: ignore[attr-defined]

        def ops_factory() -> tuple[OpId, ...]:
            ops = build_ops()
            return tuple(ops[code] for codes in emitted for code in codes)

        return graph_from_codes(problem, emitted, token, ops_factory, schedule.name)
    stage_codes, snapshot = _encode(schedule)
    return graph_from_codes(
        problem, stage_codes, token, lambda: snapshot, schedule.name
    )


def _encode(schedule: Schedule) -> tuple[list[list[int]], tuple[OpId, ...]]:
    """Per-stage canonical codes of ``schedule``'s programs, plus the
    ops in dense (stage-major program) order.

    Codes: ``F -> cell``, ``B -> cells + cell``, ``W(g) -> 2*cells +
    cell*gemms + g``.  Raises ``ScheduleError`` on programs out of stage
    order and on any op the canonical code space does not hold.
    """
    problem = schedule.problem
    p = problem.num_stages
    programs = schedule.programs
    if [program.stage for program in programs] != list(range(p)):
        raise ScheduleError(
            f"cannot compile {schedule.name!r}: expected one program per "
            f"stage in order 0..{p - 1}"
        )
    n, s = problem.num_microbatches, problem.num_slices
    chunks = problem.num_chunks
    split = problem.split_backward
    gemms = problem.wgrad_gemms
    cells = n * s * chunks
    stage_codes: list[list[int]] = []
    for program in programs:
        codes: list[int] = []
        for op in program.ops:
            mb, sl, c, g = op.microbatch, op.slice_idx, op.chunk, op.gemm
            base = (mb * s + sl) * chunks + c
            kind = op.kind
            if kind is OpKind.F:
                ok, code = g == -1, base
            elif kind is OpKind.B:
                ok, code = g == -1, cells + base
            else:
                ok = split and 0 <= g < gemms
                code = 2 * cells + base * gemms + g
            if not (ok and 0 <= mb < n and 0 <= sl < s and 0 <= c < chunks):
                raise ScheduleError(
                    f"cannot compile {schedule.name!r}: op {op} is not "
                    f"part of the problem"
                )
            codes.append(code)
        stage_codes.append(codes)
    snapshot = tuple(op for program in programs for op in program.ops)
    return stage_codes, snapshot


def graph_from_codes(
    problem: PipelineProblem,
    stage_codes: Sequence[Sequence[int]],
    token: int,
    ops_factory: Callable[[], tuple[OpId, ...]],
    name: str,
) -> ScheduleGraph:
    """Compile per-stage canonical op codes into a :class:`ScheduleGraph`.

    ``stage_codes[k]`` is stage ``k``'s program as codes (see
    :func:`_encode`); ``ops_factory`` must return the ops in dense =
    stage-major program order.  The codes must hold every op of the
    problem exactly once, on its home stage: a code out of range, a
    duplicate, a missing code or an op on the wrong stage raises
    ``ScheduleError("cannot compile ...")``, so a successful compile
    is the structure verdict.  Every table derives from code
    arithmetic, vectorized.
    """
    import numpy as np

    p = problem.num_stages
    if len(stage_codes) != p:
        raise ScheduleError(
            f"cannot compile {name!r}: expected one program per stage in "
            f"order 0..{p - 1}"
        )
    n, s = problem.num_microbatches, problem.num_slices
    chunks = problem.num_chunks
    gemms = problem.wgrad_gemms
    cells = n * s * chunks
    total = cells * 2 + (cells * gemms if problem.split_backward else 0)
    counts = [len(codes) for codes in stage_codes]
    num_ops = sum(counts)

    code = np.concatenate(
        [np.asarray(codes, dtype=np.int64) for codes in stage_codes]
    )
    foreign = (code < 0) | (code >= total)
    if foreign.any():
        bad = int(code[int(foreign.argmax())])
        raise ScheduleError(
            f"cannot compile {name!r}: op code {bad} is not part of the "
            f"problem"
        )
    is_f = code < cells
    is_b = ~is_f & (code < 2 * cells)
    is_w = ~is_f & ~is_b
    wrem = code - 2 * cells
    kind = np.where(is_f, KIND_F, np.where(is_b, KIND_B, KIND_W))
    cell = np.where(is_f, code, np.where(is_b, code - cells, wrem // gemms))
    gemm = np.where(is_w, wrem % gemms, -1)
    stage = np.repeat(np.arange(p, dtype=np.int64), counts)

    def named(i: int) -> OpId:
        return _decode(problem, int(kind[i]), int(cell[i]), int(gemm[i]))

    repeated = np.bincount(code, minlength=total)[code] > 1
    if repeated.any():
        raise ScheduleError(
            f"cannot compile {name!r}: duplicate op {named(int(repeated.argmax()))}"
        )
    stage_of_chunk = np.asarray(problem._placement_tables[0], dtype=np.int64)
    home = stage_of_chunk[cell % chunks]
    misplaced = home != stage
    if misplaced.any():
        i = int(misplaced.argmax())
        raise ScheduleError(
            f"cannot compile {name!r}: op {named(i)} scheduled on stage "
            f"{int(stage[i])}, belongs to stage {int(home[i])}"
        )
    if num_ops != total:
        raise ScheduleError(
            f"cannot compile {name!r}: {total - num_ops} op(s) missing "
            f"from the schedule"
        )

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
    pred_indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(slots >= 0, axis=1), out=pred_indptr[1:])

    # Successors = the transpose: a stable sort of edges by target keeps
    # each group's sources ascending.
    order = np.argsort(pred_dense, kind="stable")
    succ = edge_src[order]
    succ_indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(pred_dense, minlength=total), out=succ_indptr[1:])

    return ScheduleGraph(
        problem=problem,
        fingerprint=token,
        kind=int64_table(kind),
        cell=int64_table(cell),
        gemm=int64_table(gemm),
        stage=int64_table(stage),
        pos=int64_table(pos),
        stage_bounds=stage_bounds,
        pred_indptr=int64_table(pred_indptr),
        pred=int64_table(pred_dense),
        succ_indptr=int64_table(succ_indptr),
        succ=int64_table(succ),
        ops_factory=ops_factory,
    )
