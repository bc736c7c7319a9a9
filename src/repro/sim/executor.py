"""Discrete-event replay of a pipeline schedule.

Given a :class:`~repro.schedules.base.Schedule` and a cost model, the
executor computes when every op runs, how long each stage idles
(bubbles), and the peak activation memory each stage pins — the three
quantities the paper's analysis and evaluation revolve around.

Two engines produce identical results:

* ``"event"`` (default) — the scalar plan-order kernel
  :func:`repro.analysis.evaluate.dense.wavefront_times`: the replay
  recurrence evaluated once per op along the compiled
  :class:`~repro.schedules.graph.ScheduleGraph`'s cached topological
  plan, over cost tables probed once per distinct op key.  O(V + E).
  The analytic evaluator prices schedules on the same kernel.
* ``"heap"`` — the independent oracle: durations and comm times
  probed through its own integer-key memo (:func:`_cost_keys`; one
  probe per op and per edge for models that are not micro-batch
  invariant), indegree counting makes each op ready exactly once, and
  a heap keyed on ready time drains the queue chronologically.
  O((V + E) log V) over the graph's integer tables — no ``OpId`` per
  op.  It shares neither the replay loop, the topological plan, nor
  the cost-table probing with the kernel, which is why the planner
  confirms its frontier on it.  ``channel_capacities=`` runs on this
  engine too: slot-reuse edges join its edge arrays as zero-cost
  dependencies before the loop starts.

An op's start time is a pure function of its dependencies' end times
(IEEE ``max`` is exact and order-independent, and every add uses
identical operands), and both engines accumulate per-stage busy time
and the activation ledger in program order, so the equivalence is
bit-for-bit, not approximate — ``tests/test_engine_golden.py`` asserts
it across the acceptance grid, against each other and against the
original fixed-point engine (``tests/oracles/fixed_point.py``, a golden
reference only tests call).  Both return an array-backed
:class:`SimResult` (:class:`OpTimes`) whose ``OpRecord`` views are
built on first read.  (:mod:`repro.sim.network` is a different model —
FIFO link queues — and a caller of the kernel, not another engine.)
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any

from repro.obs.events import NULL_SINK, EventSink
from repro.obs.metrics import CommLog, IterationMetrics, schedule_comm_log
from repro.schedules.base import (
    OpId,
    PipelineProblem,
    Schedule,
    ScheduleError,
)
from repro.schedules.graph import KIND_B, KIND_F, ScheduleGraph, compiled_graph
from repro.sim.cost import CostModel, stamp_byte_sizes


@dataclass(frozen=True)
class OpRecord:
    """Timing of one executed op."""

    op: OpId
    stage: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class StageMetrics:
    """Per-stage outcome of one simulated iteration."""

    stage: int
    busy_time: float = 0.0
    peak_activation_units: float = 0.0
    op_count: int = 0


@dataclass(frozen=True)
class OpTimes:
    """What a graph engine computes: flat per-op tables by ``graph``'s
    dense op index (``comm`` by dependency edge, like ``graph.pred``)."""

    graph: ScheduleGraph
    start: list[float]
    end: list[float]
    duration: list[float]
    act_units: list[float]
    comm: list[float]


#: ``SimResult(records=_UNBUILT, op_times=...)``: build the records from
#: ``op_times`` on first read.  Identity sentinel, never handed out.
_UNBUILT: dict[OpId, OpRecord] = {}


@dataclass
class SimResult:
    """Complete outcome of simulating one training iteration."""

    schedule_name: str
    problem: PipelineProblem
    #: ``OpId -> OpRecord`` in stage-major program order.  Array-backed
    #: results build it (and ``stage_record_lists``) on first read.
    records: dict[OpId, OpRecord]
    stages: list[StageMetrics]
    makespan: float
    overhead_time: float = 0.0
    #: Per-stage records in start-time order, so repeated queries never
    #: rescan/re-sort the records dict: built with ``records`` for
    #: array-backed results, else on the first ``stage_records`` call.
    stage_record_lists: list[list[OpRecord]] | None = field(
        default=None, repr=False
    )
    #: Bytes of one ledger unit of A on this worker, stamped by
    #: :func:`simulate` when the cost model knows it
    #: (``activation_bytes_per_unit()``); 0 keeps byte metrics at zero.
    activation_bytes_per_unit: float = 0.0
    #: Bytes of one cross-stage boundary message, stamped by
    #: :func:`simulate` when the cost model knows it
    #: (``boundary_message_bytes()``).
    comm_bytes_per_message: float = 0.0
    _comm_volume: CommLog | None = field(default=None, repr=False, compare=False)
    #: The replay's own arrays (``None`` for a result built from
    #: records, like the tests' fixed-point reference).
    op_times: OpTimes | None = field(default=None, repr=False, compare=False)

    def _build_records(self) -> None:
        """Materialize ``records`` / ``stage_record_lists`` from ``op_times``."""
        times = self.op_times
        assert times is not None
        ops, start, end = times.graph.ops, times.start, times.end
        lists = [
            [OpRecord(ops[i], s, start[i], end[i]) for i in range(lo, hi)]
            for s, (lo, hi) in enumerate(times.graph.stage_bounds)
        ]
        self.records = dict(zip(ops, (r for stage in lists for r in stage)))
        self.stage_record_lists = lists

    def start_end(
        self, graph: ScheduleGraph
    ) -> tuple[Sequence[float], Sequence[float]]:
        """``(start, end)`` of every op by ``graph``'s dense index."""
        times = self.op_times
        if times is not None:
            return times.start, times.end
        records = [self.records[op] for op in graph.ops]
        return [r.start for r in records], [r.end for r in records]

    @property
    def iteration_time(self) -> float:
        """Schedule makespan plus iteration-level overheads (DP sync...)."""
        return self.makespan + self.overhead_time

    @property
    def bubble_ratio(self) -> float:
        """Aggregate idle fraction: ``1 - busy / (p * makespan)``."""
        if self.makespan <= 0:
            return 0.0
        busy = sum(s.busy_time for s in self.stages)
        return 1.0 - busy / (len(self.stages) * self.makespan)

    def stage_bubble_ratio(self, stage: int) -> float:
        """Idle fraction of one stage over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return 1.0 - self.stages[stage].busy_time / self.makespan

    @property
    def peak_activation_units(self) -> float:
        """Maximum over stages of pinned activation memory, in units of A."""
        return max(s.peak_activation_units for s in self.stages)

    def stage_records(self, stage: int) -> list[OpRecord]:
        """Records of one stage in start-time order.

        Returns the cached per-stage list (built once); treat it as
        read-only.
        """
        lists = self.stage_record_lists
        if lists is None:
            lists = [[] for _ in self.stages]
            for record in self.records.values():
                lists[record.stage].append(record)
            for records in lists:
                records.sort(key=lambda r: r.start)
            self.stage_record_lists = lists
        return lists[stage]

    # -- PipelineResult protocol (shared with RunResult) ----------------
    @property
    def stage_peak_bytes(self) -> tuple[int, ...]:
        """Per-stage peak activation bytes (ledger units x bytes/unit)."""
        bpu = self.activation_bytes_per_unit
        return tuple(
            int(round(s.peak_activation_units * bpu)) for s in self.stages
        )

    @property
    def peak_live_bytes(self) -> int:
        """Largest per-stage peak activation footprint, in bytes."""
        return max(self.stage_peak_bytes, default=0)

    @property
    def comm_volume(self) -> CommLog:
        """Cross-stage traffic the schedule incurs (counts are exact;
        bytes require the cost model to have sized the boundary
        messages)."""
        if self._comm_volume is None:
            self._comm_volume = schedule_comm_log(
                self.problem, self.comm_bytes_per_message
            )
        return self._comm_volume

    def metrics(self) -> IterationMetrics:
        """The uniform per-iteration summary (see `repro.obs.metrics`)."""
        from repro.obs.metrics import iteration_metrics

        return iteration_metrics(
            self,
            source="sim",
            time_unit="model",
            num_stages=self.problem.num_stages,
        )


def _lazy_field(name: str) -> property:
    """A :class:`SimResult` dataclass field (to ``__init__``, ``==``,
    ``replace``) that an array-backed result builds on first read."""
    slot = "_" + name

    def fget(self: SimResult) -> Any:
        value = self.__dict__[slot]
        if self.op_times is not None and (value is None or value is _UNBUILT):
            self._build_records()
            value = self.__dict__[slot]
        return value

    def fset(self: SimResult, value: Any) -> None:
        self.__dict__[slot] = value

    return property(fget, fset)


for _name in ("records", "stage_record_lists"):
    setattr(SimResult, _name, _lazy_field(_name))


def simulate(
    schedule: Schedule,
    cost: CostModel,
    overhead_time: float = 0.0,
    actgrad_factor: float = 1.0,
    engine: str = "event",
    sink: EventSink = NULL_SINK,
    channel_capacities: Mapping[Any, int] | None = None,
) -> SimResult:
    """Replay ``schedule`` under ``cost`` and collect metrics.

    Each stage executes its program strictly in order; an op starts when
    the stage is free and every dependency has completed (plus transfer
    time for cross-stage edges).  The schedule is statically verified on
    entry (placement, coverage, deadlock-freedom — cached if the builder
    already checked it), so a malformed schedule raises
    :class:`ScheduleError` with a diagnostic report instead of wedging
    the replay.

    ``engine`` selects the replay implementation (see module
    docstring); both produce identical results.

    ``sink`` receives the iteration's telemetry — per-op spans (one
    track per stage), channel send/recv instants, and bubble/overlap/
    memory-high-water counters.  The default null sink keeps the replay
    loop untouched: recording happens post-replay and only when the
    sink is enabled.

    ``channel_capacities`` switches on the bounded-channel mode: each
    cross-stage ``(src, dst, kind)`` channel holds at most K in-flight
    messages, so a producer's #i-th send additionally waits for the
    consumer to finish message #(i-K).  This mode always runs on the
    heap engine (whichever valid ``engine`` is named) and raises
    :class:`ScheduleError` if the capacities deadlock the schedule —
    ``repro.analysis.capacity`` turns the same situation into a
    minimal-cycle CP001 witness.
    """
    from repro.schedules.verify import ensure_verified

    if engine not in ("event", "heap"):
        raise ValueError(f"unknown simulation engine {engine!r}")
    ensure_verified(schedule, context="simulate")
    if channel_capacities is not None or engine == "heap":
        result = _simulate_heap(
            schedule, cost, overhead_time, actgrad_factor, channel_capacities
        )
    else:
        result = _simulate_dense(schedule, cost, overhead_time, actgrad_factor)

    stamp_byte_sizes(result, cost)
    if sink.enabled:
        from repro.obs.record import record_iteration, record_sim_comm

        record_iteration(result, sink)
        record_sim_comm(result, cost, sink)
    return result


def _materialize(
    schedule: Schedule,
    times: OpTimes,
    overhead_time: float,
    actgrad_factor: float,
) -> SimResult:
    """Per-op times over the compiled graph -> ledger, metrics, result.

    Per-stage accumulation over the kind codes in program order, so
    every engine reports the same bits for the same times.  The ledger
    tracks pinned activation (and activation-gradient) memory: an F op
    pins its activations until they are consumed — at B completion for
    fused backward, or gradually over the op's W GEMMs when the
    backward pass is split (each retired W GEMM releases its share of
    both the activations and the activation gradients that B
    materialized, sized ``actgrad_factor`` relative to the
    activations).  Records are built on first read.
    """
    problem = schedule.problem
    graph = times.graph
    kind, end = graph.kind, times.end
    duration, act_units = times.duration, times.act_units
    split, gemms = problem.split_backward, problem.wgrad_gemms
    metrics: list[StageMetrics] = []
    makespan = 0.0
    for s, (lo, hi) in enumerate(graph.stage_bounds):
        busy = current = peak = 0.0
        for i in range(lo, hi):
            busy += duration[i]
            kc = kind[i]
            if kc == KIND_F:
                current += act_units[i]
            elif kc == KIND_B:
                if split:
                    current += act_units[i] * actgrad_factor
                else:
                    current -= act_units[i]
            else:
                current -= act_units[i] * (1.0 + actgrad_factor) / gemms
            if current > peak:
                peak = current
        metrics.append(StageMetrics(s, busy, peak, hi - lo))
        if hi > lo and end[hi - 1] > makespan:
            makespan = end[hi - 1]
    return SimResult(
        schedule_name=schedule.name,
        problem=problem,
        records=_UNBUILT,
        stages=metrics,
        makespan=makespan,
        overhead_time=overhead_time,
        op_times=times,
    )


def _simulate_dense(
    schedule: Schedule,
    cost: CostModel,
    overhead_time: float,
    actgrad_factor: float,
) -> SimResult:
    """Plan-order replay over the compiled graph's CSR arrays (``"event"``).

    The times come from :func:`repro.analysis.evaluate.dense.
    dense_schedule_times` (imported lazily — ``repro.analysis`` imports
    sim modules for its own checks).
    """
    from repro.analysis.evaluate.dense import dense_schedule_times

    graph = compiled_graph(schedule)
    times = dense_schedule_times(graph, cost)
    # tolist() round-trips exactly: the records carry Python floats with
    # the same bits the kernel computed.
    tables = (times.start, times.end, times.duration, times.act_units, times.comm)
    return _materialize(
        schedule,
        OpTimes(graph, *(table.tolist() for table in tables)),
        overhead_time,
        actgrad_factor,
    )


def _slot_reuse_csr(
    graph: ScheduleGraph,
    channel_capacities: Mapping[Any, int],
    comm: list[float],
) -> tuple[list[int], list[int], list[float], list[int], list[int]]:
    """The heap replay's edge arrays with slot-reuse edges appended.

    Under capacity K on channel ``(src, dst, kind)`` the producer of
    message #i also waits for the consumer of message #(i-K) to finish.
    Each such edge joins the predecessor CSR as an ordinary dependency
    with ``comm = 0.0`` (no transfer time is charged for reclaiming a
    slot; ``x + 0.0 == x`` for every finite ``x >= 0``) and the
    successor CSR the heap drains, so the replay loop itself is the
    unbounded one.  Returns ``(pred_indptr, pred, comm, succ_indptr,
    succ)``.
    """
    from repro.analysis.capacity.core import (
        _slot_edges,
        channel_messages,
        normalize_capacities,
    )

    caps = normalize_capacities(channel_capacities)
    channels = channel_messages(graph)
    bad = sorted(key for key in channels if caps.get(key, 0) < 1)
    if bad:
        listed = ", ".join(
            f"stage {a} -> stage {b} ({kind})" for a, b, kind in bad
        )
        raise ScheduleError(
            f"missing or sub-1 capacity for channel(s): {listed}"
        )
    slot_pred: dict[int, list[int]] = {}
    slot_succ: dict[int, list[int]] = {}
    for tail, head, _key in _slot_edges(channels, caps):
        slot_pred.setdefault(head, []).append(tail)
        slot_succ.setdefault(tail, []).append(head)

    pred_indptr, pred = graph.pred_indptr, graph.pred
    succ_indptr, succ = graph.succ_indptr, graph.succ
    new_pred_indptr, new_succ_indptr = [0], [0]
    new_pred: list[int] = []
    new_succ: list[int] = []
    new_comm: list[float] = []
    for i in range(graph.num_ops):
        lo, hi = pred_indptr[i], pred_indptr[i + 1]
        tails = slot_pred.get(i, ())
        new_pred.extend(pred[lo:hi])
        new_pred.extend(tails)
        new_comm.extend(comm[lo:hi])
        new_comm.extend([0.0] * len(tails))
        new_pred_indptr.append(len(new_pred))
        new_succ.extend(succ[succ_indptr[i] : succ_indptr[i + 1]])
        new_succ.extend(slot_succ.get(i, ()))
        new_succ_indptr.append(len(new_succ))
    return new_pred_indptr, new_pred, new_comm, new_succ_indptr, new_succ


def _cost_keys(graph: ScheduleGraph) -> list[int]:
    """Each op's ``(kind, slice, chunk, gemm)`` as one int — all a
    micro-batch-invariant cost model may read of it (``cell % (s *
    chunks)`` drops the micro-batch; ``gemm`` is ``-1`` for F/B ops)."""
    problem = graph.problem
    per_mb = problem.num_slices * problem.num_chunks
    width = problem.wgrad_gemms + 1
    return [
        (kc * per_mb + ce % per_mb) * width + g + 1
        for kc, ce, g in zip(graph.kind, graph.cell, graph.gemm)
    ]


def _simulate_heap(
    schedule: Schedule,
    cost: CostModel,
    overhead_time: float,
    actgrad_factor: float,
    channel_capacities: Mapping[Any, int] | None,
) -> SimResult:
    """Event-driven heap replay over the compiled graph (``"heap"``).

    With ``channel_capacities`` the slot-reuse edges of
    :func:`_slot_reuse_csr` join the edge arrays before the loop runs.
    IEEE ``max`` is exact and order-independent, so the bounded times
    match the analytic :func:`repro.analysis.capacity.bounded_dense_times`
    replay bit-for-bit — the cross-check behind CP004 certificates.
    """
    graph = compiled_graph(schedule)
    num_ops = graph.num_ops
    stage_arr = graph.stage
    pos = graph.pos
    pred_indptr: Sequence[int] = graph.pred_indptr
    pred: Sequence[int] = graph.pred
    succ_indptr: Sequence[int] = graph.succ_indptr
    succ: Sequence[int] = graph.succ

    # Flat per-op/per-edge cost tables through this engine's own memo:
    # one probe (and one decoded ``OpId``) per distinct cost key, and
    # per distinct key pair for comm — keyed on every dependency edge,
    # same-stage ones included, so models that charge same-stage
    # transfers are honoured.  A model that is not
    # micro-batch invariant makes every op its own key.
    keys: Sequence[int]
    if getattr(cost, "microbatch_invariant", False):
        keys, op_at = _cost_keys(graph), graph.op_at
    else:
        keys, op_at = range(num_ops), graph.ops.__getitem__
    dur_of: dict[int, float] = {}
    act_of: dict[int, float] = {}
    for i, key in enumerate(keys):
        if key not in dur_of:
            op = op_at(i)
            dur_of[key] = cost.duration(op)
            act_of[key] = cost.act_units(op)
    duration = [dur_of[key] for key in keys]
    act_units = [act_of[key] for key in keys]
    span = max(keys, default=0) + 1
    comm_of: dict[int, float] = {}
    dep_comm = [0.0] * len(pred)
    for i in range(num_ops):
        key = keys[i]
        for e in range(pred_indptr[i], pred_indptr[i + 1]):
            edge_key = keys[pred[e]] * span + key
            t = comm_of.get(edge_key)
            if t is None:
                t = comm_of[edge_key] = cost.comm_time(op_at(pred[e]), op_at(i))
            dep_comm[e] = t

    comm = dep_comm  # the replay's edge costs: + slot-reuse edges, if any
    if channel_capacities is not None:
        pred_indptr, pred, comm, succ_indptr, succ = _slot_reuse_csr(
            graph, channel_capacities, comm
        )

    # Indegree = dependency (and slot-reuse) edges + the implicit
    # program-order edge.
    indeg = [0] * num_ops
    for i in range(num_ops):
        indeg[i] = (
            pred_indptr[i + 1] - pred_indptr[i] + (1 if pos[i] > 0 else 0)
        )

    # When an op's last constraint resolves, its start time is final:
    # the max of its program predecessor's end and each dependency's
    # end + comm (float max is exact and order-independent, which is
    # what makes the engines bit-for-bit equal).
    start = [0.0] * num_ops
    end = [0.0] * num_ops
    heap: list[tuple[float, int]] = []
    for i in range(num_ops):
        if indeg[i] == 0:
            start[i] = 0.0
            end[i] = duration[i]
            heappush(heap, (0.0, i))

    processed = 0
    while heap:
        _, i = heappop(heap)
        processed += 1
        for e in range(succ_indptr[i], succ_indptr[i + 1]):
            j = succ[e]
            indeg[j] -= 1
            if indeg[j] == 0:
                _schedule_ready(
                    j, pos, pred_indptr, pred, comm, end, start, duration,
                    heap,
                )
        j = i + 1
        if j < num_ops and stage_arr[j] == stage_arr[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                _schedule_ready(
                    j, pos, pred_indptr, pred, comm, end, start, duration,
                    heap,
                )
    if processed != num_ops:
        blocked = [i for i in range(num_ops) if indeg[i] > 0][:8]
        stuck = [str(graph.op_at(i)) for i in blocked]
        if channel_capacities is not None:
            raise ScheduleError(
                "bounded-channel deadlock; blocked ops: "
                f"{stuck} (run `repro capacity` for a minimal-cycle witness)"
            )
        # Unreachable after ensure_verified; defensive guard.
        raise ScheduleError(f"simulation deadlock; blocked ops: {stuck}")

    return _materialize(
        schedule,
        OpTimes(graph, start, end, duration, act_units, dep_comm),
        overhead_time,
        actgrad_factor,
    )


def _schedule_ready(
    j: int,
    pos: Sequence[int],
    pred_indptr: Sequence[int],
    pred: Sequence[int],
    comm: list[float],
    end: list[float],
    start: list[float],
    duration: list[float],
    heap: list[tuple[float, int]],
) -> None:
    """Finalize op ``j``'s start/end now that its last constraint resolved."""
    t = end[j - 1] if pos[j] > 0 else 0.0
    for e in range(pred_indptr[j], pred_indptr[j + 1]):
        ready = end[pred[e]] + comm[e]
        if ready > t:
            t = ready
    start[j] = t
    end[j] = t + duration[j]
    heappush(heap, (t, j))
