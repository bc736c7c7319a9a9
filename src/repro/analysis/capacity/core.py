"""Bounded-channel certification of compiled schedules.

The verifier and the analytic evaluator prove deadlock-freedom and
timing under *unbounded* channels, but the multi-process runtime
executes on finite shared-memory SPSC rings.  A ring of capacity ``K``
on channel ``(src, dst, kind)`` adds one structural constraint per
message beyond the first ``K``: send ``#i`` cannot start before recv
``#(i-K)`` completes, because the producer blocks until the consumer
frees a slot.  This module augments the compiled
:class:`~repro.schedules.graph.ScheduleGraph` with exactly those
*slot-reuse edges*, drawn from the graph's
:func:`~repro.schedules.graph.channel_table` and walked by its one
Kahn (:func:`~repro.schedules.graph.kahn_order`), and answers three
questions in closed form:

* **Safety** — is the schedule deadlock-free at the configured
  capacities?  Execution order on each stage is fixed by its program,
  so a bounded-buffer deadlock is timing-independent: it happens iff
  the slot-augmented graph (dependency + program-order + slot-reuse
  edges) has a cycle.  On failure the existing minimal-cycle machinery
  produces a witness naming the saturated channel (CP001).
* **Minimal deadlock-free capacity** — the all-ones vector is tested
  first with a single Kahn pass; when it is acyclic it is the global
  componentwise minimum (one slot per channel is the floor).  Otherwise
  a coordinate descent from the canonical-order occupancy peaks (or,
  when a non-FIFO channel makes them cyclic, the message counts)
  binary-searches each channel down while every probe keeps the *full*
  current vector acyclic, yielding a componentwise-minimal vector:
  lowering any single coordinate of the result re-adds a superset of
  the slot edges present when that coordinate was minimized, and
  cyclicity is monotone under edge addition.  (The jointly-minimal
  total buffer count is NP-hard; see ``docs/verification.md``.)
* **Minimal backpressure-free capacity** — from the unbounded max-plus
  times, channel by channel: with sends ordered by the producer's
  program (``S[i] = start[src_i]`` nondecreasing) and ``M[j]`` the
  running max of consumer completions, message ``#i`` needs
  ``K >= i - r(i)`` slots where ``r(i)`` is the last message whose
  consumption finishes by ``S[i]`` — a two-pointer scan.  At these
  capacities every slot-reuse edge arrives no later than the
  unbounded start it joins, so the IEEE-754 ``max`` in the replay
  recurrence returns bit-identical times: bounded equals unbounded
  exactly, not approximately.

Certificates produced here are re-validated by
:func:`cross_validate_capacities`, which replays the slot-augmented
recurrence *and* runs the simulator's independent bounded-channel heap
engine (`simulate(..., channel_capacities=...)`), filing CP004 on any
bit-level disagreement.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import repeat
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.analysis.capacity.rules import CAPACITY_RULES
from repro.analysis.evaluate.dense import (
    DenseTimes,
    FloatArray,
    IntArray,
    dense_schedule_times,
    first_divergence,
    wavefront_times,
)
from repro.schedules.base import OpId, Schedule, ScheduleError
from repro.schedules.graph import (
    Channel,
    ChannelId,
    ScheduleGraph,
    channel_table,
    compiled_graph,
    kahn_order,
    toposort_plan,
)
from repro.schedules.verify.deps import _edge_label, _minimal_cycle
from repro.schedules.verify.diagnostics import Finding, Report
from repro.sim.cost import CostModel

def _channel_str(key: ChannelId) -> str:
    """Render a channel like the runtime's ``ChannelKey.__str__``."""
    return f"stage {key[0]} -> stage {key[1]} ({key[2]})"


def normalize_capacities(
    capacities: Mapping[Any, int],
) -> dict[ChannelId, int]:
    """Coerce a capacity mapping onto plain ``(src, dst, kind)`` keys.

    Accepts tuples or any key object exposing ``src_stage`` /
    ``dst_stage`` / ``kind`` attributes (e.g. the runtime's
    ``ChannelKey``); ``kind`` may be a string or an ``OpKind``.
    """
    out: dict[ChannelId, int] = {}
    for key, value in capacities.items():
        if isinstance(key, tuple):
            src, dst, kind = key
        else:
            src, dst, kind = key.src_stage, key.dst_stage, key.kind
        kind = getattr(kind, "value", kind)
        out[(int(src), int(dst), str(kind))] = int(value)
    return out


# ----------------------------------------------------------------------
# Occupancy tables and slot-reuse edges
# ----------------------------------------------------------------------
@dataclass
class _GraphTables:
    """Cost-independent capacity tables, cached on the compiled graph.

    ``peaks`` is each channel's in-flight peak along the cached
    unbounded topological plan and ``rank`` each op's position in that
    plan.  ``dl_caps`` is filled lazily — the coordinate descent behind
    it is the one genuinely expensive inference, and cost-model
    consumers (the planner's backpressure-free ledger) never need it.
    The messages themselves are the graph's
    :func:`~repro.schedules.graph.channel_table`.
    """

    peaks: dict[ChannelId, int]
    rank: IntArray
    dl_caps: dict[ChannelId, int] | None = None


def _graph_tables(graph: ScheduleGraph) -> _GraphTables:
    """Build (and cache) the occupancy peaks and plan ranks.

    Peaks fall out of a per-channel cumulative sum of ±1 events along
    the cached topological plan.
    """
    cached = graph._capacity_tables
    if isinstance(cached, _GraphTables):
        return cached
    num_ops = graph.num_ops
    rank = np.empty(num_ops, dtype=np.int64)
    rank[np.asarray(toposort_plan(graph).order)] = np.arange(num_ops, dtype=np.int64)
    peaks: dict[ChannelId, int] = {}
    for key, (sa, da, _edges) in channel_table(graph).items():
        # A message is in flight from its producer to its consumer
        # along the plan; distinct ops have distinct ranks, so the
        # signed events sort unambiguously.
        deltas = np.concatenate(
            (np.ones(sa.size, np.int64), -np.ones(da.size, np.int64))
        )
        ev = np.argsort(np.concatenate((rank[sa], rank[da])))
        peaks[key] = int(np.cumsum(deltas[ev]).max())
    tables = _GraphTables(peaks=peaks, rank=rank)
    graph._capacity_tables = tables
    return tables


def channel_messages(
    graph: ScheduleGraph,
) -> dict[ChannelId, list[tuple[int, int]]]:
    """Every cross-stage message, grouped by channel.

    Returns ``{(src_stage, dst_stage, kind): [(src_op, dst_op), ...]}``
    with dense op indices, each channel's list sorted by the producer's
    program position — the order ring slots are claimed in.  A view of
    the graph's :func:`~repro.schedules.graph.channel_table`.
    """
    return {
        key: list(zip(sa.tolist(), da.tolist(), strict=True))
        for key, (sa, da, _edges) in channel_table(graph).items()
    }


def _slot_edges(
    table: Mapping[ChannelId, Channel],
    capacities: Mapping[ChannelId, int],
) -> list[tuple[int, int, ChannelId]]:
    """Slot-reuse edges ``dst[i-K] -> src[i]`` for every channel, by
    sorted channel key and ascending message."""
    edges: list[tuple[int, int, ChannelId]] = []
    for key in sorted(table):
        sa, da, _edges = table[key]
        k = capacities[key]
        if k < sa.size:
            edges.extend(
                zip(da[: sa.size - k].tolist(), sa[k:].tolist(), repeat(key))
            )
    return edges


def _feasible(graph: ScheduleGraph, capacities: Mapping[ChannelId, int]) -> bool:
    """Whether the slot-augmented graph is acyclic at ``capacities``."""
    edges = _slot_edges(channel_table(graph), capacities)
    return not kahn_order(graph, edges)[2]


# ----------------------------------------------------------------------
# Capacity inference
# ----------------------------------------------------------------------
def _deadlock_free_capacities(
    graph: ScheduleGraph, tables: _GraphTables
) -> dict[ChannelId, int]:
    """Minimal deadlock-free capacities (componentwise-local minimum).

    Fast path: one slot per channel is the componentwise floor, so if
    the all-ones vector is acyclic it is *the* global componentwise
    minimum and a single Kahn pass settles everything.  Otherwise a
    coordinate descent from a feasible start binary-searches each
    channel in deterministic key order with all other channels at their
    current values — every accepted value keeps the full vector acyclic,
    so feasibility is an invariant and the result is componentwise
    minimal.  The start is the occupancy peaks when they are acyclic
    and the message counts (no slot edge at all) otherwise: on a
    channel that is not FIFO (its receive order inverts its send order,
    CH001) the peaks along the unbounded plan can still close a cycle.
    """
    table, peaks = channel_table(graph), tables.peaks
    if not table:
        return {}
    ones = dict.fromkeys(table, 1)
    if all(p <= 1 for p in peaks.values()) or _feasible(graph, ones):
        # All-ones peaks: along the plan every send follows the previous
        # message's receive, so each unit slot edge points forward in
        # the plan and the ones vector is acyclic without a Kahn pass.
        return ones
    caps = dict(peaks)
    if not _feasible(graph, caps):
        caps = {key: channel.src_ops.size for key, channel in table.items()}
    for key in sorted(table):
        lo, hi = 1, caps[key]
        while lo < hi:
            mid = (lo + hi) // 2
            caps[key] = mid
            if _feasible(graph, caps):
                hi = mid
            else:
                lo = mid + 1
        caps[key] = lo
    return caps


def _deadlock_caps(graph: ScheduleGraph) -> dict[ChannelId, int]:
    """The (lazily computed, cached) minimal deadlock-free vector."""
    tables = _graph_tables(graph)
    if tables.dl_caps is None:
        tables.dl_caps = _deadlock_free_capacities(graph, tables)
    return tables.dl_caps


def _backpressure_free_capacities(
    table: Mapping[ChannelId, Channel],
    times: DenseTimes,
) -> dict[ChannelId, int]:
    """Smallest per-channel capacities that cannot delay any send.

    For each channel, ``S[i]`` (producer starts, nondecreasing in slot
    order) and the running max ``M[j]`` of consumer completions give
    message ``#i`` a tolerance of ``i - r(i)`` slots, where ``r(i)``
    (a ``searchsorted`` into the running max) is the last message
    consumed by ``S[i]``.  At the per-channel max, every slot-reuse
    edge lands at or before the start it joins, so the bounded replay
    is bit-identical to the unbounded one.
    """
    start = times.start
    end = times.end
    caps: dict[ChannelId, int] = {}
    for key, (sa, da, _edges) in table.items():
        sends = start[sa]
        running = np.maximum.accumulate(end[da])
        idx = np.arange(sends.size, dtype=np.int64)
        r = np.minimum(
            np.searchsorted(running, sends, side="right") - 1, idx - 1
        )
        caps[key] = max(1, int((idx - r).max())) if sends.size else 1
    return caps


@dataclass(frozen=True)
class ChannelCapacity:
    """Inferred capacity profile of one cross-stage channel."""

    src_stage: int
    dst_stage: int
    kind: str
    #: Total messages the channel carries in one iteration (the legacy
    #: ring size — "never blocks" by construction).
    messages: int
    #: Peak in-flight messages along the canonical unbounded order.
    occupancy_peak: int
    #: Componentwise-minimal deadlock-free capacity; ``None`` when the
    #: inference was asked to skip it (the planner's backpressure-free
    #: ledger never reads it, and the coordinate descent behind it is
    #: the analyzer's one expensive step).
    deadlock_free: int | None
    #: Minimal capacity with zero critical-path impact; ``None`` when
    #: no cost model was supplied to the inference.
    backpressure_free: int | None = None

    @property
    def key(self) -> ChannelId:
        return (self.src_stage, self.dst_stage, self.kind)

    def describe(self) -> str:
        parts = [
            f"{_channel_str(self.key)}: {self.messages} msg",
            f"occupancy {self.occupancy_peak}",
        ]
        if self.deadlock_free is not None:
            parts.append(f"deadlock-free {self.deadlock_free}")
        if self.backpressure_free is not None:
            parts.append(f"backpressure-free {self.backpressure_free}")
        return ", ".join(parts)


@dataclass(frozen=True)
class CapacityPlan:
    """The capacity analyzer's verdict for one schedule."""

    schedule_name: str
    channels: tuple[ChannelCapacity, ...]
    #: Makespan of the unbounded max-plus replay (cost runs only).
    unbounded_makespan: float | None = None
    #: Makespan at the backpressure-free capacities — equal to
    #: ``unbounded_makespan`` bit-for-bit by construction.
    backpressure_free_makespan: float | None = None

    def capacities(self, mode: str = "deadlock-free") -> dict[ChannelId, int]:
        """Per-channel ring sizes for ``mode``.

        ``"deadlock-free"`` is the memory-minimal safe vector,
        ``"backpressure-free"`` additionally provably never delays a
        send (requires the plan to have been inferred with a cost
        model), ``"full"`` is the legacy one-slot-per-message sizing.
        """
        caps: dict[ChannelId, int] = {}
        if mode == "deadlock-free":
            for c in self.channels:
                if c.deadlock_free is None:
                    raise ValueError(
                        "deadlock-free capacities were skipped at "
                        "inference time (include_deadlock_free=False)"
                    )
                caps[c.key] = c.deadlock_free
            return caps
        if mode == "full":
            return {c.key: c.messages for c in self.channels}
        if mode == "backpressure-free":
            for c in self.channels:
                if c.backpressure_free is None:
                    raise ValueError(
                        "backpressure-free capacities require a plan "
                        "inferred with a cost model"
                    )
                caps[c.key] = c.backpressure_free
            return caps
        raise ValueError(f"unknown capacity mode {mode!r}")

    def to_dict(self) -> dict[str, object]:
        return {
            "schedule": self.schedule_name,
            "channels": [
                {
                    "src_stage": c.src_stage,
                    "dst_stage": c.dst_stage,
                    "kind": c.kind,
                    "messages": c.messages,
                    "occupancy_peak": c.occupancy_peak,
                    "deadlock_free": c.deadlock_free,
                    "backpressure_free": c.backpressure_free,
                }
                for c in self.channels
            ],
            "unbounded_makespan": self.unbounded_makespan,
            "backpressure_free_makespan": self.backpressure_free_makespan,
        }


@dataclass(frozen=True)
class CapacityCertificate:
    """A re-checkable claim about one capacity assignment.

    ``cross_validate_capacities`` re-derives every field from scratch
    (slot-augmented analytic replay *and* the simulator's independent
    bounded heap engine) and files CP004 on any bit-level mismatch.
    """

    schedule_name: str
    #: Sorted ``(src_stage, dst_stage, kind, capacity)`` rows.
    capacities: tuple[tuple[int, int, str, int], ...]
    #: Analytic makespan on the slot-augmented graph at these caps.
    makespan: float
    #: Analytic makespan with unbounded channels.
    unbounded_makespan: float
    #: Claim that the capacities cause zero critical-path lengthening.
    backpressure_free: bool

    def caps(self) -> dict[ChannelId, int]:
        return {(s, d, k): cap for s, d, k, cap in self.capacities}

    def to_dict(self) -> dict[str, object]:
        return {
            "schedule": self.schedule_name,
            "capacities": [list(row) for row in self.capacities],
            "makespan": self.makespan,
            "unbounded_makespan": self.unbounded_makespan,
            "backpressure_free": self.backpressure_free,
        }


def infer_capacities(
    schedule: Schedule,
    cost: CostModel | None = None,
    *,
    times: DenseTimes | None = None,
    include_deadlock_free: bool = True,
) -> CapacityPlan:
    """Infer minimal ring capacities for every channel of ``schedule``.

    Without a cost model the plan carries the (timing-independent)
    deadlock-free minima and occupancy peaks.  With one — or with
    precomputed unbounded ``times`` — it additionally carries the
    backpressure-free minima and both makespans.
    ``include_deadlock_free=False`` skips the deadlock-free coordinate
    descent (the one expensive inference; the planner's per-cell
    backpressure-free ledger never reads it).
    """
    graph = compiled_graph(schedule)
    table = channel_table(graph)
    peaks = _graph_tables(graph).peaks
    dl_caps = _deadlock_caps(graph) if include_deadlock_free else None
    bp_caps: dict[ChannelId, int] | None = None
    unbounded = bounded = None
    if times is None and cost is not None:
        times = dense_schedule_times(graph, cost)
    if times is not None and table:
        bp_caps = _backpressure_free_capacities(table, times)
        unbounded = float(times.end.max()) if times.num_ops else 0.0
        try:
            bounded_times = bounded_dense_times(graph, bp_caps, times=times)
        except ScheduleError:
            # Zero-duration ties can make the closed-form vector cyclic
            # even though the times are satisfiable; widening to the
            # occupancy peaks removes slot edges without weakening the
            # no-delay property.  The peaks are not always acyclic (a
            # channel that is not FIFO can close a cycle at them), so
            # this retry may still raise.
            bp_caps = {k: max(v, peaks[k]) for k, v in bp_caps.items()}
            bounded_times = bounded_dense_times(graph, bp_caps, times=times)
        bounded = (
            float(bounded_times.end.max()) if bounded_times.num_ops else 0.0
        )
    elif times is not None:
        unbounded = bounded = float(times.end.max()) if times.num_ops else 0.0
    rows = tuple(
        ChannelCapacity(
            src_stage=key[0],
            dst_stage=key[1],
            kind=key[2],
            messages=int(table[key].src_ops.size),
            occupancy_peak=peaks[key],
            deadlock_free=None if dl_caps is None else dl_caps[key],
            backpressure_free=None if bp_caps is None else bp_caps[key],
        )
        for key in sorted(table)
    )
    return CapacityPlan(
        schedule_name=schedule.name,
        channels=rows,
        unbounded_makespan=unbounded,
        backpressure_free_makespan=bounded,
    )


# ----------------------------------------------------------------------
# Bounded max-plus replay
# ----------------------------------------------------------------------
def bounded_dense_times(
    graph: ScheduleGraph,
    capacities: Mapping[ChannelId, int],
    cost: CostModel | None = None,
    *,
    times: DenseTimes | None = None,
) -> DenseTimes:
    """Max-plus replay over the slot-augmented graph.

    Identical to the unbounded recurrence plus one zero-cost term per
    slot-reuse edge (``end`` of the slot-freeing recv); any topological
    order yields bit-identical floats, so whenever no slot edge is ever
    the strict maximum the result equals the unbounded times exactly.
    Raises :class:`ScheduleError` when the augmented graph is cyclic.
    """
    if times is None:
        if cost is None:
            raise ValueError("bounded_dense_times needs a cost model or times")
        times = dense_schedule_times(graph, cost)
    table = channel_table(graph)
    caps = normalize_capacities(capacities)
    bad = sorted(k for k in table if caps.get(k, 0) < 1)
    if bad:
        listed = ", ".join(_channel_str(k) for k in bad)
        raise ScheduleError(
            f"missing or sub-1 capacity for channel(s): {listed}"
        )
    # Vectorized shortcut: sorting ops by (unbounded start, plan rank)
    # gives a topological order of the *unbounded* graph; if every slot
    # edge both respects that order and frees its slot no later than
    # the send it joins (``end[tail] <= start[head]``), the augmented
    # graph is acyclic and no slot term is ever the strict maximum —
    # the unbounded times already solve the bounded recurrence, bit
    # for bit, with no per-op replay needed.
    trank = np.empty(graph.num_ops, dtype=np.int64)
    trank[np.lexsort((_graph_tables(graph).rank, times.start))] = np.arange(
        graph.num_ops, dtype=np.int64
    )
    clean = True
    for key, (sa, da, _edges) in table.items():
        k = caps[key]
        if k < sa.size:
            tails, heads = da[: sa.size - k], sa[k:]
            if (times.end[tails] > times.start[heads]).any() or (
                trank[tails] >= trank[heads]
            ).any():
                clean = False
                break
    if clean:
        return times
    edges = _slot_edges(table, caps)
    order, _levels, residual = kahn_order(graph, edges)
    if residual:
        stuck = [str(graph.op_at(i)) for i in residual[:8]]
        raise ScheduleError(
            f"bounded-channel deadlock; blocked ops: {stuck} "
            f"(run `repro capacity` for a minimal-cycle witness)"
        )
    pred_indptr, pred, comm = _slot_augmented_preds(graph, times.comm, edges)
    start, end = wavefront_times(
        graph.pos, pred_indptr, pred, comm, times.duration.tolist(), order
    )
    return replace(
        times,
        start=np.asarray(start, dtype=np.float64),
        end=np.asarray(end, dtype=np.float64),
    )


def _slot_augmented_preds(
    graph: ScheduleGraph,
    comm: FloatArray,
    edges: list[tuple[int, int, ChannelId]],
) -> tuple[list[int], list[int], list[float]]:
    """The graph's predecessor CSR with slot-reuse edges appended.

    Each ``tail -> head`` slot edge becomes one more predecessor of
    ``head`` with ``comm = 0.0``: reclaiming a slot costs no transfer
    time, ``x + 0.0 == x`` for every finite ``x >= 0``, and IEEE
    ``max`` is order-independent, so the kernel needs no slot-specific
    term to produce the bounded recurrence's exact floats.
    """
    indptr = np.array(graph.pred_indptr)  # a copy: the graph's is read-only
    tails = np.fromiter((e[0] for e in edges), np.int64, count=len(edges))
    heads = np.fromiter((e[1] for e in edges), np.int64, count=len(edges))
    # Each slot edge lands at the end of its head's predecessor run;
    # every later run shifts right by the slot edges inserted before it.
    # Sorted by head first: an op without dependency predecessors shares
    # its insertion point with the next op, and ``np.insert`` keeps the
    # given order at a shared point.
    by_head = np.argsort(heads, kind="stable")
    tails, heads = tails[by_head], heads[by_head]
    at = indptr[heads + 1]
    shift = np.cumsum(np.bincount(heads, minlength=graph.num_ops))
    indptr[1:] += shift
    pred = np.insert(np.asarray(graph.pred), at, tails)
    return indptr.tolist(), pred.tolist(), np.insert(comm, at, 0.0).tolist()


# ----------------------------------------------------------------------
# Checking and certification (the CP rules)
# ----------------------------------------------------------------------
def _deadlock_witness(
    graph: ScheduleGraph,
    residual: list[int],
    edges: list[tuple[int, int, ChannelId]],
    capacities: Mapping[ChannelId, int],
) -> Finding:
    """A CP001 finding with a minimal blocking-cycle witness."""
    ops = {i: graph.op_at(i) for i in residual}  # only the blocked ops
    stage, pos = graph.stage, graph.pos
    succ_indptr, succ = graph.succ_indptr, graph.succ
    residual_set = set(residual)
    slot_label: dict[tuple[int, int], ChannelId] = {}
    id_succ: dict[OpId, list[OpId]] = {ops[i]: [] for i in residual}
    index_of = {ops[i]: i for i in residual}
    for i in residual:
        for e in range(succ_indptr[i], succ_indptr[i + 1]):
            j = int(succ[e])
            if j in residual_set:
                id_succ[ops[i]].append(ops[j])
        j = i + 1
        if j < graph.num_ops and pos[j] > 0 and j in residual_set:
            id_succ[ops[i]].append(ops[j])
    for tail, head, key in edges:
        if tail in residual_set and head in residual_set:
            id_succ[ops[tail]].append(ops[head])
            slot_label[(tail, head)] = key
    cycle = _minimal_cycle(set(id_succ), id_succ)
    saturated: list[ChannelId] = []
    witness: list[str] = []
    if cycle:
        witness.append(f"minimal blocking cycle ({len(cycle)} edges):")
        problem = graph.problem
        for i, op in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            a, b = index_of[op], index_of[nxt]
            key = slot_label.get((a, b))
            if key is not None:
                label = (
                    f"channel {_channel_str(key)} slot reuse "
                    f"(capacity {capacities[key]})"
                )
                if key not in saturated:
                    saturated.append(key)
            elif op in problem.deps(nxt):
                label = _edge_label(problem, op, nxt)
            else:
                label = f"stage {stage[a]} program order"
            witness.append(
                f"  {op} @ stage {stage[a]}#{pos[a]} -> {nxt}  [{label}]"
            )
    if saturated:
        channel_note = "; ".join(
            f"channel {_channel_str(key)} saturates at capacity "
            f"{capacities[key]}"
            for key in saturated
        )
    else:  # pragma: no cover - every bounded cycle crosses a slot edge
        channel_note = "no saturated channel identified"
    return Finding(
        "CP001",
        f"bounded-channel deadlock: {len(residual)} op(s) can never run "
        f"under the configured capacities; {channel_note}",
        witness=tuple(witness),
    )


def check_capacities(
    schedule: Schedule,
    capacities: Mapping[Any, int] | None = None,
    cost: CostModel | None = None,
) -> Report:
    """Certify ``schedule`` against a capacity assignment (CP001-CP003).

    With ``capacities=None`` the inferred minimal deadlock-free vector
    is checked (and, by construction, certifies clean).  With a cost
    model the bounded critical path is compared against the unbounded
    one and CP003 warns about any backpressure.
    """
    graph = compiled_graph(schedule)
    caps = (
        dict(_deadlock_caps(graph))
        if capacities is None
        else normalize_capacities(capacities)
    )
    findings, _priced = _check(graph, caps, cost)
    return Report(
        schedule_name=schedule.name,
        findings=findings,
        checked_rules=(
            ("CP001", "CP002", "CP003")
            if cost is not None
            else ("CP001", "CP002")
        ),
    )


def _check(
    graph: ScheduleGraph,
    caps: dict[ChannelId, int],
    cost: CostModel | None,
) -> tuple[list[Finding], tuple[DenseTimes, DenseTimes] | None]:
    """The CP001-CP003 findings of ``caps``, plus the unbounded and
    bounded times when the CP003 comparison priced them (so a caller
    that needs them again does not replay twice)."""
    channels = channel_table(graph)
    findings: list[Finding] = []
    for key in sorted(set(caps) - set(channels)):
        findings.append(
            Finding(
                "CP002",
                f"capacity configured for unknown channel "
                f"{_channel_str(key)}; the schedule never sends on it",
                witness=tuple(
                    f"known channel: {_channel_str(k)}"
                    for k in sorted(channels)
                ),
            )
        )
    for key in sorted(channels):
        msgs = int(channels[key].src_ops.size)
        if key not in caps:
            findings.append(
                Finding(
                    "CP002",
                    f"channel {_channel_str(key)} carries {msgs} message(s) "
                    f"but has no configured capacity",
                    stage=key[0],
                )
            )
        elif caps[key] < 1:
            findings.append(
                Finding(
                    "CP002",
                    f"channel {_channel_str(key)} configured with capacity "
                    f"{caps[key]}; a message-carrying channel needs at "
                    f"least 1 slot",
                    stage=key[0],
                    witness=(f"messages: {msgs}",),
                )
            )
    if findings:
        return findings, None

    edges = _slot_edges(channels, caps)
    residual = kahn_order(graph, edges)[2]
    if residual:
        findings.append(_deadlock_witness(graph, residual, edges, caps))
        return findings, None

    if cost is None or not channels:
        return findings, None
    times = dense_schedule_times(graph, cost)
    unbounded = float(times.end.max()) if times.num_ops else 0.0
    bounded_times = bounded_dense_times(graph, caps, times=times)
    bounded = float(bounded_times.end.max()) if times.num_ops else 0.0
    if bounded > unbounded:
        bp_caps = _backpressure_free_capacities(channels, times)
        tight = [
            f"channel {_channel_str(key)}: capacity {caps[key]} < "
            f"backpressure-free {bp_caps[key]}"
            for key in sorted(channels)
            if caps[key] < bp_caps[key]
        ]
        findings.append(
            Finding(
                "CP003",
                f"channel backpressure: the configured capacities "
                f"lengthen the critical path by "
                f"{bounded - unbounded!r}",
                witness=(
                    f"unbounded makespan: {unbounded!r}",
                    f"bounded makespan:   {bounded!r}",
                    *tight,
                ),
            )
        )
    return findings, (times, bounded_times)


def certify_capacities(
    schedule: Schedule,
    cost: CostModel,
    capacities: Mapping[Any, int] | None = None,
    *,
    mode: str = "backpressure-free",
) -> CapacityCertificate:
    """Produce a re-checkable certificate for a capacity assignment.

    Defaults to the inferred capacities of ``mode``; an explicit
    ``capacities`` mapping overrides the mode.  Raises
    :class:`ScheduleError` if the assignment deadlocks.
    """
    graph = compiled_graph(schedule)
    times = dense_schedule_times(graph, cost)
    if capacities is None:
        plan = infer_capacities(schedule, cost, times=times)
        caps = plan.capacities(mode)
    else:
        caps = normalize_capacities(capacities)
    unbounded = float(times.end.max()) if times.num_ops else 0.0
    bounded_times = bounded_dense_times(graph, caps, times=times)
    bounded = float(bounded_times.end.max()) if times.num_ops else 0.0
    return CapacityCertificate(
        schedule_name=schedule.name,
        capacities=tuple(
            (key[0], key[1], key[2], caps[key]) for key in sorted(caps)
        ),
        makespan=bounded,
        unbounded_makespan=unbounded,
        backpressure_free=(bounded == unbounded),
    )


def cross_validate_capacities(
    schedule: Schedule,
    cost: CostModel,
    certificate: CapacityCertificate,
) -> Report:
    """Re-validate a capacity certificate end to end (CP001-CP004).

    Re-runs the CP001-CP003 checks at the certified capacities, replays
    the slot-augmented analytic recurrence, and runs the simulator's
    independent bounded-channel heap engine; any bit-level disagreement
    with the certificate files CP004.
    """
    from repro.sim.executor import simulate

    caps = certificate.caps()
    graph = compiled_graph(schedule)
    findings, priced = _check(graph, caps, cost)
    if any(f.rule_id == "CP001" for f in findings):
        findings.append(
            Finding(
                "CP004",
                "certificate capacities deadlock: the slot-augmented "
                "graph is cyclic, so the certified makespan is "
                "unsatisfiable",
                witness=(f"certified makespan: {certificate.makespan!r}",),
            )
        )
        return Report(
            schedule_name=schedule.name,
            findings=findings,
            checked_rules=CAPACITY_RULES,
        )

    if priced is None:
        times = dense_schedule_times(graph, cost)
        priced = (times, bounded_dense_times(graph, caps, times=times))
    times, bounded_times = priced
    unbounded = float(times.end.max()) if times.num_ops else 0.0
    bounded = float(bounded_times.end.max()) if times.num_ops else 0.0
    if certificate.unbounded_makespan != unbounded:
        findings.append(
            Finding(
                "CP004",
                "certificate unbounded makespan does not reproduce",
                witness=(
                    f"certified:  {certificate.unbounded_makespan!r}",
                    f"recomputed: {unbounded!r}",
                ),
            )
        )
    if certificate.makespan != bounded:
        findings.append(
            Finding(
                "CP004",
                "certificate bounded makespan does not reproduce",
                witness=(
                    f"certified:  {certificate.makespan!r}",
                    f"recomputed: {bounded!r}",
                ),
            )
        )
    if certificate.backpressure_free and bounded != unbounded:
        findings.append(
            Finding(
                "CP004",
                "certificate claims backpressure-free capacities but the "
                "bounded critical path differs from the unbounded one",
                witness=(
                    f"unbounded: {unbounded!r}",
                    f"bounded:   {bounded!r}",
                ),
            )
        )

    sim = simulate(schedule, cost, channel_capacities=caps)
    if sim.makespan != bounded:
        findings.append(
            Finding(
                "CP004",
                "bounded event simulation disagrees with the analytic "
                "slot-augmented makespan",
                witness=(
                    f"analytic:  {bounded!r}",
                    f"simulated: {sim.makespan!r}",
                ),
            )
        )
    else:
        assert sim.times is not None  # a replay always keeps its table
        i = first_divergence(bounded_times, sim.times)
        if i is not None:  # one witness op is enough
            op = graph.op_at(i)
            a, b = bounded_times, sim.times
            findings.append(
                Finding(
                    "CP004",
                    f"bounded event simulation diverges from the "
                    f"analytic slot-augmented times at op {op}",
                    op=op,
                    stage=graph.stage[i],
                    witness=(
                        f"analytic:  start {float(a.start[i])!r} "
                        f"end {float(a.end[i])!r}",
                        f"simulated: start {float(b.start[i])!r} "
                        f"end {float(b.end[i])!r}",
                    ),
                )
            )
    return Report(
        schedule_name=schedule.name,
        findings=findings,
        checked_rules=CAPACITY_RULES,
    )


# ----------------------------------------------------------------------
# The channel-buffer byte ledger
# ----------------------------------------------------------------------
def ring_bytes_per_stage(
    capacities: Mapping[Any, int],
    num_stages: int,
    slot_bytes: int,
) -> tuple[int, ...]:
    """Shared-memory ring bytes charged per stage.

    A ring's backing segment lives with (and is sized for) its
    *consumer*: the producer copies into a free slot and moves on, the
    consumer owns the buffered payloads until it drains them — the same
    convention as a receive buffer.  ``slot_bytes`` is the full slot
    footprint (header + payload), matching the runtime's allocation.
    """
    per_stage = [0] * num_stages
    for key, slots in normalize_capacities(capacities).items():
        per_stage[key[1]] += slots * slot_bytes
    return tuple(per_stage)
