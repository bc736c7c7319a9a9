"""Batched (multi-config) analytic evaluation of one topology class.

A *topology class* is a set of schedules whose compiled graphs are
structurally identical — same op numbering, kinds, cells, stage layout,
and therefore the same dependency edges and the same topological plan —
while their cost key-tables differ (distinct cost models, e.g. the
recompute on/off pair of one placement, or the same placement priced
for different model scales).  For such a class the max-plus replay

``start[i] = max(end[i-1] if pos[i] > 0 else 0,
maxₑ end[pred[e]] + comm[e])``, ``end[i] = start[i] + duration[i]``

is the *same* recurrence over the *same* DAG for every member; only the
``duration``/``comm`` operands differ.  :func:`evaluate_schedule_batch`
therefore stacks the members' cost tables into ``(n_configs, n_ops)``
matrices and sweeps the shared plan once, one Kahn wavefront at a time,
with every member advanced per NumPy gather — followed by batched
strictly-sequential prefix sums (``np.add.accumulate(..., axis=1)``)
for the per-stage busy/peak ledgers and vectorized phase boundaries.

Bit-identity argument (the same exactness theorem as
:mod:`repro.analysis.evaluate.dense`, member by member):

* each member's row of the stacked sweep performs float ``max`` and
  ``+`` on exactly the operands the scalar replay uses — ``max`` is
  exact and order-independent, and the padded predecessor slots
  contribute ``max(…, 0.0)`` which is absorbed because every start
  time is non-negative;
* ``np.add.accumulate`` along ``axis=1`` is strictly sequential per
  row, so every partial sum (and hence every busy total and ledger
  peak) equals the scalar evaluator's float for float;
* phase boundaries and the critical-path backtrack read individual
  start/end floats at structure-determined positions, identical per
  member.

So ``evaluate_schedule_batch([sᵢ], [cᵢ], …)[j]`` equals
``evaluate_schedule(sⱼ, cⱼ, …)`` exactly (golden-tested over the
acceptance grid by ``tests/test_evaluate_batch.py``).  Structural
agreement is *checked*, not assumed: the members' graph tables are
compared outright, so a caller that mis-groups configurations gets a
``ValueError`` instead of silently wrong floats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

from repro.analysis.evaluate.core import (
    EXACT_CERTIFICATE_BASIS,
    AnalyticEvaluation,
    EvalCertificate,
    StagePhases,
    _critical_path,
    _ledger_deltas,
)
from repro.analysis.evaluate.dense import (
    DenseTimes,
    FloatArray,
    IntArray,
    op_cost_arrays,
)
from repro.obs.events import NULL_SINK, EventSink
from repro.schedules import gencache
from repro.schedules.base import Schedule
from repro.schedules.graph import (
    KIND_B,
    KIND_F,
    ScheduleGraph,
    compiled_graph,
    toposort_plan,
)
from repro.sim.cost import CostModel, stamp_byte_sizes


@dataclass(frozen=True)
class _BatchTables:
    """Gather tables for the stacked wavefront, one per structure.

    ``order``/``level_indptr`` are the shared topological plan as flat
    arrays.  The remaining tables are *pre-gathered into plan order* —
    row ``r`` describes op ``order[r]`` — so the per-level loop slices
    contiguous views instead of re-gathering by ``idx`` every level:
    ``prog_src``/``prog_mask`` give each op's program-order predecessor
    (clamped to 0 where absent, with the mask recording absence), and
    ``dep_src``/``dep_edge``/``dep_mask`` give the dependency
    predecessors (and their edge indices into the ``comm`` table)
    padded to the maximum in-degree.  All of it depends only on the
    graph structure, so one instance serves every member of a topology
    class — and, via the structure store in
    :mod:`repro.schedules.gencache`, every future graph with the same
    structure key.
    """

    order: IntArray
    level_indptr: IntArray
    levels: int
    prog_src: IntArray
    prog_mask: npt.NDArray[np.bool_]
    dep_src: IntArray
    dep_edge: IntArray
    dep_mask: npt.NDArray[np.bool_]


def _build_tables(graph: ScheduleGraph) -> _BatchTables:
    plan = toposort_plan(graph)
    num_ops = graph.num_ops
    pos = np.asarray(graph.pos, dtype=np.int64)
    pred_indptr = np.asarray(graph.pred_indptr, dtype=np.int64)
    pred = np.asarray(graph.pred, dtype=np.int64)
    counts = np.diff(pred_indptr)
    width = int(counts.max()) if num_ops else 0
    slot_pred = np.full((num_ops, width), -1, dtype=np.int64)
    slot_edge = np.full((num_ops, width), -1, dtype=np.int64)
    if width:
        # Edge e of op i lands in slot e - pred_indptr[i]; vectorized
        # over the flat edge list.
        edge_op = np.repeat(np.arange(num_ops, dtype=np.int64), counts)
        slot = np.arange(pred.shape[0], dtype=np.int64) - pred_indptr[edge_op]
        slot_pred[edge_op, slot] = pred
        slot_edge[edge_op, slot] = np.arange(pred.shape[0], dtype=np.int64)
    prog_pred = np.where(
        pos > 0, np.arange(num_ops, dtype=np.int64) - 1, np.int64(-1)
    )
    # Pre-gather everything into plan order and pre-clamp the -1 pads,
    # so the sweep's inner loop is pure contiguous slicing.
    order = np.asarray(plan.order, dtype=np.int64)
    prog_ordered = prog_pred[order]
    dep_src = slot_pred[order]
    dep_edge = slot_edge[order]
    return _BatchTables(
        order=order,
        level_indptr=np.asarray(plan.level_indptr, dtype=np.int64),
        levels=plan.levels,
        prog_src=np.maximum(prog_ordered, 0),
        prog_mask=prog_ordered >= 0,
        dep_src=np.maximum(dep_src, 0),
        dep_edge=np.maximum(dep_edge, 0),
        dep_mask=dep_src >= 0,
    )


def _graph_tables(graph: ScheduleGraph) -> _BatchTables:
    """The structure's batch tables, shared through the structure store."""
    key = ("batch", graph.structure_key())
    cached = gencache.get_structure(key)
    if isinstance(cached, _BatchTables):
        return cached
    tables = _build_tables(graph)
    gencache.put_structure(key, tables)
    return tables


def _stack_cost_tables(
    graph: ScheduleGraph, costs: Sequence[CostModel]
) -> tuple[FloatArray, FloatArray, FloatArray]:
    """Stacked ``(n_configs, …)`` duration/act/comm tables.

    Row ``j`` is exactly :func:`~repro.analysis.evaluate.dense
    .op_cost_arrays` for member ``j`` — same probes, same floats — so
    stacking changes layout, never values.
    """
    rows = [op_cost_arrays(graph, cost) for cost in costs]
    duration = np.stack([r[0] for r in rows])
    act_units = np.stack([r[1] for r in rows])
    comm = np.stack([r[2] for r in rows])
    return duration, act_units, comm


def batched_wavefront_times(
    graph: ScheduleGraph,
    duration: FloatArray,
    act_units: FloatArray,
    comm: FloatArray,
) -> list[DenseTimes]:
    """Stacked max-plus replay: all rows sweep the shared plan at once.

    ``duration``/``act_units`` are ``(k, num_ops)``, ``comm`` is
    ``(k, num_edges)``; the result is one :class:`DenseTimes` per row,
    each bit-identical to :func:`~repro.analysis.evaluate.dense
    .wavefront_times` on that row (module docstring).
    """
    num_ops = graph.num_ops
    k = int(duration.shape[0])
    if num_ops == 0:
        empty = np.zeros(0, dtype=np.float64)
        return [
            DenseTimes(
                start=empty,
                end=empty.copy(),
                duration=duration[j],
                act_units=act_units[j],
                comm=comm[j],
                levels=0,
            )
            for j in range(k)
        ]
    tables = _graph_tables(graph)
    start = np.zeros((k, num_ops), dtype=np.float64)
    end = np.zeros((k, num_ops), dtype=np.float64)
    order, indptr = tables.order, tables.level_indptr
    width = tables.dep_src.shape[1]
    zero = np.float64(0.0)
    for lv in range(tables.levels):
        a, b = int(indptr[lv]), int(indptr[lv + 1])
        # The tables are pre-gathered into plan order, so each level is
        # a contiguous slice; padded slots read a harmless column 0 and
        # are masked to 0.0, which max() absorbs (start times are
        # >= 0).  One 3-D gather per level replaces the former
        # per-in-degree-slot loop — same operands, same floats, a
        # constant number of NumPy dispatches per wavefront.
        t = np.where(
            tables.prog_mask[a:b], end[:, tables.prog_src[a:b]], zero
        )
        if width:
            arrival = (
                end[:, tables.dep_src[a:b]] + comm[:, tables.dep_edge[a:b]]
            )
            np.maximum(
                t,
                np.where(tables.dep_mask[a:b], arrival, zero).max(axis=2),
                out=t,
            )
        idx = order[a:b]
        start[:, idx] = t
        end[:, idx] = t + duration[:, idx]
    return [
        DenseTimes(
            start=start[j],
            end=end[j],
            duration=duration[j],
            act_units=act_units[j],
            comm=comm[j],
            levels=tables.levels,
        )
        for j in range(k)
    ]


def _require_one_topology(
    rep: ScheduleGraph, graphs: Sequence[ScheduleGraph]
) -> None:
    """Exact structural-agreement check over the raw graph tables.

    Deliberately *not* phrased through ``structure_key()`` or any
    caller-provided grouping key: a bug (or seeded mutation) in the
    planner's class grouping must land here as a ``ValueError``, never
    as silently mis-priced members.
    """
    for j, graph in enumerate(graphs):
        if graph is rep:
            continue
        if (
            graph.problem != rep.problem
            or graph.kind != rep.kind
            or graph.cell != rep.cell
            or graph.gemm != rep.gemm
            or graph.stage_bounds != rep.stage_bounds
        ):
            raise ValueError(
                f"batched evaluation requires one topology class: member "
                f"{j} is structurally different from the representative "
                f"({graph.num_ops} vs {rep.num_ops} ops, problem "
                f"{graph.problem} vs {rep.problem})"
            )


def evaluate_schedule_batch(
    schedules: Sequence[Schedule],
    costs: Sequence[CostModel],
    overhead_times: Sequence[float],
    actgrad_factor: float = 1.0,
    sink: EventSink = NULL_SINK,
) -> list[AnalyticEvaluation]:
    """Evaluate one topology class of schedules in a single stacked pass.

    ``schedules[j]`` under ``costs[j]`` (plus ``overhead_times[j]``)
    produces element ``j`` of the result, bit-identical to
    ``evaluate_schedule(schedules[j], costs[j], overhead_times[j])`` —
    the structure (plan, gather tables, ledger masks, phase positions)
    is built once from the representative and shared, while every float
    comes from member ``j``'s own cost tables.  Raises ``ValueError``
    when the schedules are not structurally identical.
    """
    from repro.schedules.verify import ensure_verified

    if not (len(schedules) == len(costs) == len(overhead_times)):
        raise ValueError(
            f"mismatched batch: {len(schedules)} schedules, "
            f"{len(costs)} costs, {len(overhead_times)} overheads"
        )
    if not schedules:
        return []
    wall_start = time.perf_counter()
    for schedule in schedules:
        ensure_verified(schedule, context="evaluate")
    graphs = [compiled_graph(schedule) for schedule in schedules]
    rep = graphs[0]
    _require_one_topology(rep, graphs)

    duration, act_units, comm = _stack_cost_tables(rep, costs)
    times = batched_wavefront_times(rep, duration, act_units, comm)
    k = len(schedules)

    # Ledger deltas: `_ledger_deltas` is written over one row but every
    # operation broadcasts over (k, num_ops) unchanged — the per-row
    # floats are the scalar evaluator's.
    deltas = _ledger_deltas(rep, act_units, actgrad_factor)
    kind = np.asarray(rep.kind, dtype=np.int64)
    num_stages = len(rep.stage_bounds)
    zeros = np.zeros(k, dtype=np.float64)
    stage_busy = np.zeros((k, num_stages), dtype=np.float64)
    stage_peak = np.zeros((k, num_stages), dtype=np.float64)
    stage_ends = np.zeros((k, num_stages), dtype=np.float64)
    op_counts: list[int] = []
    warmups = np.zeros((k, num_stages), dtype=np.float64)
    steadies = np.zeros((k, num_stages), dtype=np.float64)
    start2d = np.stack([t.start for t in times])
    end2d = np.stack([t.end for t in times])
    for s, (lo, hi) in enumerate(rep.stage_bounds):
        op_counts.append(hi - lo)
        if hi > lo:
            # Batched strictly-sequential prefix sums: accumulate along
            # axis 1 visits each row's ops in program order, exactly
            # like the scalar evaluator's 1-D accumulate per stage.
            stage_busy[:, s] = np.add.accumulate(
                duration[:, lo:hi], axis=1
            )[:, -1]
            running = np.add.accumulate(deltas[:, lo:hi], axis=1)
            stage_peak[:, s] = np.maximum(0.0, running.max(axis=1))
            stage_ends[:, s] = end2d[:, hi - 1]
        # Phase boundaries from structure-determined positions (the
        # first B and last F of a stage are the same op for every
        # member of the class).
        kind_s = kind[lo:hi]
        b_pos = np.nonzero(kind_s == KIND_B)[0]
        f_pos = np.nonzero(kind_s == KIND_F)[0]
        s_end = stage_ends[:, s] if hi > lo else zeros
        warm = start2d[:, lo + int(b_pos[0])] if b_pos.size else s_end
        last_f = end2d[:, lo + int(f_pos[-1])] if f_pos.size else warm
        warmups[:, s] = warm
        steadies[:, s] = np.minimum(np.maximum(warm, last_f), s_end)

    results: list[AnalyticEvaluation] = []
    for j in range(k):
        ends_j = stage_ends[j].tolist()
        makespan = max(ends_j) if ends_j else 0.0
        comm_s, path_ops = _critical_path(rep, times[j])
        phases = tuple(
            StagePhases(
                stage=s,
                warmup_end=float(warmups[j, s]),
                steady_end=float(steadies[j, s]),
                end=float(stage_ends[j, s]),
            )
            for s in range(num_stages)
        )
        iteration = makespan + overhead_times[j]
        certificate = EvalCertificate(
            kind="exact",
            lower=iteration,
            upper=iteration,
            basis=EXACT_CERTIFICATE_BASIS,
        )
        result = AnalyticEvaluation(
            schedule_name=schedules[j].name,
            problem=rep.problem,
            makespan=makespan,
            overhead_time=overhead_times[j],
            stage_busy=tuple(stage_busy[j].tolist()),
            stage_peak_units=tuple(stage_peak[j].tolist()),
            stage_ends=tuple(ends_j),
            stage_op_counts=tuple(op_counts),
            phases=phases,
            comm_on_critical_path_s=comm_s,
            critical_path_ops=path_ops,
            levels=times[j].levels,
            certificate=certificate,
            times=times[j],
        )
        stamp_byte_sizes(result, costs[j])
        results.append(result)

    if sink.enabled:
        wall_end = time.perf_counter()
        sink.span(
            f"evaluate batch x{k} {schedules[0].name}",
            ts=wall_start,
            dur=wall_end - wall_start,
            cat="evaluate",
            args={
                "ops": rep.num_ops,
                "batch": k,
                "levels": times[0].levels,
            },
        )
        sink.counter("batch_size", float(k), ts=wall_end)
    return results
