"""Vectorized max-plus evaluation of a compiled schedule graph.

The simulator's replay recurrence

``start[i] = max(end[i-1] if pos[i] > 0 else 0,
maxₑ end[pred[e]] + comm[e])``, ``end[i] = start[i] + duration[i]``

is a longest-path computation in the max-plus semiring over the op DAG.
IEEE-754 ``max`` is exact and order-independent, and every add uses the
identical float operands, so *any* topological evaluation order yields
bit-identical start/end arrays — this is the exactness theorem behind
the analytic evaluator's certificates and behind the simulator's
vectorized ``"event"`` engine, both of which consume the times computed
here.

Two optimizations keep this path an order of magnitude cheaper than
the event-driven replay without touching a single float:

* **Key-table cost probing** — when the cost model declares
  ``microbatch_invariant`` (the same contract
  :func:`~repro.sim.cost.op_cost_fns` memoizes on), every op cost is a
  pure function of ``(kind, slice, chunk, gemm)``.  The tables are
  probed once per distinct key (a few dozen calls) and broadcast to all
  ops/edges with NumPy gathers, instead of one Python-level cost call
  per op and per edge.
* **Plan caching** — the topological evaluation order and dependency
  height depend only on the graph, not the cost model, so they are
  computed once (Kahn) and cached on the compiled graph; replaying the
  recurrence for a cost model is then a single pass over flat arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.schedules.graph import ScheduleGraph, toposort_plan
from repro.sim.cost import CostModel, op_cost_fns

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]


@dataclass(frozen=True)
class DenseTimes:
    """Start/end times of every op, plus the cost tables that made them.

    All arrays are indexed by the graph's dense op index; ``comm`` is
    indexed like the graph's ``pred`` edge array.  ``levels`` is the
    dependency height of the schedule (the number of Kahn wavefronts).
    """

    start: FloatArray
    end: FloatArray
    duration: FloatArray
    act_units: FloatArray
    comm: FloatArray
    levels: int

    @property
    def num_ops(self) -> int:
        return int(self.start.shape[0])


def op_cost_arrays(
    graph: ScheduleGraph, cost: CostModel
) -> tuple[FloatArray, FloatArray, FloatArray]:
    """``(duration, act_units, comm)`` flat cost tables for ``graph``.

    Micro-batch-invariant cost models are probed once per distinct
    ``(kind, slice, chunk, gemm)`` key — exactly the key the event
    engine's :func:`op_cost_fns` memo collapses to, so two ops sharing
    a key receive the identical float either way and the tables are
    bit-for-bit the simulator's.  The few representative ``OpId``\\ s
    those probes need come from ``graph.op_at`` (decoded from the dense
    tables), so ``graph.ops`` (the full 10k+ tuple) is never
    materialized on this path.  Non-invariant models fall back to one
    probe per op and per edge over the full op tuple.
    """
    num_ops = graph.num_ops
    if not getattr(cost, "microbatch_invariant", False):
        ops = graph.ops
        dur_fn, comm_fn, act_fn = op_cost_fns(cost)
        duration = np.fromiter(
            (dur_fn(op) for op in ops), dtype=np.float64, count=num_ops
        )
        act_units = np.fromiter(
            (act_fn(op) for op in ops), dtype=np.float64, count=num_ops
        )
        pred_indptr, pred = graph.pred_indptr, graph.pred
        comm = np.empty(len(pred), dtype=np.float64)
        for i in range(num_ops):
            op = ops[i]
            for e in range(pred_indptr[i], pred_indptr[i + 1]):
                comm[e] = comm_fn(ops[pred[e]], op)
        return duration, act_units, comm

    problem = graph.problem
    chunks = problem.num_chunks
    s = problem.num_slices
    gemms = problem.wgrad_gemms
    if num_ops == 0:
        empty = np.zeros(0, dtype=np.float64)
        return empty, empty.copy(), np.zeros(len(graph.pred), dtype=np.float64)

    kind = np.asarray(graph.kind, dtype=np.int64)
    cell = np.asarray(graph.cell, dtype=np.int64)
    gemm = np.asarray(graph.gemm, dtype=np.int64)  # -1 for F/B ops
    sl = (cell // chunks) % s
    c = cell % chunks
    # Dense memo key: (kind, slice, chunk, gemm), gemm shifted to >= 0.
    code = ((kind * s + sl) * chunks + c) * (gemms + 1) + (gemm + 1)
    uniq, inverse = np.unique(code, return_inverse=True)
    rep = np.empty(uniq.shape[0], dtype=np.int64)
    rep[inverse] = np.arange(num_ops, dtype=np.int64)

    op_at = graph.op_at
    dur_table = np.fromiter(
        (cost.duration(op_at(i)) for i in rep),
        dtype=np.float64,
        count=uniq.shape[0],
    )
    act_table = np.fromiter(
        (cost.act_units(op_at(i)) for i in rep),
        dtype=np.float64,
        count=uniq.shape[0],
    )
    duration = dur_table[inverse]
    act_units = act_table[inverse]

    pred = np.asarray(graph.pred, dtype=np.int64)
    pred_indptr = np.asarray(graph.pred_indptr, dtype=np.int64)
    if pred.shape[0] == 0:
        return duration, act_units, np.zeros(0, dtype=np.float64)
    edge_op = np.repeat(
        np.arange(num_ops, dtype=np.int64), np.diff(pred_indptr)
    )
    span = np.int64(int(code.max()) + 1)
    ecode = code[pred] * span + code[edge_op]
    euniq, einverse = np.unique(ecode, return_inverse=True)
    erep = np.empty(euniq.shape[0], dtype=np.int64)
    erep[einverse] = np.arange(ecode.shape[0], dtype=np.int64)
    comm_table = np.fromiter(
        (cost.comm_time(op_at(int(pred[e])), op_at(int(edge_op[e]))) for e in erep),
        dtype=np.float64,
        count=euniq.shape[0],
    )
    return duration, act_units, comm_table[einverse]


def dense_schedule_times(graph: ScheduleGraph, cost: CostModel) -> DenseTimes:
    """Evaluate the replay recurrence over ``graph`` under ``cost``.

    Raises :class:`ScheduleError` if the graph plus program-order edges
    contains a cycle — the same deadlock the simulator's engines
    detect.
    """
    duration, act_units, comm = op_cost_arrays(graph, cost)
    # The graph's cached topological plan: one Kahn pass serves the
    # verifier's deadlock verdict and this replay order.
    plan = toposort_plan(graph)
    start, end = wavefront_times(
        graph.pos,
        graph.pred_indptr,
        graph.pred,
        comm.tolist(),
        duration.tolist(),
        plan.order,
    )
    return DenseTimes(
        start=np.asarray(start, dtype=np.float64),
        end=np.asarray(end, dtype=np.float64),
        duration=duration,
        act_units=act_units,
        comm=comm,
        levels=plan.levels,
    )


def wavefront_times(
    pos: Sequence[int],
    pred_indptr: Sequence[int],
    pred: Sequence[int],
    comm: Sequence[float],
    duration: Sequence[float],
    order: Sequence[int],
) -> tuple[list[float], list[float]]:
    """Max-plus replay of a predecessor CSR in topological ``order``.

    The one scalar kernel: ``(pred_indptr, pred, comm)`` is any edge
    relation over the ops — the compiled graph's dependencies, or those
    plus slot-reuse edges (:func:`repro.analysis.capacity.
    bounded_dense_times`) — and ``order`` any topological order of it
    together with the program-order edges ``pos`` implies.  Returns
    ``(start, end)`` as flat lists.
    """
    # Scalar replay over flat lists: the recurrence is a dependency
    # chain (max alternating with add), so per-op latency — not
    # vectorizable width — is what matters; plain-list indexing beats
    # per-wavefront NumPy dispatch on the narrow fronts these pipeline
    # graphs produce.  Floats are bit-identical either way (module
    # docstring).
    num_ops = len(pos)
    start = [0.0] * num_ops
    end = [0.0] * num_ops
    for i in order:
        t = end[i - 1] if pos[i] > 0 else 0.0
        for e in range(pred_indptr[i], pred_indptr[i + 1]):
            arrival = end[pred[e]] + comm[e]
            if arrival > t:
                t = arrival
        start[i] = t
        end[i] = t + duration[i]
    return start, end
