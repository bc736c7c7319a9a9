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

* **Table cost reads** — when the cost model declares
  ``microbatch_invariant``, every op cost is a pure function of
  ``(kind, slice, chunk, gemm)``, and the model's mb-0
  :func:`~repro.sim.cost.cost_table` (probed once per problem and
  model, shared with the build-free bounds and the greedy generator)
  is broadcast to all ops/edges with NumPy gathers, instead of one
  Python-level cost call per op and per edge.
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

from repro.schedules.graph import KIND_F, KIND_W, ScheduleGraph, toposort_plan
from repro.sim.cost import CostModel, cost_table

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]


@dataclass(frozen=True)
class DenseTimes:
    """Start/end times of every op, plus the cost tables that made them.

    The one per-op time table: the kernel, the bounded replay, the heap
    oracle and the link replay all return it.  Every array is indexed
    by ``graph``'s dense op index; ``comm`` is indexed like the graph's
    ``pred`` edge array.
    """

    graph: ScheduleGraph
    start: FloatArray
    end: FloatArray
    duration: FloatArray
    comm: FloatArray

    @property
    def num_ops(self) -> int:
        return int(self.start.shape[0])


def first_divergence(a: DenseTimes, b: DenseTimes) -> int | None:
    """The lowest op index whose start or end differs between ``a`` and
    ``b`` (exact float comparison), or ``None`` when they agree."""
    differs = np.flatnonzero((a.start != b.start) | (a.end != b.end))
    return int(differs[0]) if differs.size else None


def op_cost_arrays(
    graph: ScheduleGraph, cost: CostModel
) -> tuple[FloatArray, FloatArray]:
    """``(duration, comm)`` flat cost tables for ``graph``.

    Micro-batch-invariant cost models are read from their mb-0
    :func:`~repro.sim.cost.cost_table`: each op gathers its
    ``(kind, slice, chunk, gemm)`` entry and each dependency edge its
    producer's entry of the edge's kind, so two ops sharing a key
    receive the identical float the model returns for it, and the
    tables are bit-for-bit the simulator's.  Non-invariant models fall
    back to one probe per op and per edge over the full op tuple.
    """
    num_ops = graph.num_ops
    table = cost_table(graph.problem, cost)
    if table is None:
        ops = graph.ops
        duration = np.fromiter(
            (cost.duration(op) for op in ops), dtype=np.float64, count=num_ops
        )
        pred_indptr, pred = graph.pred_indptr, graph.pred
        comm = np.empty(len(pred), dtype=np.float64)
        for i in range(num_ops):
            op = ops[i]
            for e in range(pred_indptr[i], pred_indptr[i + 1]):
                comm[e] = cost.comm_time(ops[pred[e]], op)
        return duration, comm

    problem = graph.problem
    chunks = problem.num_chunks
    sc = problem.num_slices * chunks
    kind = np.asarray(graph.kind)
    # mb-0 cell sl*chunks + c, and mb-0 code: F -> cell, B -> sc + cell,
    # W(g) -> 2*sc + cell*gemms + g (the table's layout).
    cell = np.asarray(graph.cell) % sc
    gemm = np.asarray(graph.gemm)
    code = np.where(
        kind == KIND_W, 2 * sc + cell * problem.wgrad_gemms + gemm, kind * sc + cell
    )
    duration = np.asarray(table.dur, dtype=np.float64)[code]

    pred = np.asarray(graph.pred)
    edge_op = np.repeat(
        np.arange(num_ops, dtype=np.int64), np.diff(np.asarray(graph.pred_indptr))
    )
    # Edge kinds in table order: F->F along the chunks, F->F across
    # slices, F->B, B->B along the chunks, B->B across slices (each
    # indexed by the producer's cell), then B->W (by the W offset).
    by_kind = np.asarray(
        table.f_next_chunk
        + table.f_next_slice
        + table.f_to_b
        + table.b_prev_chunk
        + table.b_prev_slice
        + table.b_to_w,
        dtype=np.float64,
    )
    src, dst = kind[pred], kind[edge_op]
    across = (cell[pred] // chunks != cell[edge_op] // chunks).astype(np.int64)
    block = np.where(dst == KIND_F, across, np.where(src == KIND_F, 2, 3 + across))
    slot = np.where(dst == KIND_W, 3 * sc + code[edge_op], block * sc + cell[pred])
    return duration, by_kind[slot]


def dense_schedule_times(graph: ScheduleGraph, cost: CostModel) -> DenseTimes:
    """Evaluate the replay recurrence over ``graph`` under ``cost``.

    Raises :class:`ScheduleError` if the graph plus program-order edges
    contains a cycle — the same deadlock the simulator's engines
    detect.
    """
    duration, comm = op_cost_arrays(graph, cost)
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
        graph=graph,
        start=np.asarray(start, dtype=np.float64),
        end=np.asarray(end, dtype=np.float64),
        duration=duration,
        comm=comm,
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
