"""Check claimed op times against the replay recurrence.

A replay computes every op's start with

``start[i] = max(end[i-1] if pos[i] > 0 else 0,
maxₑ end[pred[e]] + comm[e])``, ``end[i] = start[i] + duration[i]``.

On an acyclic graph (the verifier's deadlock verdict) this recurrence
has exactly one solution, so times that satisfy every op's equation
*are* the replay's times (docs/evaluation.md, "the max-plus
argument").  :func:`check` tests that with a few NumPy passes over the
compiled graph's CSR — no replay loop, no topological plan and no cost
probing of its own — which is what lets the planner take a greedy
build's committed timeline, or a kernel replay's, as the oracle's
answer instead of replaying it again.

Equality is exact: the per-edge sums are the same float operands every
engine adds, and ``max`` is exact and order-independent.  With every
cost non-negative and no claimed start carrying a sign bit, no operand
is NaN or ``-0.0``, so equal values are equal bits and a pass is a
bit-for-bit answer.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.evaluate.dense import DenseTimes, FloatArray
from repro.schedules.graph import ScheduleGraph


def check(
    graph: ScheduleGraph,
    start: FloatArray,
    duration: FloatArray,
    comm: FloatArray,
) -> DenseTimes | None:
    """``start`` (dense op order) as the replay's times under
    ``(duration, comm)`` (per op; per ``graph.pred`` edge), or ``None``
    when any op's start is not its recurrence's value.

    Relies on ``graph`` being acyclic together with its program-order
    edges, which :func:`repro.schedules.verify.ensure_verified` has
    established before any caller reaches here.
    """
    num_ops = graph.num_ops
    pred = np.asarray(graph.pred)
    if not (
        start.shape == duration.shape == (num_ops,)
        and comm.shape == pred.shape
        and (duration >= 0).all()
        and (comm >= 0).all()
        and not np.signbit(start).any()
    ):
        return None
    end = start + duration
    # One segment per op: its stage predecessor's end (0.0 for a
    # stage's first op), then ``end[pred] + comm`` of each edge, so no
    # segment is empty and ``reduceat`` reduces each one.
    indptr = np.asarray(graph.pred_indptr)
    heads = np.arange(num_ops) + indptr[:-1]
    bound = np.empty(num_ops + pred.size)
    bound[heads] = np.where(np.asarray(graph.pos) > 0, np.roll(end, 1), 0.0)
    edge_op = np.repeat(np.arange(num_ops), np.diff(indptr))
    bound[np.arange(pred.size) + edge_op + 1] = end[pred] + comm
    if num_ops and not (np.maximum.reduceat(bound, heads) == start).all():
        return None
    return DenseTimes(graph, start, end, duration, comm)
