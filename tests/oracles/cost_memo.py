"""The per-op cost memo the golden references probe through.

:func:`op_cost_fns` is the memo ``repro.sim.cost`` offered before the
bounds, the greedy generator and the dense replay moved to reading a
:class:`~repro.sim.cost.CostTable`; the references under this package
(``greedy_reference``, ``bounds_reference``) keep probing through it,
exactly as the code they preserve did.
"""

from __future__ import annotations

from typing import Callable

from repro.schedules.base import OpId, OpKind
from repro.sim.cost import CostModel


def op_cost_fns(
    cost: CostModel,
) -> tuple[
    Callable[[OpId], float],
    Callable[[OpId, OpId], float],
    Callable[[OpId], float],
]:
    """``(duration, comm_time, act_units)`` callables for ``cost``.

    When the model declares ``microbatch_invariant``, each callable
    memoizes on the op coordinates *minus* the micro-batch index, so a
    replay touches the underlying model O(kinds × slices × chunks)
    times instead of once per op/edge.  Values are identical to direct
    calls — the memo only removes repeated evaluation — so simulation
    results are unchanged bit for bit.
    """
    if not getattr(cost, "microbatch_invariant", False):
        return cost.duration, cost.comm_time, cost.act_units

    # Keys use interned kind tags (C-level string hash) rather than the
    # enum member's ``.value``, whose descriptor protocol would dominate
    # the probe cost; the identity-keyed table turns the tag lookup into
    # one dict probe.
    tag = {OpKind.F: "F", OpKind.B: "B", OpKind.W: "W"}
    dur_memo: dict[tuple[str, int, int, int], float] = {}
    comm_memo: dict[tuple, float] = {}
    act_memo: dict[tuple[str, int, int, int], float] = {}

    def duration(op: OpId) -> float:
        key = (tag[op.kind], op.slice_idx, op.chunk, op.gemm)
        v = dur_memo.get(key)
        if v is None:
            v = dur_memo[key] = cost.duration(op)
        return v

    def comm_time(dep: OpId, op: OpId) -> float:
        key = (
            tag[dep.kind], dep.slice_idx, dep.chunk, dep.gemm,
            tag[op.kind], op.slice_idx, op.chunk, op.gemm,
        )
        v = comm_memo.get(key)
        if v is None:
            v = comm_memo[key] = cost.comm_time(dep, op)
        return v

    def act_units(op: OpId) -> float:
        key = (tag[op.kind], op.slice_idx, op.chunk, op.gemm)
        v = act_memo.get(key)
        if v is None:
            v = act_memo[key] = cost.act_units(op)
        return v

    return duration, comm_time, act_units
