r"""Golden reference for the build-free bounds.

This module preserves :func:`iteration_time_bounds` and
:func:`peak_units_floor` exactly as they stood before
:mod:`repro.analysis.evaluate.bounds` moved to reading the per-(problem,
cost) :class:`~repro.sim.cost.CostTable`: every cost is probed through
``OpId``\ s and the :func:`~tests.oracles.cost_memo.op_cost_fns` memo.  The
tabular implementation is held to it with ``==`` on every field
(``tests/test_bounds_oracle.py``), so the float operands and their
summation order cannot drift.

Nothing here may be "improved": the whole value of the file is that it
computes the old answer the old way.
"""

from __future__ import annotations

from repro.analysis.evaluate.bounds import GUARD, TimeBounds
from repro.analysis.evaluate.core import EvalCertificate
from repro.schedules.base import OpId, OpKind, PipelineProblem
from repro.sim.cost import CostModel

from tests.oracles.cost_memo import op_cost_fns


def iteration_time_bounds(
    problem: PipelineProblem,
    cost: CostModel,
    overhead_time: float = 0.0,
) -> TimeBounds | None:
    """Certified ``[lower, upper]`` on the iteration time, build-free.

    Returns ``None`` when the cost model does not declare
    ``microbatch_invariant`` — the tables below probe micro-batch 0
    only, which is only sound when costs do not depend on the
    micro-batch index (both built-in models qualify).
    """
    if not getattr(cost, "microbatch_invariant", False):
        return None
    dur_fn, comm_fn, _act_fn = op_cost_fns(cost)
    n = problem.num_microbatches
    s = problem.num_slices
    chunks = problem.num_chunks
    split = problem.split_backward
    gemms = problem.wgrad_gemms
    p = problem.num_stages

    def f_op(sl: int, c: int) -> OpId:
        return OpId(OpKind.F, 0, sl, c)

    def b_op(sl: int, c: int) -> OpId:
        return OpId(OpKind.B, 0, sl, c)

    def w_op(sl: int, c: int, g: int) -> OpId:
        return OpId(OpKind.W, 0, sl, c, g)

    # Per-(slice, chunk) cost tables.
    d_f = [[dur_fn(f_op(sl, c)) for c in range(chunks)] for sl in range(s)]
    d_b = [[dur_fn(b_op(sl, c)) for c in range(chunks)] for sl in range(s)]
    d_w = [
        [
            sum(dur_fn(w_op(sl, c, g)) for g in range(gemms)) if split else 0.0
            for c in range(chunks)
        ]
        for sl in range(s)
    ]
    # Forward-chain comm into chunk c (edge F(c-1) -> F(c)).
    c_f = [
        [comm_fn(f_op(sl, c - 1), f_op(sl, c)) for c in range(1, chunks)]
        for sl in range(s)
    ]
    # Backward-chain comm into chunk c (edge B(c+1) -> B(c)).
    c_b = [
        [comm_fn(b_op(sl, c + 1), b_op(sl, c)) for c in range(chunks - 1)]
        for sl in range(s)
    ]

    # busy(k): every stage must run all its ops.
    stage_busy: list[float] = []
    for k in range(p):
        work = 0.0
        for c in problem.chunks_of_stage(k):
            for sl in range(s):
                work += d_f[sl][c] + d_b[sl][c] + d_w[sl][c]
        stage_busy.append(n * work)

    # ramp(k): cheapest forward chain to the stage's lowest chunk.
    ramps: list[float] = []
    for k in range(p):
        c_min = min(problem.chunks_of_stage(k))
        ramp = min(
            sum(d_f[sl][c] for c in range(c_min))
            + sum(c_f[sl][c] for c in range(c_min))
            for sl in range(s)
        )
        ramps.append(ramp)

    # chain(sl): one micro-batch's F chain out, B chain back, one W GEMM.
    chains: list[float] = []
    for sl in range(s):
        chain = sum(d_f[sl]) + sum(c_f[sl]) + sum(d_b[sl]) + sum(c_b[sl])
        chain += comm_fn(f_op(sl, chunks - 1), b_op(sl, chunks - 1))
        if split:
            chain += min(
                dur_fn(w_op(sl, 0, g)) + comm_fn(b_op(sl, 0), w_op(sl, 0, g))
                for g in range(gemms)
            )
        chains.append(chain)

    lb_raw = max(
        max(ramps[k] + stage_busy[k] for k in range(p)),
        max(chains),
    )

    # Upper bound: total work plus every dependency edge's comm.
    total_comm = 0.0
    for sl in range(s):
        total_comm += sum(c_f[sl]) + sum(c_b[sl])
        for c in range(chunks):
            if sl > 0:
                total_comm += comm_fn(f_op(sl - 1, c), f_op(sl, c))
            if sl < s - 1:
                total_comm += comm_fn(b_op(sl + 1, c), b_op(sl, c))
            total_comm += comm_fn(f_op(sl, c), b_op(sl, c))
            if split:
                total_comm += sum(
                    comm_fn(b_op(sl, c), w_op(sl, c, g)) for g in range(gemms)
                )
    ub_raw = sum(stage_busy) + n * total_comm

    lower = lb_raw * (1.0 - GUARD) + overhead_time
    upper = ub_raw * (1.0 + GUARD) + overhead_time
    certificate = EvalCertificate(
        kind="bounded",
        lower=lower,
        upper=upper,
        basis=(
            "tabular busy/ramp/chain lower bound and binding-path upper "
            "bound over the per-(slice, chunk) cost tables, guard band "
            f"{GUARD:g}"
        ),
    )
    return TimeBounds(
        lower=lower,
        upper=upper,
        stage_busy=tuple(stage_busy),
        certificate=certificate,
    )


def peak_units_floor(
    problem: PipelineProblem,
    cost: CostModel,
    forwards_floor: int | None = None,
) -> float:
    """Certified lower bound on any schedule's peak ledger units.

    ``forwards_floor`` asserts that some stage holds at least that many
    forward ops' activations live at once (the schedule family's
    forwards-before-first-backward knob); without it, the floor is the
    single cheapest forward — the instant before the first backward
    starts, at least one forward's activation is pinned.

    The bound multiplies the *cheapest* per-forward units, so it is
    sound for any mix of slices/chunks the floor's forwards cover, and
    it is pre-scaled by :data:`GUARD` to absorb summation-order
    rounding against the simulator's ledger.
    """
    if not getattr(cost, "microbatch_invariant", False):
        return 0.0
    _dur_fn, _comm_fn, act_fn = op_cost_fns(cost)
    min_units = min(
        act_fn(OpId(OpKind.F, 0, sl, c))
        for sl in range(problem.num_slices)
        for c in range(problem.num_chunks)
    )
    # A stage's first chunk sees n*s forwards in total, so the in-flight
    # count can never legitimately exceed that — cap the asserted floor.
    available = problem.num_microbatches * problem.num_slices
    count = max(1, min(forwards_floor or 1, available))
    return count * min_units * (1.0 - GUARD)
