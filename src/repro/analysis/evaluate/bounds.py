"""Build-free certified bounds from the cost tables alone.

Where :mod:`repro.analysis.evaluate.core` needs a generated schedule
(and is exact), this module bounds what *any* compilable schedule of a
:class:`~repro.schedules.base.PipelineProblem` can achieve, straight
from the per-(slice, chunk) cost tables — no ``build_schedule``, no
graph.  The planner's analytic first pass uses these to prune dominated
configurations before paying for schedule generation.

Soundness arguments (each a dependency-graph fact, independent of the
builder's program order):

* ``busy(k)``: stage ``k`` must execute all of its ops serially, so the
  makespan is at least its total work.
* ``ramp(k)``: no op of stage ``k`` can start before the cheapest
  forward chain reaches the stage's lowest chunk, so the makespan is at
  least ``ramp(k) + busy(k)``.
* ``chain(sl)``: one micro-batch's F chain out, B chain back, and a
  final W GEMM form a real dependency path; the makespan is at least
  the longest such chain.
* Upper bound: backtracking binding constraints from the last-ending op
  yields a path that tiles ``[0, makespan]`` with op executions and
  comm waits, each op/edge at most once — so the makespan is at most
  total work plus total edge communication.

All comparisons against these bounds must treat them as certified only
up to the stored guard band (:data:`GUARD`), which absorbs the
summation-order rounding between the tabular sums and the simulator's
sequential accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.evaluate.core import EvalCertificate
from repro.schedules.base import PipelineProblem
from repro.sim.cost import CostModel, cost_table

#: Relative guard band on certified bounds: float summation order
#: differs between these closed forms and the simulator's sequential
#: accumulation by at most a few ulps; 1e-9 dominates that comfortably
#: while staying far below any real scheduling difference.
GUARD: float = 1e-9


@dataclass(frozen=True)
class TimeBounds:
    """Certified iteration-time interval for any schedule of a problem."""

    lower: float
    upper: float
    stage_busy: tuple[float, ...]
    certificate: EvalCertificate


def iteration_time_bounds(
    problem: PipelineProblem,
    cost: CostModel,
    overhead_time: float = 0.0,
) -> TimeBounds | None:
    """Certified ``[lower, upper]`` on the iteration time, build-free.

    Returns ``None`` when the cost model does not declare
    ``microbatch_invariant`` — the :func:`~repro.sim.cost.cost_table`
    read below holds micro-batch 0 only, which is only sound when costs
    do not depend on the micro-batch index (both built-in models
    qualify).  Every sum adds the table's floats in the order the
    per-``OpId`` derivation did (``tests/oracles/bounds_reference.py``),
    so the bounds are equal to it bit for bit.
    """
    table = cost_table(problem, cost)
    if table is None:
        return None
    n = problem.num_microbatches
    s = problem.num_slices
    chunks = problem.num_chunks
    split = problem.split_backward
    gemms = problem.wgrad_gemms
    p = problem.num_stages
    sc = s * chunks
    dur, w0 = table.dur, 2 * sc  # w0: the W block's first mb-0 code

    # Per-(slice, chunk) cost tables, rows sliced out of the mb-0 codes.
    rows = [range(sl * chunks, (sl + 1) * chunks) for sl in range(s)]
    d_f = [dur[r.start : r.stop] for r in rows]
    d_b = [dur[sc + r.start : sc + r.stop] for r in rows]
    d_w = [
        [sum(dur[w0 + b * gemms : w0 + (b + 1) * gemms]) for b in r]
        if split
        else [0.0] * chunks
        for r in rows
    ]
    # Forward-chain comm into chunk c (edge F(c-1) -> F(c)).
    c_f = [table.f_next_chunk[r.start : r.stop - 1] for r in rows]
    # Backward-chain comm into chunk c (edge B(c+1) -> B(c)).
    c_b = [table.b_prev_chunk[r.start + 1 : r.stop] for r in rows]

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
        chain += table.f_to_b[rows[sl].stop - 1]
        if split:
            w = rows[sl].start * gemms  # W(sl, 0, g) is W offset w + g
            chain += min(dur[w0 + w + g] + table.b_to_w[w + g] for g in range(gemms))
        chains.append(chain)

    lb_raw = max(
        max(ramps[k] + stage_busy[k] for k in range(p)),
        max(chains),
    )

    # Upper bound: total work plus every dependency edge's comm.
    total_comm = 0.0
    for sl in range(s):
        total_comm += sum(c_f[sl]) + sum(c_b[sl])
        for b in rows[sl]:
            if sl > 0:
                total_comm += table.f_next_slice[b - chunks]
            if sl < s - 1:
                total_comm += table.b_prev_slice[b + chunks]
            total_comm += table.f_to_b[b]
            if split:
                total_comm += sum(table.b_to_w[b * gemms : (b + 1) * gemms])
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
    forwards-before-first-backward knob); without it, the floor is one
    forward — the instant before the first backward starts, at least
    one forward's activation is pinned.

    Every forward pins the problem's one slice-activation unit, and the
    bound is pre-scaled by :data:`GUARD` to absorb summation-order
    rounding against the simulator's ledger.  A model that does not
    declare ``microbatch_invariant`` gets no bound (0.0), like
    :func:`iteration_time_bounds`.
    """
    if not getattr(cost, "microbatch_invariant", False):
        return 0.0
    # A stage's first chunk sees n*s forwards in total, so the in-flight
    # count can never legitimately exceed that — cap the asserted floor.
    available = problem.num_microbatches * problem.num_slices
    count = max(1, min(forwards_floor or 1, available))
    return count * problem.activation_units_per_op * (1.0 - GUARD)
