"""Zero-bubble pipeline baselines (ZB-1P and ZBV) and Hanayo.

Zero bubble pipeline parallelism (Qi et al., ICLR'24) splits the
backward pass into activation-gradient (B) and weight-gradient (W)
computation; the deferred W ops fill the drain-phase bubbles.  ZB-1P
extends DAPPLE this way; ZBV extends the wave-style (Hanayo) schedule
with a V-shaped chunk placement.  The paper treats both as its
strongest baselines (Section 7.1).

We generate both — and Hanayo itself — with the greedy engine: 1F1B
caps on a micro-batch-granular problem, split backward for the ZB
variants, and V-shaped chunk placement for the wave schedules.
"""

from __future__ import annotations

from repro.schedules.base import PipelineProblem, Schedule, ScheduleError
from repro.schedules.greedy import GreedyPolicy, MemoryCeiling, greedy_schedule
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.sim.cost import CostModel


def zb_problem(
    num_stages: int, num_microbatches: int, wgrad_gemms: int = 1
) -> PipelineProblem:
    """Problem shape for ZB-1P (micro-batch granularity, split backward)."""
    return PipelineProblem(
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        split_backward=True,
        wgrad_gemms=wgrad_gemms,
    )


def zb_schedule(
    problem: PipelineProblem,
    cost: CostModel | None = None,
    ceiling: MemoryCeiling | None = None,
) -> Schedule:
    """ZB-1P: DAPPLE-like 1F1B with deferred, bubble-filling W ops.

    The live-activation cap matches DAPPLE (``p`` on the first stage),
    so memory stays comparable — modulo the activation gradients pinned
    while W is deferred, which is what pushed ZB over the memory edge in
    the paper's experiments (Section 7.2).
    """
    if not problem.split_backward or problem.num_slices != 1:
        raise ScheduleError("ZB-1P needs split backward and whole micro-batches")
    policy = GreedyPolicy(
        first_stage_cap=problem.num_stages,
        fill_with_wgrad=True,
        wgrad_defer_samples=0.5,  # ZB-1P keeps memory near 1F1B level
    )
    return greedy_schedule(problem, policy, cost, name="zb", ceiling=ceiling)


def zbv_problem(
    num_stages: int, num_microbatches: int, wgrad_gemms: int = 1
) -> PipelineProblem:
    """Problem shape for ZBV (two V-placed chunks per stage)."""
    return PipelineProblem(
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        virtual_size=2,
        split_backward=True,
        wgrad_gemms=wgrad_gemms,
        chunk_placement="vshape",
    )


def zbv_schedule(
    problem: PipelineProblem,
    cost: CostModel | None = None,
    ceiling: MemoryCeiling | None = None,
) -> Schedule:
    """ZBV: zero-bubble scheduling over a V-shaped two-chunk placement."""
    if problem.virtual_size != 2 or problem.chunk_placement != "vshape":
        raise ScheduleError("ZBV needs v=2 with vshape placement")
    # V-shaped placement balances activations across stages, so the cap
    # is uniform (slope 0) instead of the interleaved staircase, and
    # backwards retire in arrival order (the wave has no tail-reordering
    # freedom to exploit).
    p = problem.num_stages
    policy = GreedyPolicy(
        first_stage_cap=2 * p,
        cap_slope=0,
        fill_with_wgrad=True,
        backward_priority="fifo",
        wgrad_defer_samples=0.5,
    )
    return greedy_schedule(problem, policy, cost, name="zbv", ceiling=ceiling)


def hanayo_problem(
    num_stages: int, num_microbatches: int, waves: int = 2
) -> PipelineProblem:
    """Problem shape for Hanayo's wave schedule (``waves`` chunk rounds)."""
    return PipelineProblem(
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        virtual_size=waves,
        chunk_placement="vshape",
    )


def hanayo_schedule(
    problem: PipelineProblem,
    cost: CostModel | None = None,
    ceiling: MemoryCeiling | None = None,
) -> Schedule:
    """Hanayo: wave-like scheduling, fused backward.

    Memory matches DAPPLE (Table 3: ``A`` on the first stage for
    ``n >= p``) while the extra waves cut the bubble to
    ``(p-1)/(p-1+n*v)``.
    """
    if problem.chunk_placement != "vshape" or problem.split_backward:
        raise ScheduleError("Hanayo needs vshape placement and fused backward")
    p, v = problem.num_stages, problem.virtual_size
    policy = GreedyPolicy(
        first_stage_cap=v * p,
        cap_slope=0,
        fill_with_wgrad=False,
        backward_priority="fifo",
    )
    return greedy_schedule(problem, policy, cost, name="hanayo", ceiling=ceiling)
