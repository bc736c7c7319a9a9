"""Sequence Virtual Pipeline Parallelism — MEPipe's core schedule.

SVPP (Section 4) schedules forward and backward passes at *slice*
granularity, interleaving them 1F1B-style so that the number of live
slice-activations is bounded by the ``f`` parameter (the forwards
executed before the first backward).  The memory-optimal variant uses
``f = v*max(p,s) + min(p,s) - 1``; smaller ``f`` (down to ``v*s``)
trades bubbles for memory — the Figure 5 variants.

``mepipe_schedule`` adds the paper's second technique on top: the
backward pass is split into activation-gradient (B) and per-GEMM
weight-gradient (W) ops, and W GEMMs are scheduled dynamically into
communication/imbalance gaps (Section 5).
"""

from __future__ import annotations

from repro.schedules.base import PipelineProblem, Schedule, ScheduleError
from repro.schedules.greedy import (
    GreedyPolicy,
    MemoryCeiling,
    default_first_stage_cap,
    greedy_schedule,
    min_first_stage_cap,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.sim.cost import CostModel


def svpp_problem(
    num_stages: int,
    num_microbatches: int,
    num_slices: int,
    virtual_size: int = 1,
) -> PipelineProblem:
    """Problem shape for plain SVPP (fused backward)."""
    return PipelineProblem(
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        num_slices=num_slices,
        virtual_size=virtual_size,
    )


def svpp_schedule(
    problem: PipelineProblem,
    forwards_before_first_backward: int | None = None,
    cost: CostModel | None = None,
    optimize_backward_order: bool = True,
    ceiling: MemoryCeiling | None = None,
) -> Schedule:
    """Generate an SVPP schedule (Sections 4.1-4.3).

    Args:
        problem: The pipeline problem (any ``s``, ``v``).
        forwards_before_first_backward: The ``f`` variant parameter;
            ``None`` selects the memory-optimal maximum.  Must lie in
            ``[v*s, v*max(p,s) + min(p,s) - 1]``.
        cost: Durations the generator plans with (profiler stand-in).
        optimize_backward_order: Apply the child-count backward
            prioritization of Section 4.3; False keeps FIFO backwards,
            for the ablation.
        ceiling: See :func:`~repro.schedules.greedy.greedy_schedule`.
    """
    f = forwards_before_first_backward
    if f is not None and f > default_first_stage_cap(problem):
        raise ScheduleError(
            f"f={f} exceeds the useful maximum "
            f"{default_first_stage_cap(problem)}; extra forwards cannot run"
        )
    # Uniform caps (slope 0): the peak lives on stage 0 either way, and
    # later stages need the full window to hide the chunk-round-trip
    # latency when v > 1.
    policy = GreedyPolicy(
        first_stage_cap=f,
        cap_slope=0,
        backward_priority="children" if optimize_backward_order else "fifo",
        fill_with_wgrad=False,
    )
    label = "svpp" if f is None else f"svpp(f={f})"
    return greedy_schedule(problem, policy, cost, name=label, ceiling=ceiling)


def svpp_variants(problem: PipelineProblem) -> list[int]:
    """All feasible ``f`` values, memory-hungriest first (Figure 5)."""
    return list(
        range(default_first_stage_cap(problem), min_first_stage_cap(problem) - 1, -1)
    )


def mepipe_problem(
    num_stages: int,
    num_microbatches: int,
    num_slices: int,
    virtual_size: int = 1,
    wgrad_gemms: int = 4,
) -> PipelineProblem:
    """Problem shape for full MEPipe (split backward, fine-grained W)."""
    return PipelineProblem(
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        num_slices=num_slices,
        virtual_size=virtual_size,
        split_backward=True,
        wgrad_gemms=wgrad_gemms,
    )


def mepipe_schedule(
    problem: PipelineProblem,
    forwards_before_first_backward: int | None = None,
    cost: CostModel | None = None,
    fine_grained_wgrad: bool = True,
    ceiling: MemoryCeiling | None = None,
) -> Schedule:
    """SVPP plus fine-grained weight-gradient computation (Section 5).

    With ``fine_grained_wgrad`` disabled, each stage computes weight
    gradients immediately after the corresponding backward pass — the
    Figure 11 baseline used by the Section 7.5 ablation.
    """
    if not problem.split_backward:
        raise ScheduleError("MEPipe needs a split backward pass")
    policy = GreedyPolicy(
        first_stage_cap=forwards_before_first_backward,
        cap_slope=0,
        fill_with_wgrad=fine_grained_wgrad,
    )
    name = "mepipe" if fine_grained_wgrad else "mepipe(w-immediate)"
    return greedy_schedule(problem, policy, cost, name=name, ceiling=ceiling)
