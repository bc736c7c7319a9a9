#!/usr/bin/env python3
"""Gallery of pipeline schedules as ASCII timelines (Figures 2-7).

Renders GPipe, DAPPLE 1F1B, interleaved VPP, TeraPipe, ZB-1P, SVPP
(with two f variants), and full MEPipe on the same 4-stage,
4-micro-batch problem, so their structure — and MEPipe's memory
behaviour — can be compared at a glance.

Run:  python examples/schedule_gallery.py
"""

from repro.schedules import build_problem, build_schedule, svpp_variants
from repro.sim import UniformCost, simulate
from repro.viz import render_memory_profile, render_timeline

P, N = 4, 4
WIDTH = 110


def show(title: str, method: str, tw: float = 0.0, f=None, **kwargs) -> None:
    problem = build_problem(method, P, N, **kwargs)
    schedule = build_schedule(
        method, problem, forwards_before_first_backward=f)
    result = simulate(schedule, UniformCost(problem, tb=1.0, tw=tw))
    print(f"--- {title} ---")
    print(render_timeline(result, width=WIDTH))
    print()


def main() -> None:
    print("digits = forward (micro-batch id), letters = backward, "
          "w = weight-gradient GEMM, . = bubble\n")
    show("GPipe: all forwards, then all backwards", "gpipe")
    show("DAPPLE 1F1B (Figure 2)", "dapple")
    show("Interleaved VPP, v=2", "vpp", virtual_size=2)
    show("TeraPipe, s=4 slices (Figure 3)", "terapipe", num_slices=4)
    show("ZB-1P: split backward, W fills the drain", "zb", tw=1.0)
    show("SVPP s=2 (Figure 4(a))", "svpp", num_slices=2)
    show("SVPP s=2, v=2 (Figure 4(b))", "svpp", num_slices=2, virtual_size=2)

    # The Figure 5 variants: trade memory for bubbles via f.
    problem = build_problem("svpp", P, 2, num_slices=2, virtual_size=2)
    fs = svpp_variants(problem)
    for f in (fs[0], fs[len(fs) // 2], fs[-1]):
        show(f"SVPP variant f={f} (Figure 5)", "svpp",
             f=f, num_slices=2, virtual_size=2)

    show("MEPipe: SVPP + fine-grained W (Figure 7)", "mepipe",
         tw=0.8, num_slices=2, wgrad_gemms=4)

    # Stage 0's activation footprint over time: the Figure 4(a)
    # arithmetic (peak 5/8 A) as a picture.
    problem = build_problem("svpp", P, N, num_slices=2)
    result = simulate(build_schedule("svpp", problem),
                      UniformCost(problem, tb=1.0))
    print("--- SVPP stage-0 activation memory over time ---")
    print(render_memory_profile(result, stage=0, width=WIDTH, height=8))

    diagnose_corrupted_schedule()


def diagnose_corrupted_schedule() -> None:
    """What the static verifier reports on a deliberately broken schedule.

    Swapping a backward in front of its own forward on the last stage
    deadlocks the schedule: the verifier names the rule, shows where
    each stage wedges, and prints the minimal blocking cycle that
    proves it (docs/verification.md).
    """
    from repro.schedules import (
        OpId,
        OpKind,
        Schedule,
        StageProgram,
        build_schedule,
        verify_schedule,
    )

    # A schedule is frozen once built: corrupt an edited copy.
    built = build_schedule("dapple", build_problem("dapple", P, N))
    last = list(built.programs[-1].ops)
    fwd = OpId(OpKind.F, 0, 0, P - 1)
    bwd = OpId(OpKind.B, 0, 0, P - 1)
    i, j = last.index(fwd), last.index(bwd)
    last[i], last[j] = last[j], last[i]
    programs = [*built.programs[:-1], StageProgram(P - 1, last)]
    schedule = Schedule(built.problem, programs, built.name)

    print()
    print("--- the static verifier on a corrupted schedule ---")
    print(f"(swapped {fwd} and {bwd} on stage {P - 1}; "
          "try `python -m repro verify <method>` on a real one)\n")
    print(verify_schedule(schedule, method="dapple").render_text())


if __name__ == "__main__":
    main()
