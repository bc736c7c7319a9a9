"""Static activation liveness and memory lint (LV/AN rules).

Walks each stage's program under the Section 4.5 activation model —
the same accounting the discrete-event executor's ledger applies at
simulation time, but derived purely from the op table:

* ``F(mb, sl, c)`` materializes one slice-activation
  (``1/(v*p*s)`` of ``A``) on its stage, live until consumed;
* with a fused backward, ``B`` consumes and frees it;
* with a split backward, ``B`` additionally materializes the
  activation gradients and each of the ``g`` deferred ``W`` GEMMs
  releases a ``1/g`` share of both.

Because memory on a stage changes only at that stage's own ops, and a
stage executes its program strictly in order, the per-stage peak is a
*static* property of the program — no timing needed.  That is what
makes the closed-form cross-check (AN001) possible: the walked peak of
the peak stage must not exceed the method's Table 3 expression.

Defects reported:

* LV001 — an op consumes activation state that is not live (freed by
  an earlier consumer, or never materialized);
* LV002 — activation state still pinned at iteration end (a leak that
  compounds across iterations);
* AN001 — the walked peak exceeds the closed form, anchored at the
  first op that pushes memory past the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schedules.base import OpId, OpKind, Schedule
from repro.schedules.graph import KIND_B, KIND_F, ScheduleGraph
from repro.schedules.verify.diagnostics import Finding

#: Numerical slack for comparing sums of activation units against the
#: closed forms (both are exact in infinite precision).
_UNIT_TOL = 1e-6

#: Cap on individually reported leaked/violating ops per stage.
_MAX_DETAIL = 4


@dataclass
class StagePeak:
    """Outcome of walking one stage's program."""

    stage: int
    peak_units: float  #: peak pinned memory, activations + act-grads
    peak_activation_units: float  #: peak pinned activations only
    peak_op: OpId | None  #: first op at which ``peak_units`` is reached


def _check_liveness_graph(
    graph: ScheduleGraph, actgrad_factor: float
) -> tuple[list[Finding], list[StagePeak]]:
    """The same per-stage walk over the compiled graph.

    Keys the ``live``/``b_done`` state on the graph's integer cell
    index instead of ``(mb, sl, c)`` tuples — no tuple allocation or
    hashing per op — and accumulates in identical order, so peaks match
    the dict walk bit for bit.  Ints sort like the tuples they encode,
    so leak listings come out in the same order too.  Only the ops a
    finding or a ``peak_op`` names are decoded (``graph.op_at``); the
    full ``OpId`` tuple is never materialized.
    """
    problem = graph.problem
    unit = problem.activation_units_per_op
    gemms = problem.wgrad_gemms
    split = problem.split_backward
    s, chunks = problem.num_slices, problem.num_chunks
    op_at, kind, cell = graph.op_at, graph.kind, graph.cell
    findings: list[Finding] = []
    peaks: list[StagePeak] = []

    for stage, (lo, hi) in enumerate(graph.stage_bounds):
        live: dict[int, int] = {}
        b_done: set[int] = set()
        current = 0.0
        act_current = 0.0
        peak = 0.0
        act_peak = 0.0
        peak_at = -1
        violations = 0

        def violation(op: OpId, message: str, stage: int = stage) -> None:
            nonlocal violations
            violations += 1
            if violations <= _MAX_DETAIL:
                findings.append(
                    Finding("LV001", message, stage=stage, op=op)
                )

        for i in range(lo, hi):
            key = cell[i]
            kc = kind[i]
            if kc == KIND_F:
                if key in live:
                    op = op_at(i)
                    violation(
                        op,
                        f"{op} re-materializes an activation that is "
                        f"still live (earlier forward not yet consumed)",
                    )
                live[key] = gemms if split else 1
                current += unit
                act_current += unit
            elif kc == KIND_B:
                if key not in live:
                    op = op_at(i)
                    violation(
                        op,
                        f"{op} consumes activations of F{op.microbatch}."
                        f"{op.slice_idx}c{op.chunk} that are not live on "
                        f"stage {stage} (freed or never materialized)",
                    )
                elif key in b_done:
                    op = op_at(i)
                    violation(
                        op,
                        f"{op} re-runs a backward whose activations are "
                        f"already being drained by W GEMMs",
                    )
                if split:
                    b_done.add(key)
                    current += unit * actgrad_factor
                else:
                    live.pop(key, None)
                    current -= unit
                    act_current -= unit
            else:  # W
                if key not in b_done:
                    op = op_at(i)
                    violation(
                        op,
                        f"{op} runs before its backward B{op.microbatch}."
                        f"{op.slice_idx}c{op.chunk} produced the "
                        f"activation gradients it consumes",
                    )
                elif key not in live or live[key] <= 0:
                    op = op_at(i)
                    violation(
                        op,
                        f"{op} releases an activation share of "
                        f"F{op.microbatch}.{op.slice_idx}c{op.chunk} that "
                        f"was already freed (use-after-free)",
                    )
                else:
                    live[key] -= 1
                    if live[key] == 0:
                        del live[key]
                    current -= unit * (1.0 + actgrad_factor) / gemms
                    act_current -= unit / gemms
            if current > peak + 1e-12:
                peak = current
                peak_at = i
            if act_current > act_peak:
                act_peak = act_current

        if violations > _MAX_DETAIL:
            findings.append(
                Finding(
                    "LV001",
                    f"... and {violations - _MAX_DETAIL} more liveness "
                    f"violation(s) on stage {stage}",
                    stage=stage,
                )
            )
        if live:
            leaked = sorted(live)[:_MAX_DETAIL]
            detail = ", ".join(
                f"F{k // (s * chunks)}.{(k // chunks) % s}c{k % chunks}"
                for k in leaked
            )
            suffix = ", ..." if len(live) > _MAX_DETAIL else ""
            findings.append(
                Finding(
                    "LV002",
                    f"stage {stage} ends the iteration with {len(live)} "
                    f"activation(s) still pinned ({detail}{suffix}); "
                    f"~{len(live) * unit:.4f} A leaked per iteration",
                    stage=stage,
                    witness=tuple(
                        f"F{k // (s * chunks)}.{(k // chunks) % s}"
                        f"c{k % chunks}: materialized but never fully "
                        f"released"
                        for k in leaked
                    ),
                )
            )
        peaks.append(
            StagePeak(
                stage=stage,
                peak_units=peak,
                peak_activation_units=act_peak,
                peak_op=op_at(peak_at) if peak_at >= 0 else None,
            )
        )
    return findings, peaks


def check_liveness(
    schedule: Schedule,
    actgrad_factor: float = 1.0,
    graph: ScheduleGraph | None = None,
) -> tuple[list[Finding], list[StagePeak]]:
    """Lint every stage program; returns findings and per-stage peaks."""
    if graph is not None:
        return _check_liveness_graph(graph, actgrad_factor)
    problem = schedule.problem
    unit = problem.activation_units_per_op
    gemms = problem.wgrad_gemms
    findings: list[Finding] = []
    peaks: list[StagePeak] = []

    for program in schedule.programs:
        stage = program.stage
        # (mb, sl, c) -> number of W GEMM shares still to release;
        # fused-backward activations use a single share.
        live: dict[tuple[int, int, int], int] = {}
        b_done: set[tuple[int, int, int]] = set()
        current = 0.0
        act_current = 0.0
        peak = 0.0
        act_peak = 0.0
        peak_op: OpId | None = None
        violations = 0

        def violation(op: OpId, message: str) -> None:
            nonlocal violations
            violations += 1
            if violations <= _MAX_DETAIL:
                findings.append(
                    Finding("LV001", message, stage=stage, op=op)
                )

        for op in program.ops:
            key = (op.microbatch, op.slice_idx, op.chunk)
            if op.kind is OpKind.F:
                if key in live:
                    violation(
                        op,
                        f"{op} re-materializes an activation that is "
                        f"still live (earlier forward not yet consumed)",
                    )
                live[key] = gemms if problem.split_backward else 1
                current += unit
                act_current += unit
            elif op.kind is OpKind.B:
                if key not in live:
                    violation(
                        op,
                        f"{op} consumes activations of F{op.microbatch}."
                        f"{op.slice_idx}c{op.chunk} that are not live on "
                        f"stage {stage} (freed or never materialized)",
                    )
                elif key in b_done:
                    violation(
                        op,
                        f"{op} re-runs a backward whose activations are "
                        f"already being drained by W GEMMs",
                    )
                if problem.split_backward:
                    b_done.add(key)
                    current += unit * actgrad_factor
                else:
                    live.pop(key, None)
                    current -= unit
                    act_current -= unit
            else:  # W
                if key not in b_done:
                    violation(
                        op,
                        f"{op} runs before its backward B{op.microbatch}."
                        f"{op.slice_idx}c{op.chunk} produced the "
                        f"activation gradients it consumes",
                    )
                elif key not in live or live[key] <= 0:
                    violation(
                        op,
                        f"{op} releases an activation share of "
                        f"F{op.microbatch}.{op.slice_idx}c{op.chunk} that "
                        f"was already freed (use-after-free)",
                    )
                else:
                    live[key] -= 1
                    if live[key] == 0:
                        del live[key]
                    current -= unit * (1.0 + actgrad_factor) / gemms
                    act_current -= unit / gemms
            if current > peak + 1e-12:
                peak = current
                peak_op = op
            act_peak = max(act_peak, act_current)

        if violations > _MAX_DETAIL:
            findings.append(
                Finding(
                    "LV001",
                    f"... and {violations - _MAX_DETAIL} more liveness "
                    f"violation(s) on stage {stage}",
                    stage=stage,
                )
            )
        if live:
            leaked = sorted(live)[:_MAX_DETAIL]
            detail = ", ".join(
                f"F{mb}.{sl}c{c}" for mb, sl, c in leaked
            )
            suffix = ", ..." if len(live) > _MAX_DETAIL else ""
            findings.append(
                Finding(
                    "LV002",
                    f"stage {stage} ends the iteration with {len(live)} "
                    f"activation(s) still pinned ({detail}{suffix}); "
                    f"~{len(live) * unit:.4f} A leaked per iteration",
                    stage=stage,
                    witness=tuple(
                        f"F{mb}.{sl}c{c}: materialized but never fully "
                        f"released"
                        for mb, sl, c in leaked
                    ),
                )
            )
        peaks.append(
            StagePeak(
                stage=stage,
                peak_units=peak,
                peak_activation_units=act_peak,
                peak_op=peak_op,
            )
        )
    return findings, peaks


def check_closed_form(
    schedule: Schedule, method: str, peaks: list[StagePeak]
) -> list[Finding]:
    """AN001: the walked peak must not exceed the Table 3 closed form.

    Applies to methods with a Table 3 activation-memory row and a fused
    backward (the closed forms model activations; split-backward
    methods additionally pin deferred activation gradients, which Table
    3 prices separately — see ``docs/verification.md``).  Deliberate
    low-memory variants (smaller ``f``) sit *below* the bound, so only
    an excess is a defect.
    """
    from repro.schedules.analysis import analyze

    problem = schedule.problem
    if problem.split_backward:
        return []
    try:
        expected = analyze(
            method,
            problem.num_stages,
            problem.num_microbatches,
            s=problem.num_slices,
            v=problem.virtual_size,
        )
    except (KeyError, ValueError):
        return []  # no closed form for this method/shape
    worst = max(peaks, key=lambda pk: pk.peak_activation_units)
    bound = expected.memory_units
    if worst.peak_activation_units <= bound + _UNIT_TOL:
        return []
    first = _first_excess_op(schedule, worst.stage, bound)
    return [
        Finding(
            "AN001",
            f"peak activation memory {worst.peak_activation_units:.4f} A "
            f"on stage {worst.stage} exceeds the {expected.method} closed "
            f"form {bound:.4f} A (Table 3)",
            stage=worst.stage,
            op=first,
            witness=(
                f"first op past the bound: {first}",
                f"closed form: {expected.method}(p={problem.num_stages}, "
                f"n={problem.num_microbatches}, s={problem.num_slices}, "
                f"v={problem.virtual_size}) = {bound:.4f} A",
            ),
        )
    ]


def _first_excess_op(
    schedule: Schedule, stage: int, bound: float
) -> OpId | None:
    """First op on ``stage`` whose execution pushes memory past ``bound``."""
    problem = schedule.problem
    unit = problem.activation_units_per_op
    current = 0.0
    for op in schedule.programs[stage].ops:
        if op.kind is OpKind.F:
            current += unit
        elif op.kind is OpKind.B:
            current -= unit
        if current > bound + _UNIT_TOL:
            return op
    return None
