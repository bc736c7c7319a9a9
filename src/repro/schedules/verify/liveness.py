"""Static activation liveness and memory lint (LV/AN rules).

Walks each stage's program under the Section 4.5 activation model —
the ledger steps the discrete-event executor adds at simulation time
(:attr:`~repro.schedules.base.PipelineProblem.ledger_steps`), but
derived purely from the op table:

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
the peak stage must not exceed the method's Table 3 expression.  One
walk serves both sources of rows: a compiled graph's ``kind``/``cell``
tables, or the ``OpId`` programs of a schedule that did not compile.

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
from itertools import count
from typing import Callable, Sequence, TypeVar

from repro.schedules.base import OpId, OpKind, PipelineProblem, Schedule
from repro.schedules.graph import KIND_B, KIND_F, KIND_W, ScheduleGraph
from repro.schedules.verify.diagnostics import Finding

#: Numerical slack for comparing sums of activation units against the
#: closed forms (both are exact in infinite precision).
_UNIT_TOL = 1e-6

#: Cap on individually reported leaked/violating ops per stage.
_MAX_DETAIL = 4

#: An activation key of the walk: a compiled graph's cell index, or a
#: ``(mb, sl, c)`` tuple when walking ``OpId`` programs.
_Key = TypeVar("_Key", int, tuple[int, int, int])


@dataclass
class StagePeak:
    """Outcome of walking one stage's program."""

    stage: int
    peak_units: float  #: peak pinned memory, activations + act-grads
    peak_activation_units: float  #: peak pinned activations only
    peak_op: OpId | None  #: first op at which ``peak_units`` is reached


def check_liveness(
    schedule: Schedule,
    graph: ScheduleGraph | None = None,
) -> tuple[list[Finding], list[StagePeak]]:
    """Lint every stage program; returns findings and per-stage peaks.

    With a compiled ``graph`` the walk reads its ``kind``/``cell``
    tables and keys activations by the integer cell, decoding only the
    ops a finding or a ``peak_op`` names.  Without one (a schedule with
    structure findings) it reads the programs' ``OpId``s and keys by
    ``(mb, sl, c)`` tuples, since a foreign op's cell index could
    collide with a real one.  Int cells sort like the tuples they
    encode, so both sources report identically.
    """
    if graph is not None:
        problem = graph.problem
        s, chunks = problem.num_slices, problem.num_chunks
        rows = [
            (stage, lo, graph.kind[lo:hi], graph.cell[lo:hi])
            for stage, (lo, hi) in enumerate(graph.stage_bounds)
        ]

        def label(k: int) -> str:
            return f"F{k // (s * chunks)}.{(k // chunks) % s}c{k % chunks}"

        return _walk(problem, rows, graph.op_at, label)

    code_of = {OpKind.F: KIND_F, OpKind.B: KIND_B, OpKind.W: KIND_W}
    ops: list[OpId] = []
    tuple_rows: list[tuple[int, int, list[int], list[tuple[int, int, int]]]] = []
    for program in schedule.programs:
        tuple_rows.append(
            (
                program.stage,
                len(ops),
                [code_of[op.kind] for op in program.ops],
                [(op.microbatch, op.slice_idx, op.chunk) for op in program.ops],
            )
        )
        ops.extend(program.ops)

    def tuple_label(key: tuple[int, int, int]) -> str:
        mb, sl, c = key
        return f"F{mb}.{sl}c{c}"

    return _walk(schedule.problem, tuple_rows, ops.__getitem__, tuple_label)


def _walk(
    problem: PipelineProblem,
    rows: Sequence[tuple[int, int, Sequence[int], Sequence[_Key]]],
    op_at: Callable[[int], OpId],
    label: Callable[[_Key], str],
) -> tuple[list[Finding], list[StagePeak]]:
    """The per-stage walk.  ``rows`` holds, per stage, its number, the
    index ``op_at`` gives its first op, and its ops' kind codes and
    activation keys in program order."""
    unit = problem.activation_units_per_op
    f_step, b_step, w_step = problem.ledger_steps
    gemms = problem.wgrad_gemms
    split = problem.split_backward
    findings: list[Finding] = []
    peaks: list[StagePeak] = []

    for stage, start, kinds, keys in rows:
        # key -> number of W GEMM shares still to release; fused-backward
        # activations use a single share.
        live: dict[_Key, int] = {}
        b_done: set[_Key] = set()
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

        for i, kc, key in zip(count(start), kinds, keys):
            if kc == KIND_F:
                if key in live:
                    op = op_at(i)
                    violation(
                        op,
                        f"{op} re-materializes an activation that is "
                        f"still live (earlier forward not yet consumed)",
                    )
                live[key] = gemms if split else 1
                current += f_step
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
                current += b_step
                if split:
                    b_done.add(key)
                else:
                    live.pop(key, None)
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
                    current += w_step
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
            detail = ", ".join(map(label, leaked))
            suffix = ", ..." if len(live) > _MAX_DETAIL else ""
            findings.append(
                Finding(
                    "LV002",
                    f"stage {stage} ends the iteration with {len(live)} "
                    f"activation(s) still pinned ({detail}{suffix}); "
                    f"~{len(live) * unit:.4f} A leaked per iteration",
                    stage=stage,
                    witness=tuple(
                        f"{label(k)}: materialized but never fully released"
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
