"""Cross-validation of the analytic evaluator against the heap oracle.

The evaluator's certificates are *machine-checkable*: this harness
replays the same schedule on the simulator's heap engine — the replay
that shares neither loop, plan nor cost tables with the kernel the
evaluator prices on — and verifies every obligation, filing
``EV001``–``EV004`` findings into the shared diagnostics catalogue when
one breaks.

* ``EV001`` — an exactness certificate must be bit-for-bit: every op
  start/end, per-stage busy time and peak ledger units, the makespan,
  and the bubble ratio must equal the simulator's floats exactly.
* ``EV002`` — a bounded certificate (and the build-free
  :class:`~repro.analysis.evaluate.bounds.TimeBounds`) must contain the
  simulated iteration time.
* ``EV003`` — certificates must be internally consistent (ordered
  interval, exact ⇒ degenerate, certified value inside its interval).
* ``EV004`` — each stage's warmup/steady/cooldown boundaries must be
  ordered and tile the stage's busy window.

The harness is the proof side of ``docs/evaluation.md``'s taxonomy and
backs the property tests in ``tests/test_evaluate.py``.
"""

from __future__ import annotations

from repro.analysis.evaluate.bounds import TimeBounds
from repro.analysis.evaluate.core import (
    AnalyticEvaluation,
    evaluate_schedule,
)
from repro.analysis.evaluate.dense import first_divergence
from repro.analysis.evaluate.rules import EVALUATE_RULES
from repro.schedules.base import Schedule
from repro.schedules.verify.diagnostics import Finding, Report
from repro.sim.cost import CostModel
from repro.sim.executor import SimResult, simulate


def _check_exactness(
    evaluation: AnalyticEvaluation,
    sim: SimResult,
    findings: list[Finding],
) -> None:
    """EV001: every exact-certified quantity matches bit for bit."""

    def mismatch(what: str, analytic: float, simulated: float,
                 stage: int | None = None) -> None:
        findings.append(
            Finding(
                "EV001",
                f"{what}: analytic {analytic!r} != sim {simulated!r}",
                stage=stage,
                witness=(
                    f"analytic:  {analytic!r}",
                    f"simulated: {simulated!r}",
                    f"delta:     {analytic - simulated!r}",
                ),
            )
        )

    if evaluation.makespan != sim.makespan:
        mismatch("makespan", evaluation.makespan, sim.makespan)
    if evaluation.bubble_ratio != sim.bubble_ratio:
        mismatch("bubble ratio", evaluation.bubble_ratio, sim.bubble_ratio)
    for s, metrics in enumerate(sim.stages):
        if evaluation.stage_busy[s] != metrics.busy_time:
            mismatch(
                "stage busy time", evaluation.stage_busy[s],
                metrics.busy_time, stage=s,
            )
        if evaluation.stage_peak_units[s] != metrics.peak_activation_units:
            mismatch(
                "stage peak ledger units", evaluation.stage_peak_units[s],
                metrics.peak_activation_units, stage=s,
            )

    times, replayed = evaluation.times, sim.times
    if times is None or replayed is None:
        raise ValueError(
            "EV001 compares every op's start and end: the evaluation and "
            "the replay must both carry their per-op time table"
        )
    i = first_divergence(times, replayed)
    if i is not None:  # one witness op is enough; the grid test reruns all
        graph = times.graph
        findings.append(
            Finding(
                "EV001",
                "op timing diverges from the event replay",
                stage=graph.stage[i],
                op=graph.op_at(i),
                witness=(
                    f"analytic:  [{times.start[i]!r}, {times.end[i]!r}]",
                    f"simulated: [{float(replayed.start[i])!r}, "
                    f"{float(replayed.end[i])!r}]",
                ),
            )
        )


def cross_validate(
    schedule: Schedule,
    cost: CostModel,
    overhead_time: float = 0.0,
    evaluation: AnalyticEvaluation | None = None,
    bounds: TimeBounds | None = None,
) -> Report:
    """Check the evaluator's certificates against the heap oracle.

    ``evaluation`` defaults to a fresh :func:`evaluate_schedule` run;
    pass ``bounds`` to additionally check a build-free certificate
    against the same replay.  Returns a diagnostics
    :class:`~repro.schedules.verify.diagnostics.Report` whose
    ``checked_rules`` cover the whole ``EV`` family.
    """
    if evaluation is None:
        evaluation = evaluate_schedule(schedule, cost, overhead_time=overhead_time)
    sim = simulate(schedule, cost, overhead_time=overhead_time, engine="heap")
    findings: list[Finding] = []

    # EV003: internal consistency before comparing against the sim.
    cert = evaluation.certificate
    if not cert.consistent():
        findings.append(
            Finding(
                "EV003",
                f"{cert.kind!r} certificate is not internally consistent",
                witness=(
                    f"interval: [{cert.lower!r}, {cert.upper!r}]",
                    f"basis: {cert.basis}",
                ),
            )
        )
    elif not cert.contains(evaluation.iteration_time):
        findings.append(
            Finding(
                "EV003",
                "certified value lies outside its own interval",
                witness=(
                    f"iteration time: {evaluation.iteration_time!r}",
                    f"interval: [{cert.lower!r}, {cert.upper!r}]",
                ),
            )
        )
    if bounds is not None and bounds.lower > bounds.upper:
        findings.append(
            Finding(
                "EV003",
                "bounds certificate has lower > upper",
                witness=(
                    f"interval: [{bounds.lower!r}, {bounds.upper!r}]",
                ),
            )
        )

    # EV001: exactness obligations, bit for bit.
    if cert.kind == "exact":
        _check_exactness(evaluation, sim, findings)

    # EV002: bound obligations against the simulated iteration time.
    simulated = sim.iteration_time
    for name, lower, upper in (
        ("evaluation certificate", cert.lower, cert.upper),
        *(
            (("time bounds", bounds.lower, bounds.upper),)
            if bounds is not None
            else ()
        ),
    ):
        if not lower <= simulated <= upper:
            findings.append(
                Finding(
                    "EV002",
                    f"{name} does not contain the simulated iteration time",
                    witness=(
                        f"simulated: {simulated!r}",
                        f"certified: [{lower!r}, {upper!r}]",
                    ),
                )
            )

    # EV004: phase boundaries tile each stage's busy window.
    for phases in evaluation.phases:
        stage_end = evaluation.stage_ends[phases.stage]
        if not phases.ordered() or phases.end != stage_end:
            findings.append(
                Finding(
                    "EV004",
                    "phase boundaries do not tile the stage window",
                    stage=phases.stage,
                    witness=(
                        f"warmup_end: {phases.warmup_end!r}",
                        f"steady_end: {phases.steady_end!r}",
                        f"end: {phases.end!r} "
                        f"(stage end {stage_end!r})",
                    ),
                )
            )

    return Report(
        schedule_name=schedule.name,
        findings=findings,
        checked_rules=EVALUATE_RULES,
    )
