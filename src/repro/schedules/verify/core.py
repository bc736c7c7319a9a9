"""Verifier entry points: rule selection, orchestration, enforcement.

Two tiers of checking:

* **Safety rules** (:data:`SAFETY_RULES`) — placement, coverage,
  duplication, deadlock: violating any of these makes a schedule
  unexecutable.  :func:`ensure_verified` enforces exactly this tier on
  the hot paths (schedule construction, simulator entry, numerical
  runtime entry) and caches the verdict on the schedule object so a
  schedule built and then simulated is checked once.
* **Full rule set** (:data:`ALL_RULES`) — additionally the FIFO
  channel-order model, the activation liveness/leak lint, and the
  Table 3 closed-form cross-check.  :func:`verify_schedule` runs any
  subset and returns a structured :class:`Report` instead of raising.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.schedules.base import Schedule, ScheduleError
from repro.schedules.graph import ScheduleGraph, compiled_graph
from repro.schedules.verify.channels import check_channels
from repro.schedules.verify.deps import check_deadlock, check_structure
from repro.schedules.verify.diagnostics import Report
from repro.schedules.verify.liveness import check_closed_form, check_liveness

#: Rules whose violation makes a schedule unexecutable.
SAFETY_RULES: tuple[str, ...] = (
    "ST001", "ST002", "ST003", "ST004", "ST005", "DL001",
)

#: Everything the verifier knows how to check.
ALL_RULES: tuple[str, ...] = SAFETY_RULES + (
    "CH001", "CH002", "CH003", "LV001", "LV002", "AN001",
)


def verify_schedule(
    schedule: Schedule,
    method: str | None = None,
    rules: Iterable[str] | None = None,
) -> Report:
    """Statically verify ``schedule`` and return a :class:`Report`.

    Args:
        schedule: The schedule to analyze.
        method: Scheduling-method name (``"dapple"``, ``"svpp"``, ...);
            enables the AN001 closed-form cross-check when the method
            has a Table 3 row.
        rules: Rule ids to check (default: :data:`ALL_RULES`).  Checks
            whose rules are all excluded are skipped entirely.
    """
    selected = tuple(rules) if rules is not None else ALL_RULES
    wanted = set(selected)
    report = Report(schedule_name=schedule.name, checked_rules=selected)

    structure, index = check_structure(schedule)
    report.findings.extend(structure)
    if any(f.rule_id == "ST005" for f in structure):
        return _filtered(report, wanted)

    # Order-sensitive analyses need well-defined op positions; with
    # duplicated or foreign ops the program order is ambiguous, and the
    # structure findings already explain why.
    orderable = not (index.has_duplicates or index.has_foreign)

    # A structurally clean schedule is one that compiled: check_structure
    # cached its graph, and the deadlock, channel, and liveness analyses
    # (and later the simulator) walk that graph's flat arrays.  A
    # schedule with structure findings has no graph; those analyses walk
    # its OpId programs, whose diagnostics tolerate missing, duplicated
    # or misplaced ops.
    graph: ScheduleGraph | None = None
    if not structure:
        graph = compiled_graph(schedule)

    if "DL001" in wanted and orderable:
        report.findings.extend(check_deadlock(schedule, index, graph))
    deadlocked = any(f.rule_id == "DL001" for f in report.findings)

    if wanted & {"CH001", "CH002", "CH003"} and orderable:
        report.findings.extend(check_channels(schedule, index, graph))

    if wanted & {"LV001", "LV002", "AN001"}:
        liveness, peaks = check_liveness(schedule, graph)
        report.findings.extend(liveness)
        # A deadlocked schedule never reaches iteration end; its peak
        # is not comparable to the steady-state closed form.
        if "AN001" in wanted and method is not None and not deadlocked:
            report.findings.extend(
                check_closed_form(schedule, method, peaks)
            )
    return _filtered(report, wanted)


def _filtered(report: Report, wanted: set[str]) -> Report:
    """Drop findings of rules the caller did not select."""
    report.findings = [f for f in report.findings if f.rule_id in wanted]
    return report


def ensure_verified(schedule: Schedule, context: str = "") -> None:
    """Assert the safety tier; raise :class:`ScheduleError` with the
    rendered report on failure.

    The clean verdict is cached on the schedule object, which cannot
    change (a schedule is frozen), so construction-time verification
    makes simulator/runtime entry nearly free.
    """
    if getattr(schedule, "_verified", False):
        return
    report = verify_schedule(schedule, rules=SAFETY_RULES)
    if not report.ok:
        prefix = f"{context}: " if context else ""
        raise ScheduleError(prefix + report.render_text())
    object.__setattr__(schedule, "_verified", True)


def assert_clean(
    schedule: Schedule,
    method: str | None = None,
) -> Report:
    """Run the full rule set; raise :class:`ScheduleError` on errors.

    Returns the report (which may still carry warnings/infos) when the
    schedule is clean.  This is the planner's rejection gate: the
    exception message is the complete rendered report, witnesses
    included, so a misgenerated configuration is actionable from the
    error alone.
    """
    report = verify_schedule(schedule, method=method)
    if not report.ok:
        raise ScheduleError(report.render_text())
    object.__setattr__(schedule, "_verified", True)
    return report
