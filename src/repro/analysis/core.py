"""Analyzer entry points: orchestration, caching, enforcement.

The model analyzer is the second static-analysis tier.  The schedule
verifier (:mod:`repro.schedules.verify`) proves properties of a
schedule *alone*; this package proves properties of a (model partition,
schedule) *pair* by abstract interpretation — no array is allocated, no
numeric is computed:

* :func:`analyze_partition` runs the three passes (shape/interface,
  gradient coverage, happens-before hazards) over an abstract
  :class:`~repro.analysis.ir.PartitionSpec` and returns a
  :class:`~repro.schedules.verify.diagnostics.Report`;
* :func:`analyze_model` / :func:`analyze_spec` derive the partition
  from a live :class:`~repro.nn.model.TransformerModel` or a bare
  :class:`~repro.model.spec.ModelSpec` first;
* :func:`ensure_model_verified` is the runtime's entry gate: it raises
  :class:`ModelAnalysisError` with the rendered report on any
  ERROR-severity finding, and caches the clean verdict on the schedule
  object keyed by (schedule fingerprint, partition) so re-entering the
  runtime with the same pair is nearly free.

Passes 2 and 3 walk the compiled :class:`ScheduleGraph`, so the
schedule must be structurally sound; :func:`analyze_partition` enforces
the verifier's safety tier first and lets its
:class:`~repro.schedules.base.ScheduleError` propagate — diagnosing a
malformed schedule is the verifier's job, not this package's.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from repro.analysis.coverage import check_coverage
from repro.analysis.extract import partition_from_model, partition_from_spec
from repro.analysis.hazards import check_hazards
from repro.analysis.ir import PartitionSpec
from repro.analysis.program import ModelProgram, build_program
from repro.analysis.rules import COVERAGE_RULES, HAZARD_RULES, MODEL_RULES, SHAPE_RULES
from repro.analysis.shapes import check_shapes
from repro.model.spec import ModelSpec
from repro.nn.model import TransformerModel
from repro.schedules.base import PipelineProblem, Schedule, ScheduleError
from repro.schedules.graph import compiled_graph, fingerprint
from repro.schedules.verify.core import ensure_verified
from repro.schedules.verify.diagnostics import Finding, Report


class ModelAnalysisError(ScheduleError):
    """A (model, schedule) pair failed static analysis.

    Subclasses :class:`ScheduleError` so callers guarding runtime entry
    against bad schedules also catch bad pairings.
    """


def analyze_partition(
    partition: PartitionSpec,
    schedule: Schedule,
    rules: Iterable[str] | None = None,
) -> Report:
    """Run all three proof passes over an abstract partition.

    Args:
        partition: The abstract partitioned model.
        schedule: The schedule it will execute under.  Must pass the
            verifier's safety tier (enforced here; ``ScheduleError``
            propagates otherwise).
        rules: Rule ids to check (default: :data:`MODEL_RULES`).
            Passes whose rules are all excluded are skipped entirely.
    """
    selected = tuple(rules) if rules is not None else MODEL_RULES
    wanted = set(selected)
    report = Report(
        schedule_name=schedule.name, checked_rules=selected
    )

    findings: list[Finding] = []
    shape_findings, _io = check_shapes(partition, schedule.problem)
    findings.extend(shape_findings)

    # The graph passes join partition chunks with schedule cells; with
    # a chunk-count mismatch the join is undefined and the SH004
    # finding already explains why.
    joinable = partition.num_chunks == schedule.problem.num_chunks and all(
        chunk.components for chunk in partition.chunks
    )
    if joinable and wanted & set(COVERAGE_RULES + HAZARD_RULES):
        ensure_verified(schedule, context="model analysis")
        program = build_program(partition, compiled_graph(schedule))
        if wanted & set(COVERAGE_RULES):
            findings.extend(check_coverage(program))
        if wanted & set(HAZARD_RULES):
            findings.extend(check_hazards(program))

    report.findings = [f for f in findings if f.rule_id in wanted]
    return report


def analyze_model(
    model: TransformerModel,
    schedule: Schedule,
    rules: Iterable[str] | None = None,
) -> Report:
    """Analyze a live model against ``schedule``."""
    partition = partition_from_model(model, schedule.problem.num_chunks)
    return analyze_partition(partition, schedule, rules=rules)


def analyze_spec(
    spec: ModelSpec,
    schedule: Schedule,
    rules: Iterable[str] | None = None,
) -> Report:
    """Analyze the partition ``spec`` describes, without building it."""
    partition = partition_from_spec(spec, schedule.problem.num_chunks)
    return analyze_partition(partition, schedule, rules=rules)


def interface_report(
    spec: ModelSpec, problem: PipelineProblem, name: str = "partition"
) -> Report:
    """Shape/interface-check the partition ``spec`` implies for
    ``problem`` — the planner's cheap rejection gate (no schedule, no
    graph, no arrays).

    Raises :class:`ValueError` when the model cannot even be cut into
    ``problem.num_chunks`` chunks.  The findings are memoised per
    (spec, chunk count, stage placement) — all the pass reads of
    ``problem`` — and each call gets its own report under its own
    ``name``.
    """
    placement = PipelineProblem(
        problem.num_stages,
        1,
        virtual_size=problem.virtual_size,
        chunk_placement=problem.chunk_placement,
    )
    return Report(
        schedule_name=name,
        findings=list(_interface_findings(spec, placement)),
        checked_rules=SHAPE_RULES,
    )


# A grid search asks every candidate for its interface report, and the
# candidates of a plan share a handful of partitions (12 distinct over
# the 848 calls of the served cold plans).  Module-level, so
# ``cache_clear`` returns it to cold.
@lru_cache(maxsize=64)
def _interface_findings(
    spec: ModelSpec, placement: PipelineProblem
) -> tuple[Finding, ...]:
    """Shape findings of ``spec`` cut into ``placement``'s chunks on
    its stages (``placement`` is a one-micro-batch problem carrying
    only the chunking); exceptions are not cached."""
    partition = partition_from_spec(spec, placement.num_chunks)
    findings, _io = check_shapes(partition, placement)
    return tuple(findings)


def model_program(
    model: TransformerModel, schedule: Schedule
) -> ModelProgram:
    """The joined program of a live model and a schedule (test hook)."""
    partition = partition_from_model(model, schedule.problem.num_chunks)
    return build_program(partition, compiled_graph(schedule))


def ensure_model_verified(
    model: TransformerModel, schedule: Schedule, context: str = ""
) -> None:
    """Assert the pair analyzer-clean; raise :class:`ModelAnalysisError`
    with the rendered report on failure.

    The clean verdict is cached on the schedule object keyed by
    (content fingerprint, abstract partition), so runtime entry after a
    construction-time analysis is nearly free — and a schedule reused
    with a *different* model is re-proved.
    """
    partition = partition_from_model(model, schedule.problem.num_chunks)
    token = (fingerprint(schedule), partition)
    if getattr(schedule, "_analysis_token", None) == token:
        return
    report = analyze_partition(partition, schedule)
    if not report.ok:
        prefix = f"{context}: " if context else ""
        raise ModelAnalysisError(prefix + report.render_text())
    schedule._analysis_token = token  # type: ignore[attr-defined]
