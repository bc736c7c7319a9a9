"""Diagnostics framework for schedule verification.

Every check in :mod:`repro.schedules.verify` reports through the same
vocabulary: a :class:`Finding` names the violated rule, the stage and
op where the violation anchors, and a human-readable *witness* — the
concrete chain of ops/edges that proves the defect (a blocking cycle,
a reordered message pair, a leaked activation).  A :class:`Report`
aggregates the findings of one verification run and renders them as
text (CLI, exception messages) or JSON (tooling).

The rule catalogue is documented in ``docs/verification.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.schedules.base import OpId


class Severity(enum.IntEnum):
    """How bad a finding is.

    ``ERROR`` findings make a schedule unusable (it would misplace
    work, lose gradients, or deadlock a real deployment); ``WARNING``
    findings are suspicious but executable; ``INFO`` findings are
    observations (e.g. a deliberate low-memory variant sitting below
    the closed-form bound).
    """

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """One entry of the invariant catalogue."""

    rule_id: str
    title: str
    severity: Severity
    description: str


#: The invariant catalogue.  Rule ids are stable API: tests, the CLI,
#: and downstream tooling key on them.
RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "ST001",
            "misplaced op",
            Severity.ERROR,
            "An op is scheduled on a stage that does not host its model "
            "chunk.",
        ),
        Rule(
            "ST002",
            "missing op",
            Severity.ERROR,
            "An op of the problem's iteration is absent from every stage "
            "program.",
        ),
        Rule(
            "ST003",
            "duplicate op",
            Severity.ERROR,
            "An op appears more than once across the stage programs.",
        ),
        Rule(
            "ST004",
            "foreign op",
            Severity.ERROR,
            "A scheduled op is not part of the problem's op set "
            "(out-of-range microbatch/slice/chunk/gemm).",
        ),
        Rule(
            "ST005",
            "malformed program list",
            Severity.ERROR,
            "The schedule does not carry exactly one program per stage, "
            "in stage order.",
        ),
        Rule(
            "DL001",
            "order-induced deadlock",
            Severity.ERROR,
            "The per-stage orders are inconsistent with the dependency "
            "graph: a cycle of dependency and program-order edges blocks "
            "all progress.  The witness is a minimal blocking cycle.",
        ),
        Rule(
            "CH001",
            "channel reorder",
            Severity.WARNING,
            "Two messages on one stage-to-stage channel are received in "
            "the opposite order from which they are sent.  Benign under "
            "tagged/keyed transports (this repo's runtimes), but a "
            "deployment with one strict FIFO channel per stage pair and "
            "blocking in-order receives deadlocks: the receiver waits on "
            "the second message while the first holds the channel head.",
        ),
        Rule(
            "CH002",
            "receive without send",
            Severity.ERROR,
            "A scheduled op waits for a cross-stage tensor whose producer "
            "is not scheduled anywhere.",
        ),
        Rule(
            "CH003",
            "send never received",
            Severity.ERROR,
            "A scheduled op produces a cross-stage tensor whose consumer "
            "is not scheduled anywhere; the message would sit in the "
            "channel forever.",
        ),
        Rule(
            "LV001",
            "activation use-after-free",
            Severity.ERROR,
            "An op consumes an activation that is not live on its stage "
            "— already freed by an earlier consumer, or never "
            "materialized by the owning forward.",
        ),
        Rule(
            "LV002",
            "activation leak",
            Severity.ERROR,
            "Activation state is still pinned when the iteration ends; "
            "across iterations this is an unbounded memory leak.",
        ),
        Rule(
            "AN001",
            "closed-form memory divergence",
            Severity.ERROR,
            "The statically computed peak activation memory exceeds the "
            "method's Table 3 closed form.",
        ),
    )
}


def register_rules(*rules: Rule) -> None:
    """Add rules to the shared catalogue.

    Other analysis layers (:mod:`repro.analysis`) report through the
    same :class:`Finding`/:class:`Report` vocabulary; their rule ids
    must be registered here before a finding can default its severity.
    Re-registering an identical rule is a no-op; redefining an existing
    id differently is a programming error.
    """
    for rule in rules:
        existing = RULES.get(rule.rule_id)
        if existing is not None and existing != rule:
            raise ValueError(
                f"rule {rule.rule_id} already registered with a different "
                f"definition"
            )
        RULES[rule.rule_id] = rule


@dataclass(frozen=True)
class Finding:
    """One rule violation (or observation) with its evidence.

    Attributes:
        rule_id: Key into :data:`RULES`.
        message: One-line description of this specific violation.
        stage: Stage the finding anchors to, if any.
        op: Op the finding anchors to, if any.
        witness: Evidence lines — e.g. the edges of a blocking cycle —
            already rendered for display.
        severity: Defaults to the rule's catalogue severity.
    """

    rule_id: str
    message: str
    stage: int | None = None
    op: OpId | None = None
    witness: tuple[str, ...] = ()
    severity: Severity = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.severity is None:
            object.__setattr__(self, "severity", RULES[self.rule_id].severity)

    def render(self) -> str:
        """One finding as indented text."""
        where = []
        if self.stage is not None:
            where.append(f"stage {self.stage}")
        if self.op is not None:
            where.append(f"op {self.op}")
        loc = f" [{', '.join(where)}]" if where else ""
        head = f"{self.rule_id} {self.severity}: {self.message}{loc}"
        if not self.witness:
            return head
        return head + "\n" + "\n".join(f"    {line}" for line in self.witness)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "rule_id": self.rule_id,
            "rule": RULES[self.rule_id].title,
            "severity": str(self.severity),
            "message": self.message,
            "stage": self.stage,
            "op": str(self.op) if self.op is not None else None,
            "witness": list(self.witness),
        }


@dataclass
class Report:
    """The outcome of verifying one schedule."""

    schedule_name: str
    findings: list[Finding] = field(default_factory=list)
    checked_rules: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity finding was raised."""
        return not self.errors

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def by_rule(self, rule_id: str) -> list[Finding]:
        """Findings of one rule."""
        return [f for f in self.findings if f.rule_id == rule_id]

    def rule_ids(self) -> set[str]:
        """The distinct rules that fired."""
        return {f.rule_id for f in self.findings}

    def render_text(self) -> str:
        """Multi-line human-readable report."""
        if not self.ok:
            verdict = f"{len(self.errors)} error(s)"
            if self.warnings:
                verdict += f", {len(self.warnings)} warning(s)"
        elif self.warnings:
            verdict = f"clean, {len(self.warnings)} warning(s)"
        else:
            verdict = "clean"
        lines = [f"verify {self.schedule_name}: {verdict}"]
        for finding in sorted(
            self.findings, key=lambda f: (-int(f.severity), f.rule_id)
        ):
            lines.append("  " + finding.render().replace("\n", "\n  "))
        if not self.findings:
            lines.append(
                f"  all checks passed ({len(self.checked_rules)} rules)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "schedule": self.schedule_name,
            "ok": self.ok,
            "checked_rules": list(self.checked_rules),
            "findings": [f.to_dict() for f in self.findings],
        }
