"""Shared report plumbing and planner settings for the experiments.

Every experiment returns an :class:`ExperimentReport` with tabular rows
that render as the paper's tables/figures-as-text, so the benchmark
harness and the CLI can print paper-vs-measured side by side.

The experiments' grid searches all route through :func:`search` here,
which applies the process-wide :class:`~repro.planner.parallel
.PlannerSettings` — worker count (``--jobs`` / ``REPRO_JOBS``) and the
shared on-disk sweep cache — so overlapping cells (e.g. Figure 8's
GBS-128 column and Figure 10's 13B row) are evaluated once per
machine, not once per artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.cluster import ClusterSpec
from repro.model.spec import ModelSpec
from repro.planner.parallel import PlannerSettings
from repro.planner.search import SearchResult, search_method

#: Process-wide sweep settings; the CLI mutates this before running
#: experiments, tests leave it at the hermetic defaults (1 job, cache
#: only when ``REPRO_SWEEP_CACHE`` enables it).
SETTINGS = PlannerSettings()


def configure_planner(
    jobs: int | None = None,
    use_cache: bool | None = None,
) -> None:
    """Apply CLI-level sweep settings for subsequent :func:`search` calls."""
    if jobs is not None:
        SETTINGS.jobs = jobs
    if use_cache is not None:
        SETTINGS.cache = None
        if use_cache:
            SETTINGS.shared_cache()


def search(
    method: str,
    spec: ModelSpec,
    cluster: ClusterSpec,
    global_batch_size: int,
) -> SearchResult:
    """Grid-search ``method`` under the process-wide sweep settings."""
    return search_method(
        method,
        spec,
        cluster,
        global_batch_size,
        jobs=SETTINGS.jobs,
        cache=SETTINGS.cache,
        sink=SETTINGS.sink,
    )


@dataclass
class ExperimentReport:
    """A regenerated paper artifact."""

    experiment_id: str
    title: str
    header: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        self.rows.append([_fmt(c) for c in cells])

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        """Fixed-width text rendering."""
        table = [self.header] + self.rows
        widths = [max(len(row[i]) for row in table) for i in range(len(self.header))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for r, row in enumerate(table):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def cell(self, row: int, column: str) -> str:
        """Look up a cell by row index and column name."""
        return self.rows[row][self.header.index(column)]

    def column(self, name: str) -> list[str]:
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def ms(seconds: float) -> str:
    """Milliseconds with one decimal, like the paper's tables."""
    return f"{seconds * 1e3:.1f}"
