"""ASCII rendering of simulated pipeline timelines.

Reproduces the style of the paper's scheduling figures (Figures 2-7,
11-12): one row per stage, time flowing right, forward ops in
uppercase, backward ops context-colored by micro-batch digit, weight
gradients as ``w``.
"""

from __future__ import annotations

from repro.schedules.base import OpKind
from repro.sim.executor import SimResult


def _glyph(kind: OpKind, microbatch: int, slice_idx: int) -> str:
    mb = str(microbatch % 10)
    if kind is OpKind.F:
        return mb
    if kind is OpKind.B:
        return "abcdefghij"[microbatch % 10]
    return "w"


def render_timeline(result: SimResult, width: int = 120) -> str:
    """Render a simulated iteration as fixed-width ASCII art.

    Each column is ``makespan / width`` seconds; idle time renders as
    ``.``; overlapping ops (impossible on a correct stage) render ``#``.
    """
    if result.makespan <= 0:
        return "(empty timeline)"
    scale = width / result.makespan
    lines = []
    for stage in range(result.problem.num_stages):
        row = ["."] * width
        for record in result.stage_records(stage):
            lo = int(record.start * scale)
            hi = max(lo + 1, int(record.end * scale))
            g = _glyph(record.op.kind, record.op.microbatch, record.op.slice_idx)
            for i in range(lo, min(hi, width)):
                row[i] = g if row[i] == "." else "#"
        lines.append(f"stage {stage}: " + "".join(row))
    lines.append(
        f"makespan={result.makespan:.3f}  bubble={result.bubble_ratio:.1%}  "
        f"peak-act={result.peak_activation_units:.3f}A"
    )
    return "\n".join(lines)

