"""Activation-memory-over-time rendering.

Plots (in ASCII) the pinned activation memory of one stage across a
simulated iteration — the picture behind Figure 4's 5/8 A and 9/16 A
arithmetic and Figure 5's variant trade-off.
"""

from __future__ import annotations

from repro.schedules.base import OpKind
from repro.sim.executor import SimResult


def activation_series(result: SimResult, stage: int) -> list[tuple[float, float]]:
    """(time, pinned units of A) steps for one stage.

    Adds the executor's ledger steps
    (:attr:`~repro.schedules.base.PipelineProblem.ledger_steps`) at
    each op's completion: F pins, a fused B releases, a split B pins
    activation gradients until the W fragments retire.
    """
    f_step, b_step, w_step = result.problem.ledger_steps
    series: list[tuple[float, float]] = [(0.0, 0.0)]
    current = 0.0
    for record in result.stage_records(stage):
        kind = record.op.kind
        if kind is OpKind.F:
            current += f_step
        elif kind is OpKind.B:
            current += b_step
        else:
            current += w_step
        series.append((record.end, current))
    return series


def render_memory_profile(
    result: SimResult, stage: int = 0, width: int = 100, height: int = 12
) -> str:
    """ASCII area chart of one stage's activation footprint over time."""
    series = activation_series(result, stage)
    if result.makespan <= 0:
        return "(empty)"
    peak = max(v for _t, v in series)
    if peak <= 0:
        return "(no activations pinned)"
    # Sample the step function on the grid.
    columns = []
    idx = 0
    for col in range(width):
        t = (col + 1) / width * result.makespan
        while idx + 1 < len(series) and series[idx + 1][0] <= t:
            idx += 1
        columns.append(series[idx][1])
    rows = []
    for level in range(height, 0, -1):
        threshold = peak * (level - 0.5) / height
        row = "".join("#" if v >= threshold else " " for v in columns)
        label = f"{peak * level / height:6.3f}A |"
        rows.append(label + row)
    rows.append(" " * 7 + "+" + "-" * width)
    rows.append(
        f"stage {stage}: peak {peak:.4f} A over makespan "
        f"{result.makespan:.3f}"
    )
    return "\n".join(rows)
