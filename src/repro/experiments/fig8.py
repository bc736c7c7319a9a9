"""Figure 8 + Table 5: end-to-end Llama 13B across global batch sizes.

For each scheduling method the optimal parallel configuration is found
by grid search over the method's search space (Section 7.1's baseline
protocol), and the winner's iteration time reported — regenerating both
the Figure 8 bars and the Table 5 configuration tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentReport, ms, search
from repro.hardware.cluster import RTX4090_CLUSTER, ClusterSpec
from repro.model.spec import LLAMA_13B, ModelSpec
from repro.planner.search import SearchResult

METHODS = ["dapple", "vpp", "zb", "zbv", "mepipe"]
BATCH_SIZES = [32, 64, 128]

#: Paper-measured iteration times (ms) read off Figure 8/Section 7.2
#: for shape comparison; MEPipe 13B GBS 128 is 5852 ms per Table 9.
PAPER_SPEEDUPS = {32: 1.86, 64: 1.49, 128: 1.36}


def config_tuple(method: str, cfg) -> str:
    """Render a config as Table 5's (PP, CP/SPP, VP, recompute) tuple."""
    from repro.schedules.methods import method_traits

    vp = method_traits(method).fixed_vp or cfg.vp
    return (
        f"({cfg.pp}, {max(cfg.cp, cfg.spp)}, {vp}, "
        f"{'yes' if cfg.recompute else 'no'})"
    )


@dataclass
class Fig8Cell:
    """One (method, GBS) measurement."""

    method: str
    global_batch_size: int
    result: SearchResult


def compute(
    spec: ModelSpec = LLAMA_13B,
    cluster: ClusterSpec = RTX4090_CLUSTER,
    batch_sizes: list[int] | None = None,
    methods: list[str] | None = None,
) -> list[Fig8Cell]:
    """Grid-search every (method, GBS) cell."""
    cells = []
    for gbs in batch_sizes or BATCH_SIZES:
        for method in methods or METHODS:
            cells.append(
                Fig8Cell(method, gbs, search(method, spec, cluster, gbs))
            )
    return cells


def run(
    spec: ModelSpec = LLAMA_13B,
    cluster: ClusterSpec = RTX4090_CLUSTER,
    batch_sizes: list[int] | None = None,
) -> ExperimentReport:
    """Regenerate Figure 8 (iteration times) and Table 5 (configs)."""
    batch_sizes = batch_sizes or BATCH_SIZES
    report = ExperimentReport(
        experiment_id="fig8",
        title="Llama 13B iteration time by global batch size (64x RTX 4090)",
        header=["GBS", "method", "config (PP, CP/SPP, VP, rc)", "iteration"],
    )
    cells = compute(spec, cluster, batch_sizes)
    for gbs in batch_sizes:
        times = {}
        for cell in cells:
            if cell.global_batch_size != gbs:
                continue
            best = cell.result.best
            if best is None:
                report.add_row(gbs, cell.method, "-", "OOM")
                continue
            report.add_row(
                gbs,
                cell.method,
                config_tuple(cell.method, best.config),
                ms(best.iteration_time_s) + " ms",
            )
            times[cell.method] = best.iteration_time_s
        if "mepipe" in times and len(times) > 1:
            base = min(t for m, t in times.items() if m != "mepipe")
            speedup = base / times["mepipe"]
            report.add_note(
                f"GBS {gbs}: MEPipe speedup {speedup:.2f}x over best baseline "
                f"(paper: {PAPER_SPEEDUPS.get(gbs, float('nan')):.2f}x)"
            )
    return report
