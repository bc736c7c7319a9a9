"""Table 9: RTX 4090 cluster vs A100 cluster — FLOPS, MFU, and cost.

Compares the optimal strategy on 64x RTX 4090 (MEPipe) against the
optimal strategy on 32x A100-80GB (grid-searched over the classic
methods with tensor parallelism enabled, as NVLink permits) at global
batch size 128, and derives the cost-effectiveness ratio.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentReport, ms, search
from repro.hardware.cluster import A100_CLUSTER, RTX4090_CLUSTER
from repro.model.spec import LLAMA_7B, LLAMA_13B, LLAMA_34B, ModelSpec
from repro.parallel.grid import enumerate_configs
from repro.planner.evaluate import EvalResult
from repro.planner.parallel import EvalTask, evaluate_tasks, merge_outcomes

GBS = 128
MODELS = [LLAMA_7B, LLAMA_13B, LLAMA_34B]

#: Paper-measured anchors (ms / TFLOPS per GPU) for the notes.
PAPER = {
    "llama-7b": ((3216, 220.4), (3171, 111.7)),
    "llama-13b": ((6131, 221.4), (5852, 116.0)),
    "llama-34b": ((16167, 213.9), (17043, 101.5)),
}


def best_on_a100(spec: ModelSpec, gbs: int = GBS) -> EvalResult | None:
    """Grid search classic methods with TP over the A100 cluster.

    Built as one task list over all three methods and fanned out /
    cached through the shared planner plumbing, like every other sweep.
    """
    from repro.experiments.common import SETTINGS

    tasks: list[EvalTask] = []
    for method in ("dapple", "vpp", "zb"):
        for config in enumerate_configs(
            spec,
            A100_CLUSTER.num_devices,
            gbs,
            use_cp=False,
            use_tp=True,
            use_vp=method == "vpp",
            use_recompute=method == "dapple",
            min_dp=1,
        ):
            if config.tp > A100_CLUSTER.gpus_per_node:
                continue
            tasks.append(EvalTask(method, spec, A100_CLUSTER, config, gbs))
    outcomes = evaluate_tasks(tasks, jobs=SETTINGS.jobs, cache=SETTINGS.cache)
    best, _ = merge_outcomes(outcomes)
    return best


def best_on_4090(spec: ModelSpec, gbs: int = GBS) -> EvalResult | None:
    """MEPipe's grid-searched optimum on the 4090 cluster."""
    return search("mepipe", spec, RTX4090_CLUSTER, gbs).best


def run(models: list[ModelSpec] | None = None) -> ExperimentReport:
    """Regenerate Table 9."""
    report = ExperimentReport(
        experiment_id="table9",
        title="A100 (32 GPUs) vs RTX 4090 (64 GPUs) at GBS 128",
        header=["model", "cluster", "iteration", "TFLOPS/GPU", "MFU"],
    )
    for spec in models or MODELS:
        a100 = best_on_a100(spec)
        rtx = best_on_4090(spec)
        for cluster, result in ((A100_CLUSTER, a100), (RTX4090_CLUSTER, rtx)):
            if result is None:
                report.add_row(spec.name, cluster.name, "OOM", "-", "-")
                continue
            report.add_row(
                spec.name,
                cluster.name,
                ms(result.iteration_time_s) + " ms",
                f"{result.tflops_per_gpu:.1f}",
                f"{result.mfu:.1%}",
            )
        if a100 and rtx:
            # Same global batch on both clusters: throughput ratio times
            # price ratio = cost effectiveness.
            ratio = a100.iteration_time_s / rtx.iteration_time_s
            cost_eff = ratio * (
                A100_CLUSTER.total_price_usd / RTX4090_CLUSTER.total_price_usd
            )
            report.add_note(
                f"{spec.name}: 4090 cluster {cost_eff:.1f}x more cost-"
                f"effective (paper: 2.5x)"
            )
    return report
