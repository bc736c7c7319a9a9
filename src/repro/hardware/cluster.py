"""Cluster topologies for the two evaluation testbeds (Section 7.1/7.6)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.comm import IB_100G, IB_800G, NVLINK, PCIE4, LinkSpec
from repro.hardware.gpu import A100_80GB, RTX_4090, GPUSpec


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous GPU cluster.

    Attributes:
        name: Identifier.
        gpu: Per-device accelerator spec.
        num_nodes: Number of servers.
        gpus_per_node: GPUs in each server.
        intra_node_link: GPU<->GPU link within one server.
        inter_node_link: NIC link between servers (shared per node).
    """

    name: str
    gpu: GPUSpec
    num_nodes: int
    gpus_per_node: int
    intra_node_link: LinkSpec
    inter_node_link: LinkSpec

    @property
    def num_devices(self) -> int:
        """Total GPU count."""
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting global rank ``rank``."""
        if not 0 <= rank < self.num_devices:
            raise ValueError(f"rank {rank} out of range for {self.num_devices} devices")
        return rank // self.gpus_per_node

    def link_between(self, rank_a: int, rank_b: int) -> LinkSpec:
        """The link used for traffic between two global ranks."""
        if self.node_of(rank_a) == self.node_of(rank_b):
            return self.intra_node_link
        return self.inter_node_link

    def group_link(self, ranks: list[int]) -> LinkSpec:
        """Bottleneck link for a collective over ``ranks``.

        A group confined to one node uses the intra-node fabric; any
        group spanning nodes is bottlenecked by the NIC.
        """
        nodes = {self.node_of(r) for r in ranks}
        return self.intra_node_link if len(nodes) <= 1 else self.inter_node_link

    @property
    def total_price_usd(self) -> float:
        """Purchase price of the cluster (per-server pricing, Table 9)."""
        return self.num_nodes * self.gpu.server_price_usd


#: The paper's main testbed: 8 servers x 8 RTX 4090, PCIe 4.0 inside a
#: node, 100 Gbps InfiniBand between nodes.
RTX4090_CLUSTER = ClusterSpec(
    name="rtx4090-64",
    gpu=RTX_4090,
    num_nodes=8,
    gpus_per_node=8,
    intra_node_link=PCIE4,
    inter_node_link=IB_100G,
)

#: The comparison testbed: 4 servers x 8 A100 80GB with NVLink and
#: 800 Gbps InfiniBand (Section 7.6).
A100_CLUSTER = ClusterSpec(
    name="a100-32",
    gpu=A100_80GB,
    num_nodes=4,
    gpus_per_node=8,
    intra_node_link=NVLINK,
    inter_node_link=IB_800G,
)

CLUSTERS: dict[str, ClusterSpec] = {
    "rtx4090-64": RTX4090_CLUSTER,
    "a100-32": A100_CLUSTER,
}


def get_cluster(name: str) -> ClusterSpec:
    """Look up a cluster preset by name."""
    key = name.lower()
    if key not in CLUSTERS:
        raise KeyError(f"unknown cluster {name!r}; known: {sorted(CLUSTERS)}")
    return CLUSTERS[key]
