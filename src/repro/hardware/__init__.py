"""Hardware specifications, efficiency curves, and communication models."""

from repro.hardware.cluster import (
    A100_CLUSTER,
    CLUSTERS,
    RTX4090_CLUSTER,
    ClusterSpec,
    get_cluster,
)
from repro.hardware.comm import (
    IB_100G,
    IB_800G,
    NVLINK,
    PCIE4,
    LinkSpec,
    ring_all_gather_time,
    ring_all_reduce_time,
)
from repro.hardware.efficiency import DEFAULT_EFFICIENCY, EfficiencyModel
from repro.hardware.gpu import (
    A100_40GB,
    A100_80GB,
    RTX_4090,
    GPUSpec,
)

__all__ = [
    "A100_40GB",
    "A100_80GB",
    "A100_CLUSTER",
    "CLUSTERS",
    "DEFAULT_EFFICIENCY",
    "EfficiencyModel",
    "GPUSpec",
    "IB_100G",
    "IB_800G",
    "LinkSpec",
    "NVLINK",
    "PCIE4",
    "RTX4090_CLUSTER",
    "RTX_4090",
    "ClusterSpec",
    "get_cluster",
    "ring_all_gather_time",
    "ring_all_reduce_time",
]
