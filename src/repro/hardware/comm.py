"""Communication time models for links and collectives.

All bandwidths are effective payload bandwidths in GB/s (decimal);
latencies are per-message seconds.  Collectives use the standard ring
algorithm cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 1e9


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point link between two devices.

    Attributes:
        name: Identifier (e.g. ``"pcie4"``, ``"nvlink"``, ``"ib100"``).
        bandwidth_gbps: Effective unidirectional bandwidth in GB/s.
        latency_s: Per-message launch + wire latency.
        collective_bw_gbps: Per-GPU bandwidth when *all* devices on the
            fabric run a collective simultaneously.  On PCIe hosts the
            shared root complexes saturate well below the per-slot
            bandwidth; NVLink fabrics are non-blocking.
    """

    name: str
    bandwidth_gbps: float
    latency_s: float = 10e-6
    collective_bw_gbps: float | None = None

    @property
    def collective_bandwidth_gbps(self) -> float:
        """Bandwidth to assume for fabric-wide collectives."""
        if self.collective_bw_gbps is None:
            return self.bandwidth_gbps
        return self.collective_bw_gbps

    def p2p_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` point-to-point over this link."""
        if nbytes <= 0:
            return 0.0
        return self.latency_s + nbytes / (self.bandwidth_gbps * GB)


#: PCIe 4.0 x16: ~32 GB/s per direction; the paper quotes 64 GB/s
#: bidirectional for the 4090 servers.  Fabric-wide collectives see far
#: less: eight GPUs contend for two root complexes.
PCIE4 = LinkSpec("pcie4", bandwidth_gbps=25.0, latency_s=12e-6,
                 collective_bw_gbps=12.0)

#: NVLink on A100 SXM: 600 GB/s bidirectional, ~300 per direction.
NVLINK = LinkSpec("nvlink", bandwidth_gbps=250.0, latency_s=6e-6)

#: 100 Gbps InfiniBand NIC shared by the 8 GPUs of a 4090 server.
IB_100G = LinkSpec("ib100", bandwidth_gbps=12.0, latency_s=15e-6)

#: 800 Gbps InfiniBand on the A100 servers.
IB_800G = LinkSpec("ib800", bandwidth_gbps=90.0, latency_s=15e-6)


def ring_all_reduce_time(nbytes: int, group_size: int, link: LinkSpec) -> float:
    """Ring all-reduce: ``2*(g-1)/g`` traversals of the payload."""
    if group_size <= 1 or nbytes <= 0:
        return 0.0
    g = group_size
    steps = 2 * (g - 1)
    return steps * link.latency_s + (2 * (g - 1) / g) * nbytes / (
        link.bandwidth_gbps * GB
    )


def ring_all_gather_time(nbytes_total: int, group_size: int, link: LinkSpec) -> float:
    """Ring all-gather of a ``nbytes_total`` result across the group."""
    if group_size <= 1 or nbytes_total <= 0:
        return 0.0
    g = group_size
    return (g - 1) * link.latency_s + ((g - 1) / g) * nbytes_total / (
        link.bandwidth_gbps * GB
    )

