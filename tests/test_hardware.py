"""Tests for repro.hardware."""

import pytest

from repro.experiments import fig9
from repro.hardware import (
    A100_80GB,
    A100_CLUSTER,
    IB_100G,
    NVLINK,
    PCIE4,
    RTX4090_CLUSTER,
    RTX_4090,
    get_cluster,
    ring_all_gather_time,
    ring_all_reduce_time,
)


class TestGPUSpecs:
    def test_table9_nominal_flops(self):
        assert RTX_4090.peak_fp16_tflops == 330.0
        assert A100_80GB.peak_fp16_tflops == 312.0

    def test_fp32_accum_penalty(self):
        """Section 7.6: a 4090 delivers about half an A100 effectively."""
        assert RTX_4090.effective_tflops == pytest.approx(165.0)
        assert A100_80GB.effective_tflops == pytest.approx(312.0)
        assert 0.45 < RTX_4090.effective_tflops / A100_80GB.effective_tflops < 0.6

    def test_price_ratio_is_5x(self):
        assert A100_80GB.server_price_usd / RTX_4090.server_price_usd == 5.0


class TestClusters:
    def test_sizes(self):
        assert RTX4090_CLUSTER.num_devices == 64
        assert A100_CLUSTER.num_devices == 32

    def test_link_selection(self):
        # Ranks 0 and 1 share a node; 0 and 8 do not.
        assert RTX4090_CLUSTER.link_between(0, 1) is PCIE4
        assert RTX4090_CLUSTER.link_between(0, 8) is IB_100G
        assert A100_CLUSTER.link_between(0, 7) is NVLINK

    def test_group_link_spanning_nodes(self):
        assert RTX4090_CLUSTER.group_link([0, 1, 2]) is PCIE4
        assert RTX4090_CLUSTER.group_link([0, 8]) is IB_100G

    def test_node_of_bounds(self):
        with pytest.raises(ValueError):
            RTX4090_CLUSTER.node_of(64)

    def test_cluster_price(self):
        # 8 x $30k vs 4 x $150k: the 2.5x cost-effectiveness denominator.
        assert RTX4090_CLUSTER.total_price_usd == 240_000
        assert A100_CLUSTER.total_price_usd == 600_000

    def test_lookup(self):
        assert get_cluster("a100-32") is A100_CLUSTER


class TestCommModel:
    def test_p2p_monotone_in_bytes(self):
        assert PCIE4.p2p_time(1 << 20) < PCIE4.p2p_time(1 << 24)

    def test_p2p_zero_bytes_free(self):
        assert PCIE4.p2p_time(0) == 0.0

    def test_allreduce_group1_free(self):
        assert ring_all_reduce_time(1 << 20, 1, PCIE4) == 0.0

    def test_allreduce_approaches_2x_payload(self):
        t = ring_all_reduce_time(10**9, 64, NVLINK)
        wire = 2 * 10**9 / (NVLINK.bandwidth_gbps * 1e9)
        assert t == pytest.approx(wire, rel=0.10)

    def test_allgather_cheaper_than_allreduce(self):
        n = 10**8
        assert ring_all_gather_time(n, 8, PCIE4) < ring_all_reduce_time(n, 8, PCIE4)


class TestEfficiency:
    """Figure 9's SPP curve, read from the artifact that renders it."""

    @staticmethod
    def _spp_throughput():
        return [p.relative_throughput for p in fig9.compute() if p.kind == "spp"]

    def test_spp8_slowdown_matches_paper(self):
        """Section 7.3: 13B layer slows by ~12.6% at SPP=8."""
        assert 1 / self._spp_throughput()[-1] == pytest.approx(1.126, abs=0.01)

    def test_slowdown_monotone(self):
        values = self._spp_throughput()
        assert len(values) == len(fig9.SIZES)
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(1.0)
