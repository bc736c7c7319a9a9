"""Accelerator specifications (Table 9 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.memory import GiB


@dataclass(frozen=True)
class GPUSpec:
    """A single accelerator.

    Attributes:
        name: Marketing name.
        memory_bytes: On-device memory capacity.
        peak_fp16_tflops: Nominal FP16 tensor-core throughput; the MFU
            denominator.
        matmul_derate: Fraction of the nominal throughput reachable by
            training GEMMs.  Section 7.6 explains that MEPipe uses FP32
            accumulation for convergence, which halves consumer-GPU
            (RTX 4090) tensor-core throughput; data-center parts
            accumulate in FP32 at full rate.
        intra_node_bw_gbps: Bidirectional GPU-to-GPU bandwidth within a
            server (NVLink or PCIe), in GB/s.
        server_price_usd: Price of an 8-GPU server.
        power_watts: Board power of one GPU.
    """

    name: str
    memory_bytes: int
    peak_fp16_tflops: float
    matmul_derate: float
    intra_node_bw_gbps: float
    server_price_usd: float
    power_watts: float

    @property
    def effective_tflops(self) -> float:
        """Achievable tensor throughput after the accumulation derate."""
        return self.peak_fp16_tflops * self.matmul_derate


#: NVIDIA RTX 4090: plentiful FLOPS, 24 GB, PCIe 4.0 only, and a 2x
#: penalty for FP32-accumulation GEMMs (Section 7.6).
RTX_4090 = GPUSpec(
    name="RTX 4090",
    memory_bytes=24 * GiB,
    peak_fp16_tflops=330.0,
    matmul_derate=0.5,
    intra_node_bw_gbps=64.0,
    server_price_usd=30_000.0,
    power_watts=450.0,
)

#: NVIDIA A100 80GB SXM: NVLink, full-rate FP32 accumulation.
A100_80GB = GPUSpec(
    name="A100 80GB",
    memory_bytes=80 * GiB,
    peak_fp16_tflops=312.0,
    matmul_derate=1.0,
    intra_node_bw_gbps=600.0,
    server_price_usd=150_000.0,
    power_watts=400.0,
)

#: NVIDIA A100 40GB PCIe, used by the artifact's functionality test (E0).
A100_40GB = GPUSpec(
    name="A100 40GB",
    memory_bytes=40 * GiB,
    peak_fp16_tflops=312.0,
    matmul_derate=1.0,
    intra_node_bw_gbps=64.0,
    server_price_usd=100_000.0,
    power_watts=300.0,
)
