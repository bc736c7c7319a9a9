"""Operator-efficiency model.

GEMM and FlashAttention kernels lose efficiency when their row dimension
(the number of tokens they process) shrinks — the effect behind
Figure 9's measured per-layer slowdown as CP/SPP sizes grow, and the
reason MEPipe prefers uniform power-of-two slice sizes over TeraPipe's
non-uniform partitioning (Section 5).

We model the efficiency of a kernel processing ``t`` tokens with a
saturating curve ``eff(t) = e_max * t / (t + t_half)``.  ``t_half`` is
calibrated so that slicing a 4096-token sample into 8 slices slows a
transformer layer down by ~12.6%, the figure reported in Section 7.3.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EfficiencyModel:
    """Saturating kernel-efficiency curve.

    Attributes:
        max_gemm_efficiency: Fraction of the GPU's effective throughput a
            large GEMM achieves.
        max_attention_efficiency: Same for FlashAttention kernels, which
            run slightly below GEMM efficiency.
        half_saturation_tokens: Token count at which a kernel reaches
            half of its asymptotic efficiency.
    """

    max_gemm_efficiency: float = 0.88
    max_attention_efficiency: float = 0.76
    half_saturation_tokens: float = 75.0

    def gemm(self, tokens: int) -> float:
        """GEMM efficiency for an op over ``tokens`` tokens."""
        if tokens <= 0:
            return self.max_gemm_efficiency
        return self.max_gemm_efficiency * tokens / (tokens + self.half_saturation_tokens)

    def attention(self, tokens: int) -> float:
        """Attention-kernel efficiency for an op over ``tokens`` tokens."""
        if tokens <= 0:
            return self.max_attention_efficiency
        return (
            self.max_attention_efficiency
            * tokens
            / (tokens + self.half_saturation_tokens)
        )


#: Default curve used by all experiments.
DEFAULT_EFFICIENCY = EfficiencyModel()

