"""Slice partitioning strategies: uniform vs TeraPipe's non-uniform DP.

Section 5 discusses two ways to cut a sample into slices:

* **Uniform slices** (MEPipe): equal token counts, so every GEMM and
  FlashAttention call keeps power-of-two-friendly shapes; the residual
  compute imbalance from causal attention is absorbed by fine-grained
  weight-gradient scheduling.
* **Non-uniform slices** (TeraPipe): a dynamic program picks slice
  boundaries that equalize per-slice *compute time* — later slices get
  fewer tokens because they attend to more keys.  This trades kernel
  efficiency (irregular shapes) for balance, and the paper argues it
  only wins once attention dominates (contexts beyond ~128k tokens).

This module implements both, including the DP, so the trade-off can be
measured (see ``repro.experiments.partitioning``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.hardware.efficiency import DEFAULT_EFFICIENCY, EfficiencyModel
from repro.model.flops import attention_score_flops, gemm_forward_flops_per_token
from repro.model.spec import ModelSpec


@dataclass(frozen=True)
class SlicePlan:
    """A partitioning of one sample into contiguous slices.

    Attributes:
        boundaries: Token index where each slice starts, plus the
            sequence length as the final sentinel; ``len(boundaries) ==
            num_slices + 1``.
    """

    boundaries: tuple[int, ...]

    @property
    def num_slices(self) -> int:
        return len(self.boundaries) - 1

    def slice_tokens(self, index: int) -> int:
        """Token count of one slice."""
        return self.boundaries[index + 1] - self.boundaries[index]

    def slice_offset(self, index: int) -> int:
        """Context offset of one slice."""
        return self.boundaries[index]

    def sizes(self) -> list[int]:
        """All slice token counts."""
        return [self.slice_tokens(i) for i in range(self.num_slices)]


def uniform_plan(seq_length: int, num_slices: int) -> SlicePlan:
    """Equal-size slices (MEPipe's choice)."""
    if seq_length % num_slices != 0:
        raise ValueError(
            f"sequence {seq_length} not divisible into {num_slices} slices")
    step = seq_length // num_slices
    return SlicePlan(tuple(i * step for i in range(num_slices)) + (seq_length,))


def slice_forward_seconds(
    spec: ModelSpec,
    tokens: int,
    offset: int,
    effective_tflops: float = 165.0,
    eff: EfficiencyModel = DEFAULT_EFFICIENCY,
    irregular_penalty: float = 1.0,
) -> float:
    """Per-layer forward time of a slice, with a kernel-shape penalty.

    ``irregular_penalty > 1`` models the degraded GEMM/FlashAttention
    throughput of non-power-of-two shapes (Section 5: "operators ...
    exhibit optimal performance when the input dimensions are the
    powers of 2").
    """
    if tokens <= 0:
        return 0.0
    gemm = gemm_forward_flops_per_token(spec) * tokens
    attn = attention_score_flops(spec, tokens, offset)
    peak = effective_tflops * 1e12
    t = gemm / (peak * eff.gemm(tokens)) + attn / (peak * eff.attention(tokens))
    return t * irregular_penalty


def _is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def shape_penalty(tokens: int, penalty: float = 1.08) -> float:
    """Kernel penalty for a slice whose token count is not 2^k."""
    return 1.0 if _is_power_of_two(tokens) else penalty


def balanced_plan(
    spec: ModelSpec,
    num_slices: int,
    granularity: int = 128,
    effective_tflops: float = 165.0,
    eff: EfficiencyModel = DEFAULT_EFFICIENCY,
    irregular_penalty: float = 1.08,
) -> SlicePlan:
    """TeraPipe's DP: minimize the maximum per-slice forward time.

    Token boundaries are restricted to multiples of ``granularity``
    (tensor cores need *some* alignment even in TeraPipe).  The DP is
    the classic min-max linear partition: ``best[k][j]`` = minimal
    achievable bottleneck time cutting the first ``j`` blocks into
    ``k`` slices.
    """
    seq = spec.seq_length
    if seq % granularity != 0:
        raise ValueError("sequence not divisible by granularity")
    blocks = seq // granularity
    if num_slices > blocks:
        raise ValueError("more slices than granularity blocks")

    @lru_cache(maxsize=None)
    def segment_time(start_block: int, end_block: int) -> float:
        tokens = (end_block - start_block) * granularity
        offset = start_block * granularity
        return slice_forward_seconds(
            spec, tokens, offset, effective_tflops, eff,
            irregular_penalty=shape_penalty(tokens, irregular_penalty),
        )

    inf = float("inf")
    best = [[inf] * (blocks + 1) for _ in range(num_slices + 1)]
    cut = [[0] * (blocks + 1) for _ in range(num_slices + 1)]
    best[0][0] = 0.0
    for k in range(1, num_slices + 1):
        for j in range(k, blocks + 1):
            for i in range(k - 1, j):
                if best[k - 1][i] == inf:
                    continue
                bottleneck = max(best[k - 1][i], segment_time(i, j))
                if bottleneck < best[k][j]:
                    best[k][j] = bottleneck
                    cut[k][j] = i
    bounds = [blocks]
    j = blocks
    for k in range(num_slices, 0, -1):
        j = cut[k][j]
        bounds.append(j)
    bounds.reverse()
    return SlicePlan(tuple(b * granularity for b in bounds))


@dataclass(frozen=True)
class PlanComparison:
    """Bottleneck forward times of the two partitioning strategies."""

    uniform_bottleneck: float
    balanced_bottleneck: float
    uniform_sizes: tuple[int, ...]
    balanced_sizes: tuple[int, ...]


def compare_plans(
    spec: ModelSpec,
    num_slices: int,
    granularity: int = 128,
    irregular_penalty: float = 1.08,
) -> PlanComparison:
    """Bottleneck slice time of uniform vs DP-balanced partitioning.

    In a slice pipeline the steady-state period is set by the slowest
    slice, so the bottleneck time is the figure of merit.  Uniform
    power-of-two slices pay imbalance; balanced slices pay the
    irregular-shape penalty.  The paper's claim: below ~128k context
    the imbalance is small enough that uniform wins.
    """
    uni = uniform_plan(spec.seq_length, num_slices)
    bal = balanced_plan(spec, num_slices, granularity,
                        irregular_penalty=irregular_penalty)

    def bottleneck(plan: SlicePlan) -> float:
        return max(
            slice_forward_seconds(
                spec,
                plan.slice_tokens(i),
                plan.slice_offset(i),
                irregular_penalty=shape_penalty(plan.slice_tokens(i),
                                                irregular_penalty),
            )
            for i in range(plan.num_slices)
        )

    return PlanComparison(
        uniform_bottleneck=bottleneck(uni),
        balanced_bottleneck=bottleneck(bal),
        uniform_sizes=tuple(uni.sizes()),
        balanced_sizes=tuple(bal.sizes()),
    )
