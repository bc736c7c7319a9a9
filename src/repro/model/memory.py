"""Memory model for LLM training (Section 4.5).

Three components, exactly as the paper structures them:

1. **Static memory** — parameters, gradients, optimizer state.  With
   half-precision training and the Megatron-LM mixed-precision Adam
   optimizer this is 2 bytes (FP16 params) + 2 bytes (FP16 grads) per
   parameter on each pipeline stage, plus 12 bytes per parameter
   (FP32 master copy + Adam moments) distributed over all devices by
   ZeRO-1.  Section 7.4 confirms the 12-byte figure: the optimizer holds
   ~6.375 GB per worker for a 34B model on 64 devices
   (34e9 * 12 / 64 = 6.375 GB).

2. **Temporary memory** — transient buffers (the logits/loss buffer being
   the largest); treated as static during an iteration.

3. **Activation memory** — the schedule-dependent component that MEPipe's
   slice-level scheduling reduces; ``A`` in the paper is the activation
   footprint of *one full sample* across the whole model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.spec import ModelSpec

GiB = 1024**3

#: FP16/BF16 element size in bytes.
HALF = 2
#: FP32 element size in bytes.
FULL = 4


def activation_bytes_per_token_per_layer(
    spec: ModelSpec, recompute: bool = False
) -> int:
    """Activation bytes stored per token for one transformer layer.

    Assumes FlashAttention (no materialized attention matrix) and FP16
    activations.  The stored tensors are the inputs each backward GEMM
    needs: the two norm inputs, the QKV input, Q/K/V, the attention
    output, the MLP input, the SwiGLU gate/up outputs, and the product
    fed to the down projection.

    With full recomputation (``recompute=True``) only the layer input is
    kept, which is the ~90% reduction quoted in Section 7.3.
    """
    h = spec.hidden_size
    if recompute:
        return HALF * h
    f = spec.ffn_hidden_size
    kv = spec.kv_hidden_size
    stored = (
        2 * h  # RMSNorm inputs (attention + MLP branches)
        + h  # QKV GEMM input (norm output)
        + (h + 2 * kv)  # Q, K, V
        + h  # attention output (proj GEMM input)
        + h  # MLP norm output (gate/up GEMM input)
        + 2 * f  # gate and up outputs
        + f  # silu(gate) * up, input of down projection
    )
    return HALF * stored


def sample_activation_bytes(spec: ModelSpec, recompute: bool = False) -> int:
    """``A``: activation bytes of one full sample over all layers."""
    per_token = activation_bytes_per_token_per_layer(spec, recompute=recompute)
    return spec.num_layers * spec.seq_length * per_token


def static_bytes_per_device(
    spec: ModelSpec,
    pipeline_stages: int,
    total_devices: int,
    fp32_grad_accum: bool = False,
) -> int:
    """Static memory per device: FP16 params+grads per stage + ZeRO-1 Adam.

    ``fp32_grad_accum`` adds an FP32 gradient buffer per stage, which some
    Megatron-LM configurations maintain (Section 4.5 mentions frameworks
    may keep FP32 copies; we default to the leaner layout the paper's
    34B arithmetic implies).
    """
    m = spec.total_params()
    per_stage = m // pipeline_stages
    grad_bytes = (HALF + FULL) if fp32_grad_accum else HALF
    stage_bytes = per_stage * (HALF + grad_bytes)
    optimizer_bytes = m * 12 // total_devices
    return stage_bytes + optimizer_bytes


def temporary_bytes(
    spec: ModelSpec, micro_batch_tokens: int, is_last_stage: bool = True
) -> int:
    """Transient buffer high-water mark, dominated by the logits buffer.

    The last pipeline stage materializes FP16 logits plus an FP32
    softmax/loss workspace for each micro-batch slice it processes;
    other stages only need communication and GEMM workspaces, modeled
    as a flat 256 MiB reserve.
    """
    workspace = 256 * 1024 * 1024
    if not is_last_stage:
        return workspace
    logits = micro_batch_tokens * spec.vocab_size * (HALF + FULL)
    return workspace + logits


#: CUDA context + NCCL channel buffers + cuDNN/cuBLAS workspaces that a
#: Megatron-LM rank pins outside the PyTorch allocator.
FRAMEWORK_OVERHEAD_BYTES = int(1.25 * GiB)


@dataclass(frozen=True)
class MemoryBudget:
    """Breakdown of a device's memory budget in bytes."""

    capacity: int
    static: int
    temporary: int
    allocator_reserve: int
    framework_overhead: int = FRAMEWORK_OVERHEAD_BYTES

    @property
    def pinned(self) -> int:
        """Bytes held whatever the schedule: everything but activations."""
        return (
            self.static
            + self.temporary
            + self.allocator_reserve
            + self.framework_overhead
        )

    @property
    def available_for_activations(self) -> int:
        """Bytes left for schedule-managed activations (may be <= 0)."""
        return self.capacity - self.pinned


def budget_for(
    spec: ModelSpec,
    capacity_bytes: int,
    pipeline_stages: int,
    total_devices: int,
    micro_batch_tokens: int,
    allocator_reserve_fraction: float = 0.06,
    is_last_stage: bool = True,
) -> MemoryBudget:
    """Assemble the Section 4.5 memory budget for one device.

    ``allocator_reserve_fraction`` models memory the PyTorch caching
    allocator keeps reserved but unusable (fragmentation); Section 7.2
    observed this pushing ZB out of memory, so schedulers that hold both
    activations and activation gradients are charged a larger reserve by
    the planner.
    """
    static = static_bytes_per_device(spec, pipeline_stages, total_devices)
    temp = temporary_bytes(spec, micro_batch_tokens, is_last_stage=is_last_stage)
    reserve = int(capacity_bytes * allocator_reserve_fraction)
    return MemoryBudget(
        capacity=capacity_bytes,
        static=static,
        temporary=temp,
        allocator_reserve=reserve,
    )
