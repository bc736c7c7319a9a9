"""Model specifications and analytical FLOP/memory models."""

from repro.model.flops import (
    SliceFlops,
    attention_score_flops,
    attention_score_share,
    gemm_forward_flops_per_token,
    head_slice_flops,
    layer_slice_flops,
    model_train_flops,
)
from repro.model.memory import (
    GiB,
    MemoryBudget,
    activation_bytes_per_token_per_layer,
    budget_for,
    sample_activation_bytes,
    static_bytes_per_device,
    temporary_bytes,
)
from repro.model.spec import (
    LLAMA_7B,
    LLAMA_13B,
    LLAMA_34B,
    MODELS,
    ModelSpec,
    get_model,
    tiny_spec,
)

__all__ = [
    "GiB",
    "LLAMA_13B",
    "LLAMA_34B",
    "LLAMA_7B",
    "MODELS",
    "MemoryBudget",
    "ModelSpec",
    "SliceFlops",
    "activation_bytes_per_token_per_layer",
    "attention_score_flops",
    "attention_score_share",
    "budget_for",
    "gemm_forward_flops_per_token",
    "get_model",
    "head_slice_flops",
    "layer_slice_flops",
    "model_train_flops",
    "sample_activation_bytes",
    "static_bytes_per_device",
    "temporary_bytes",
    "tiny_spec",
]
