"""Analytical FLOP counts for decoder-only transformers.

These drive both the performance model of the cluster simulator and the
MFU numbers reported for Table 9.  The key property for MEPipe is the
*imbalance* across slices of one sample: with causal attention, tokens in
a later slice attend to all preceding slices' keys/values, so the
attention-score FLOPs grow with the slice's context offset while every
GEMM is proportional to the slice's own token count only (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.spec import ModelSpec


def gemm_forward_flops_per_token(spec: ModelSpec) -> int:
    """Forward FLOPs per token for the GEMMs of one transformer layer.

    Counts QKV projection, output projection and the SwiGLU MLP; each
    GEMM of shape ``(t, a) @ (a, b)`` costs ``2*t*a*b`` FLOPs.
    """
    h = spec.hidden_size
    qkv = 2 * h * (h + 2 * spec.kv_hidden_size)
    out = 2 * h * h
    mlp = 3 * 2 * h * spec.ffn_hidden_size
    return qkv + out + mlp


def attention_score_flops(spec: ModelSpec, tokens: int, offset: int) -> int:
    """Forward attention-score FLOPs for a slice of ``tokens`` tokens.

    Token at absolute position ``pos`` attends to ``pos + 1`` keys; both
    the ``Q @ K^T`` and the ``A @ V`` products cost
    ``2 * num_heads * head_dim = 2 * hidden`` FLOPs per (query, key) pair.
    """
    if tokens <= 0:
        return 0
    last = offset + tokens - 1
    attended = (offset + 1 + last + 1) * tokens // 2  # arithmetic series
    return 4 * spec.hidden_size * attended


@dataclass(frozen=True)
class SliceFlops:
    """FLOPs of one pipeline op for a slice of one sample on one layer.

    ``forward`` is the full forward pass; the backward pass is split the
    way zero-bubble/MEPipe split it: ``backward_dgrad`` produces the
    activation gradients (including the attention backward, which carries
    the slice imbalance) and ``backward_wgrad`` is the weight-gradient
    GEMMs only (balanced across slices).
    """

    forward: int
    backward_dgrad: int
    backward_wgrad: int

    @property
    def backward_total(self) -> int:
        """Combined backward FLOPs (classic un-split backward pass)."""
        return self.backward_dgrad + self.backward_wgrad


def layer_slice_flops(spec: ModelSpec, tokens: int, offset: int) -> SliceFlops:
    """FLOPs of one transformer layer for a slice at ``offset``.

    The weight-gradient GEMMs mirror the forward GEMMs (``dW = X^T dY``),
    so ``backward_wgrad == gemm_forward``.  The activation-gradient pass
    mirrors the forward GEMMs (``dX = dY W^T``) plus roughly twice the
    forward attention-score work (gradients of both ``QK^T`` and ``AV``).
    """
    gemm = gemm_forward_flops_per_token(spec) * tokens
    attn = attention_score_flops(spec, tokens, offset)
    return SliceFlops(
        forward=gemm + attn,
        backward_dgrad=gemm + 2 * attn,
        backward_wgrad=gemm,
    )


def head_slice_flops(spec: ModelSpec, tokens: int) -> SliceFlops:
    """FLOPs of the LM head (logits GEMM) for ``tokens`` tokens."""
    gemm = 2 * spec.hidden_size * spec.vocab_size * tokens
    return SliceFlops(forward=gemm, backward_dgrad=gemm, backward_wgrad=gemm)


def attention_score_share(spec: ModelSpec) -> float:
    """Share of total forward FLOPs spent on attention scores.

    Section 4.4 notes this is below 10% for a 7B model at context 4096,
    which bounds the impact of slice imbalance.
    """
    full = layer_slice_flops(spec, spec.seq_length, 0)
    attn = attention_score_flops(spec, spec.seq_length, 0)
    return attn / full.forward


def model_train_flops(spec: ModelSpec, tokens: int) -> int:
    """Training FLOPs (forward + full backward) for ``tokens`` tokens.

    This is the numerator of Model FLOPS Utilization (MFU): the useful
    FLOPs of the model itself, with no recomputation and no parallelism
    overheads counted.
    """
    layer = layer_slice_flops(spec, tokens, 0)
    head = head_slice_flops(spec, tokens)
    per_layer = layer.forward + layer.backward_total
    per_head = head.forward + head.backward_total
    return spec.num_layers * per_layer + per_head
