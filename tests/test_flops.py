"""Tests for repro.model.flops."""

import pytest

from repro.model import (
    LLAMA_7B,
    LLAMA_13B,
    LLAMA_34B,
    attention_score_flops,
    attention_score_share,
    layer_slice_flops,
    model_train_flops,
    tiny_spec,
)


class TestAttentionScoreFlops:
    def test_zero_tokens(self):
        assert attention_score_flops(LLAMA_7B, 0, 0) == 0

    def test_slices_sum_to_full(self):
        """Causal attention work is conserved under slicing."""
        spec = LLAMA_13B
        full = attention_score_flops(spec, spec.seq_length, 0)
        for s in (2, 4, 8, 16):
            t = spec.seq_length // s
            sliced = sum(attention_score_flops(spec, t, i * t) for i in range(s))
            assert sliced == full

    def test_later_slices_cost_more(self):
        spec = LLAMA_7B
        t = spec.seq_length // 4
        costs = [attention_score_flops(spec, t, i * t) for i in range(4)]
        assert costs == sorted(costs)
        assert costs[3] > 3 * costs[0]

    def test_quadratic_in_sequence(self):
        spec = tiny_spec()
        a = attention_score_flops(spec, 128, 0)
        b = attention_score_flops(spec, 256, 0)
        assert 3.5 < b / a < 4.5


class TestLayerSliceFlops:
    def test_wgrad_balanced_across_slices(self):
        """Weight-gradient GEMMs do not depend on the slice offset."""
        spec = LLAMA_13B
        t = spec.seq_length // 8
        w = {layer_slice_flops(spec, t, i * t).backward_wgrad for i in range(8)}
        assert len(w) == 1

    def test_dgrad_carries_imbalance(self):
        spec = LLAMA_13B
        t = spec.seq_length // 8
        first = layer_slice_flops(spec, t, 0)
        last = layer_slice_flops(spec, t, 7 * t)
        assert last.backward_dgrad > first.backward_dgrad
        assert last.backward_wgrad == first.backward_wgrad

    def test_backward_total_is_sum(self):
        f = layer_slice_flops(LLAMA_7B, 512, 1024)
        assert f.backward_total == f.backward_dgrad + f.backward_wgrad

    def test_backward_roughly_twice_forward(self):
        f = layer_slice_flops(LLAMA_13B, 4096, 0)
        assert 1.8 < f.backward_total / f.forward < 2.4


class TestPaperAnchors:
    def test_attention_share_below_10pct_for_7b(self):
        """Section 4.4: attention score < 10% of computation for 7B@4096."""
        assert attention_score_share(LLAMA_7B) < 0.10

    def test_attention_share_shrinks_with_model_size(self):
        """Section 4.4: the proportion is even smaller for larger models."""
        shares = [attention_score_share(m) for m in (LLAMA_7B, LLAMA_13B, LLAMA_34B)]
        assert shares[0] > shares[1] > shares[2]

    def test_figure7_slice0_near_75pct_of_slice1(self):
        """Figure 7 assumes slice 0 forward ~75% of slice 1 with s=2."""
        half = LLAMA_13B.seq_length // 2
        ratio = (
            layer_slice_flops(LLAMA_13B, half, 0).forward
            / layer_slice_flops(LLAMA_13B, half, half).forward
        )
        assert 0.80 < ratio < 1.0  # mild imbalance, shrinking with size

    def test_model_train_flops_positive_and_scales(self):
        one = model_train_flops(LLAMA_13B, 4096)
        two = model_train_flops(LLAMA_13B, 8192)
        assert two > 2 * one > 0  # superlinear from attention

    def test_train_flops_near_6x_params(self):
        """Standard 6*N FLOPs/token approximation holds within ~20%."""
        spec = LLAMA_13B
        per_token = model_train_flops(spec, spec.seq_length) / spec.seq_length
        six_n = 6 * spec.total_params()
        assert per_token == pytest.approx(six_n, rel=0.2)
