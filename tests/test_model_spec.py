"""Tests for repro.model.spec."""

import pytest

from repro.model import LLAMA_7B, LLAMA_13B, LLAMA_34B, ModelSpec, get_model, tiny_spec


class TestPresets:
    def test_table4_hidden_sizes(self):
        assert LLAMA_7B.hidden_size == 4096
        assert LLAMA_13B.hidden_size == 5120
        assert LLAMA_34B.hidden_size == 8192

    def test_table4_layer_counts(self):
        # Two transformer layers removed per Section 7.1.
        assert LLAMA_7B.num_layers == 30
        assert LLAMA_13B.num_layers == 38
        assert LLAMA_34B.num_layers == 46

    def test_param_counts_near_nominal(self):
        # Nominal sizes with two layers removed land slightly below the
        # marketing numbers.
        assert 6.0e9 < LLAMA_7B.total_params() < 7.0e9
        assert 12.0e9 < LLAMA_13B.total_params() < 13.5e9
        assert 31.0e9 < LLAMA_34B.total_params() < 34.5e9

    def test_seq_length_default(self):
        for spec in (LLAMA_7B, LLAMA_13B, LLAMA_34B):
            assert spec.seq_length == 4096

    def test_gqa_only_on_34b(self):
        assert LLAMA_7B.kv_heads == LLAMA_7B.num_heads
        assert LLAMA_34B.kv_heads == 8

    def test_balanced_layer_count_13b_is_40(self):
        # Section 7.2: "Llama 13B comprises 40 layers (including the
        # embedding and head layer)".
        assert LLAMA_13B.balanced_layer_count() == 40


class TestLookup:
    def test_get_model_short_and_full_names(self):
        assert get_model("13b") is LLAMA_13B
        assert get_model("llama-34b") is LLAMA_34B

    def test_get_model_unknown_raises(self):
        with pytest.raises(KeyError):
            get_model("gpt-5")


class TestValidation:
    def test_hidden_not_divisible_by_heads(self):
        with pytest.raises(ValueError):
            ModelSpec(name="bad", hidden_size=100, num_layers=2, num_heads=3,
                      ffn_hidden_size=256)

    def test_kv_heads_must_divide_heads(self):
        with pytest.raises(ValueError):
            ModelSpec(name="bad", hidden_size=64, num_layers=2, num_heads=4,
                      num_kv_heads=3, ffn_hidden_size=256)

    def test_head_dim(self):
        assert LLAMA_13B.head_dim == 128


class TestPipelineHelpers:
    def test_tiny_spec_valid(self):
        t = tiny_spec()
        assert t.total_params() > 0
        assert t.head_dim * t.num_heads == t.hidden_size
