"""Tests for slice partitioning (uniform vs TeraPipe DP, Section 5)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import LLAMA_7B, tiny_spec
from repro.schedules.partition import (
    balanced_plan,
    compare_plans,
    shape_penalty,
    slice_forward_seconds,
    uniform_plan,
)


class TestSlicePlan:
    def test_uniform_sizes(self):
        plan = uniform_plan(4096, 4)
        assert plan.sizes() == [1024] * 4
        assert plan.num_slices == 4
        assert plan.slice_offset(2) == 2048

    def test_uniform_indivisible_rejected(self):
        with pytest.raises(ValueError):
            uniform_plan(100, 3)

    def test_shape_penalty(self):
        assert shape_penalty(1024) == 1.0
        assert shape_penalty(1000) > 1.0


class TestBalancedPlan:
    def test_covers_whole_sequence(self):
        spec = replace(LLAMA_7B, seq_length=8192)
        plan = balanced_plan(spec, 4, granularity=256)
        assert plan.boundaries[0] == 0
        assert plan.boundaries[-1] == 8192
        assert sum(plan.sizes()) == 8192
        assert all(size > 0 for size in plan.sizes())

    def test_later_slices_not_larger(self):
        """Balancing against causal attention shrinks later slices."""
        spec = replace(LLAMA_7B, seq_length=65536)
        plan = balanced_plan(spec, 8, granularity=1024)
        sizes = plan.sizes()
        assert sizes[0] > sizes[-1]

    def test_dp_never_worse_than_uniform_without_penalty(self):
        spec = replace(LLAMA_7B, seq_length=16384)
        bal = balanced_plan(spec, 4, granularity=512, irregular_penalty=1.0)
        uni = uniform_plan(16384, 4)

        def bottleneck(plan):
            return max(
                slice_forward_seconds(spec, plan.slice_tokens(i),
                                      plan.slice_offset(i))
                for i in range(plan.num_slices))

        assert bottleneck(bal) <= bottleneck(uni) + 1e-12

    def test_too_many_slices_rejected(self):
        spec = replace(LLAMA_7B, seq_length=1024)
        with pytest.raises(ValueError):
            balanced_plan(spec, 16, granularity=128)


class TestSection5Claim:
    def test_short_context_uniform_competitive(self):
        """At 4k the DP finds nothing better than uniform slices."""
        spec = replace(LLAMA_7B, seq_length=4096)
        c = compare_plans(spec, 8, granularity=64, irregular_penalty=1.25)
        assert c.balanced_bottleneck >= 0.99 * c.uniform_bottleneck

    def test_long_context_balanced_wins(self):
        """Beyond ~64k tokens non-uniform partitioning pays (Section 5:
        'training models with a context longer than 128,000 tokens')."""
        spec = replace(LLAMA_7B, seq_length=131072)
        c = compare_plans(spec, 8, granularity=2048, irregular_penalty=1.25)
        assert c.balanced_bottleneck < c.uniform_bottleneck
        assert c.uniform_bottleneck / c.balanced_bottleneck > 1.15

    def test_gain_grows_with_context(self):
        gains = []
        for ctx in (16384, 65536, 131072):
            spec = replace(LLAMA_7B, seq_length=ctx)
            c = compare_plans(spec, 8, granularity=ctx // 64,
                              irregular_penalty=1.25)
            gains.append(c.uniform_bottleneck / c.balanced_bottleneck)
        assert gains == sorted(gains)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.sampled_from([2048, 4096, 8192]))
def test_balanced_plan_is_valid_partition(num_slices, seq):
    spec = tiny_spec(seq_length=seq)
    plan = balanced_plan(spec, num_slices, granularity=seq // 32)
    assert plan.num_slices == num_slices
    assert list(plan.boundaries) == sorted(set(plan.boundaries))
    assert plan.boundaries[0] == 0 and plan.boundaries[-1] == seq
