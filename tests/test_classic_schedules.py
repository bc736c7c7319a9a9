"""Tests for GPipe, TeraPipe, DAPPLE, and interleaved VPP generators."""

import pytest

from repro.schedules import (
    PipelineProblem,
    ScheduleError,
    analyze,
    build_problem,
    build_schedule,
    ensure_verified,
    gpipe_schedule,
    terapipe_schedule,
    vpp_schedule,
)
from repro.sim import UniformCost, simulate


def run(method, p, n, s=1, v=1, **cost_kwargs):
    problem = build_problem(method, p, n, num_slices=s, virtual_size=v)
    schedule = build_schedule(method, problem)
    ensure_verified(schedule)
    return simulate(schedule, UniformCost(problem, **cost_kwargs))


class TestGPipe:
    @pytest.mark.parametrize("p,n", [(2, 2), (4, 8), (4, 3), (8, 16)])
    def test_bubble_matches_formula(self, p, n):
        result = run("gpipe", p, n)
        expected = analyze("gpipe", p, n)
        assert result.bubble_ratio == pytest.approx(expected.bubble_ratio, abs=1e-9)

    def test_memory_is_all_microbatches(self):
        result = run("gpipe", 4, 8)
        assert result.peak_activation_units == pytest.approx(8 / 4)

    def test_rejects_slices(self):
        pr = PipelineProblem(num_stages=2, num_microbatches=2, num_slices=2)
        with pytest.raises(ScheduleError):
            gpipe_schedule(pr)


class TestTeraPipe:
    @pytest.mark.parametrize("p,n,s", [(4, 8, 2), (4, 8, 8), (8, 4, 4), (2, 1, 4)])
    def test_bubble_matches_formula(self, p, n, s):
        result = run("terapipe", p, n, s=s)
        expected = analyze("terapipe", p, n, s=s)
        assert result.bubble_ratio == pytest.approx(expected.bubble_ratio, abs=1e-9)

    def test_memory_unchanged_by_slicing(self):
        """Section 2.1: TeraPipe preserves all samples' activations."""
        for s in (1, 2, 4, 8):
            result = run("terapipe", 4, 8, s=s)
            assert result.peak_activation_units == pytest.approx(2.0)

    def test_slices_shrink_bubble(self):
        bubbles = [run("terapipe", 4, 4, s=s).bubble_ratio for s in (1, 2, 4, 8)]
        assert bubbles == sorted(bubbles, reverse=True)

    def test_rejects_virtual(self):
        pr = PipelineProblem(num_stages=2, num_microbatches=2, num_slices=2,
                             virtual_size=2)
        with pytest.raises(ScheduleError):
            terapipe_schedule(pr)


class TestDAPPLE:
    @pytest.mark.parametrize("p,n", [(2, 4), (4, 8), (4, 4), (8, 32), (4, 2)])
    def test_bubble_matches_formula(self, p, n):
        result = run("dapple", p, n)
        expected = analyze("dapple", p, n)
        assert result.bubble_ratio == pytest.approx(expected.bubble_ratio, abs=1e-9)

    @pytest.mark.parametrize("p,n", [(4, 8), (8, 8), (4, 2)])
    def test_memory_matches_table3(self, p, n):
        result = run("dapple", p, n)
        expected = analyze("dapple", p, n)
        assert result.peak_activation_units == pytest.approx(expected.memory_units)

    def test_first_stage_holds_p_microbatches(self):
        """Figure 2 discussion: the first stage saves p forward passes."""
        result = run("dapple", 4, 8)
        assert result.stages[0].peak_activation_units == pytest.approx(1.0)
        assert result.stages[3].peak_activation_units == pytest.approx(1 / 4)

    def test_memory_staircase(self):
        result = run("dapple", 4, 8)
        peaks = [m.peak_activation_units for m in result.stages]
        assert peaks == sorted(peaks, reverse=True)

    def test_1f1b_structure_on_last_stage(self):
        schedule = build_schedule("dapple", build_problem("dapple", 4, 4))
        kinds = [op.kind.value for op in schedule.programs[3].ops]
        assert kinds == ["F", "B"] * 4


class TestVPP:
    @pytest.mark.parametrize("p,n,v", [(2, 4, 2), (4, 8, 2), (4, 8, 3), (4, 16, 2)])
    def test_bubble_matches_formula(self, p, n, v):
        result = run("vpp", p, n, v=v)
        expected = analyze("vpp", p, n, v=v)
        assert result.bubble_ratio == pytest.approx(expected.bubble_ratio, abs=1e-9)

    def test_memory_matches_table3(self):
        result = run("vpp", 4, 8, v=2)
        expected = analyze("vpp", 4, 8, v=2)
        assert result.peak_activation_units == pytest.approx(expected.memory_units)

    def test_vpp_more_memory_than_dapple(self):
        """Section 2.1: VPP fails to reduce activation memory."""
        vpp = run("vpp", 4, 8, v=2)
        dapple = run("dapple", 4, 8)
        assert vpp.peak_activation_units > dapple.peak_activation_units

    def test_vpp_less_bubble_than_dapple(self):
        vpp = run("vpp", 4, 8, v=2)
        dapple = run("dapple", 4, 8)
        assert vpp.bubble_ratio < dapple.bubble_ratio

    def test_requires_divisible_microbatches(self):
        pr = PipelineProblem(num_stages=4, num_microbatches=6, virtual_size=2)
        with pytest.raises(ScheduleError, match="n % p"):
            vpp_schedule(pr)

    def test_requires_v_at_least_2(self):
        pr = PipelineProblem(num_stages=4, num_microbatches=8)
        with pytest.raises(ScheduleError):
            vpp_schedule(pr)
