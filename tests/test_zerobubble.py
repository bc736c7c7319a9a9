"""Tests for ZB-1P, ZBV, and Hanayo schedules."""

import pytest

from repro.schedules import (
    OpKind,
    ScheduleError,
    analyze,
    build_problem,
    build_schedule,
    ensure_verified,
    hanayo_problem,
    hanayo_schedule,
    zb_problem,
    zb_schedule,
    zbv_problem,
    zbv_schedule,
)
from repro.sim import UniformCost, simulate


class TestZB:
    def _run(self, p, n):
        problem = zb_problem(p, n)
        schedule = zb_schedule(problem)
        ensure_verified(schedule)
        # Split backward: B carries the dgrad half, W the wgrad half.
        return simulate(schedule, UniformCost(problem, tf=1, tb=1, tw=1))

    def test_beats_dapple_bubble(self):
        """Deferred W fills the drain bubbles DAPPLE leaves."""
        zb = self._run(4, 8)
        pr = build_problem("dapple", 4, 8)
        dapple = simulate(build_schedule("dapple", pr), UniformCost(pr, tf=1, tb=2))
        assert zb.bubble_ratio < dapple.bubble_ratio

    def test_same_total_compute_as_dapple(self):
        zb = self._run(4, 8)
        pr = build_problem("dapple", 4, 8)
        dapple = simulate(build_schedule("dapple", pr), UniformCost(pr, tf=1, tb=2))
        assert sum(s.busy_time for s in zb.stages) == pytest.approx(
            sum(s.busy_time for s in dapple.stages))

    def test_memory_above_dapple(self):
        """Pinned activation gradients push ZB past DAPPLE's A
        (the Section 7.2 OOM mechanism)."""
        zb = self._run(4, 8)
        assert 1.0 < zb.peak_activation_units <= 1.5

    def test_w_never_precedes_its_b(self):
        problem = zb_problem(4, 4)
        schedule = zb_schedule(problem)
        for stage in range(4):
            seen_b = set()
            for op in schedule.programs[stage].ops:
                if op.kind is OpKind.B:
                    seen_b.add((op.microbatch, op.slice_idx, op.chunk))
                elif op.kind is OpKind.W:
                    assert (op.microbatch, op.slice_idx, op.chunk) in seen_b

    def test_rejects_fused_problem(self):
        with pytest.raises(ScheduleError):
            zb_schedule(build_problem("dapple", 2, 2))


class TestZBV:
    def _run(self, p, n):
        problem = zbv_problem(p, n)
        schedule = zbv_schedule(problem)
        ensure_verified(schedule)
        return simulate(schedule, UniformCost(problem, tf=1, tb=1, tw=1))

    def test_lower_bubble_than_zb(self):
        zbv = self._run(4, 16)
        problem = zb_problem(4, 16)
        zb = simulate(zb_schedule(problem), UniformCost(problem, tf=1, tb=1, tw=1))
        assert zbv.bubble_ratio < zb.bubble_ratio

    def test_vshape_first_backward_on_stage0(self):
        """With V-placement the head chunk lives on stage 0."""
        problem = zbv_problem(4, 4)
        assert problem.stage_of_chunk(problem.num_chunks - 1) == 0

    def test_memory_between_1_and_2(self):
        zbv = self._run(4, 8)
        assert 1.0 <= zbv.peak_activation_units <= 2.0

    def test_requires_vshape(self):
        from repro.schedules import PipelineProblem
        bad = PipelineProblem(num_stages=4, num_microbatches=4, virtual_size=2,
                              split_backward=True)
        with pytest.raises(ScheduleError):
            zbv_schedule(bad)


class TestHanayo:
    def _run(self, p, n, waves=2):
        problem = hanayo_problem(p, n, waves=waves)
        schedule = hanayo_schedule(problem)
        ensure_verified(schedule)
        return simulate(schedule, UniformCost(problem, tb=1))

    def test_bubble_matches_table3(self):
        result = self._run(4, 8)
        expected = analyze("hanayo", 4, 8, v=2)
        assert result.bubble_ratio == pytest.approx(expected.bubble_ratio, abs=1e-9)

    def test_memory_matches_table3(self):
        result = self._run(4, 8)
        expected = analyze("hanayo", 4, 8, v=2)
        assert result.peak_activation_units == pytest.approx(expected.memory_units)

    def test_rejects_interleaved_placement(self):
        from repro.schedules import PipelineProblem
        bad = PipelineProblem(num_stages=4, num_microbatches=4, virtual_size=2)
        with pytest.raises(ScheduleError):
            hanayo_schedule(bad)
