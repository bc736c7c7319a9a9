"""Tests for the discrete-event executor and its memory ledger."""

import pytest

from repro.schedules import (
    OpId,
    OpKind,
    PipelineProblem,
    Schedule,
    ScheduleError,
    StageProgram,
    build_problem,
    build_schedule,
)
from repro.sim import UniformCost, simulate

from tests.oracles.fixed_point import Ledger


class TestReplay:
    def test_two_stage_hand_timed(self):
        """Hand-check op times for a 2-stage, 2-microbatch 1F1B."""
        pr = PipelineProblem(num_stages=2, num_microbatches=2)
        sch = build_schedule("dapple", pr)
        r = simulate(sch, UniformCost(pr, tf=1, tb=2))
        rec = r.records
        assert rec[OpId(OpKind.F, 0, 0, 0)].start == 0.0
        assert rec[OpId(OpKind.F, 0, 0, 1)].start == 1.0
        assert rec[OpId(OpKind.B, 0, 0, 1)].start == 2.0
        assert rec[OpId(OpKind.B, 0, 0, 0)].start == 4.0
        assert rec[OpId(OpKind.B, 1, 0, 0)].start == 7.0
        assert r.makespan == pytest.approx(9.0)

    def test_comm_latency_shifts_downstream(self):
        pr = PipelineProblem(num_stages=2, num_microbatches=1)

        class LatencyCost(UniformCost):
            def comm_time(self, dep, op):
                return 0.5 if self.problem.is_cross_stage(dep, op) else 0.0

        sch = build_schedule("gpipe", pr)
        r = simulate(sch, LatencyCost(pr, tf=1, tb=2))
        assert r.records[OpId(OpKind.F, 0, 0, 1)].start == pytest.approx(1.5)

    def test_stage_never_overlaps_itself(self):
        pr = build_problem("mepipe", 4, 6, num_slices=2, wgrad_gemms=2)
        r = simulate(build_schedule("mepipe", pr), UniformCost(pr, tw=0.5))
        for stage in range(4):
            records = r.stage_records(stage)
            for a, b in zip(records, records[1:]):
                assert b.start >= a.end - 1e-9

    def test_deadlocked_program_raises(self):
        pr = PipelineProblem(num_stages=2, num_microbatches=1)
        programs = [
            StageProgram(0, [OpId(OpKind.B, 0, 0, 0), OpId(OpKind.F, 0, 0, 0)]),
            StageProgram(1, [OpId(OpKind.F, 0, 0, 1), OpId(OpKind.B, 0, 0, 1)]),
        ]
        with pytest.raises(ScheduleError, match="deadlock"):
            simulate(Schedule(pr, programs), UniformCost(pr))

    def test_overhead_time_added(self):
        pr = build_problem("dapple", 2, 2)
        r = simulate(build_schedule("dapple", pr), UniformCost(pr),
                     overhead_time=1.5)
        assert r.iteration_time == pytest.approx(r.makespan + 1.5)

    def test_bubble_ratio_bounds(self):
        pr = build_problem("dapple", 4, 4)
        r = simulate(build_schedule("dapple", pr), UniformCost(pr))
        assert 0.0 < r.bubble_ratio < 1.0
        for s in range(4):
            assert 0.0 <= r.stage_bubble_ratio(s) < 1.0

    def test_single_stage_has_no_bubbles(self):
        pr = PipelineProblem(num_stages=1, num_microbatches=4)
        r = simulate(build_schedule("gpipe", pr), UniformCost(pr))
        assert r.bubble_ratio == pytest.approx(0.0)


class TestLedger:
    def test_fused_backward_releases_at_b(self):
        pr = PipelineProblem(num_stages=1, num_microbatches=1)
        ledger = Ledger(problem=pr)
        ledger.apply(OpId(OpKind.F, 0, 0, 0), 1.0)
        assert ledger.current == 1.0
        ledger.apply(OpId(OpKind.B, 0, 0, 0), 1.0)
        assert ledger.current == 0.0
        assert ledger.peak == 1.0

    def test_split_backward_holds_until_w(self):
        pr = PipelineProblem(num_stages=1, num_microbatches=1,
                             split_backward=True, wgrad_gemms=2)
        ledger = Ledger(problem=pr, actgrad_factor=1.0)
        ledger.apply(OpId(OpKind.F, 0, 0, 0), 1.0)
        ledger.apply(OpId(OpKind.B, 0, 0, 0), 1.0)
        assert ledger.current == pytest.approx(2.0)  # act + actgrad
        ledger.apply(OpId(OpKind.W, 0, 0, 0, 0), 1.0)
        assert ledger.current == pytest.approx(1.0)
        ledger.apply(OpId(OpKind.W, 0, 0, 0, 1), 1.0)
        assert ledger.current == pytest.approx(0.0)
        assert ledger.peak == pytest.approx(2.0)

    def test_actgrad_factor_scales_b_pin(self):
        pr = PipelineProblem(num_stages=1, num_microbatches=1,
                             split_backward=True)
        ledger = Ledger(problem=pr, actgrad_factor=0.5)
        ledger.apply(OpId(OpKind.F, 0, 0, 0), 1.0)
        ledger.apply(OpId(OpKind.B, 0, 0, 0), 1.0)
        assert ledger.peak == pytest.approx(1.5)


class TestUniformCost:
    def test_slice_scaling(self):
        pr = PipelineProblem(num_stages=2, num_microbatches=1, num_slices=4)
        cost = UniformCost(pr, tf=1.0)
        assert cost.duration(OpId(OpKind.F, 0, 0, 0)) == pytest.approx(0.25)

    def test_chunk_scaling(self):
        pr = PipelineProblem(num_stages=2, num_microbatches=1, virtual_size=2)
        cost = UniformCost(pr, tf=1.0)
        assert cost.duration(OpId(OpKind.F, 0, 0, 0)) == pytest.approx(0.5)

    def test_imbalance_reweights_slices(self):
        pr = PipelineProblem(num_stages=2, num_microbatches=1, num_slices=2)
        cost = UniformCost(pr, tf=1.0, imbalance=(0.75, 1.0))
        t0 = cost.duration(OpId(OpKind.F, 0, 0, 0))
        t1 = cost.duration(OpId(OpKind.F, 0, 1, 0))
        assert t0 / t1 == pytest.approx(0.75)
        assert t0 + t1 == pytest.approx(1.0)

    def test_wgrad_fragments_split_evenly(self):
        pr = PipelineProblem(num_stages=2, num_microbatches=1,
                             split_backward=True, wgrad_gemms=4)
        cost = UniformCost(pr, tw=1.0)
        w = cost.duration(OpId(OpKind.W, 0, 0, 0, 0))
        assert w == pytest.approx(1.0 / 4)
