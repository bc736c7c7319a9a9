"""Tests for repro.schedules.base: ops, dependencies, validation."""

from dataclasses import FrozenInstanceError

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
    ensure_verified,
)


class TestOpId:
    def test_ordering_and_hash(self):
        a = OpId(OpKind.F, 0, 0, 0)
        b = OpId(OpKind.F, 0, 0, 1)
        assert a < b
        assert len({a, b, OpId(OpKind.F, 0, 0, 0)}) == 2

    def test_str_forms(self):
        assert str(OpId(OpKind.B, 2, 1, 3)) == "B2.1c3"
        assert str(OpId(OpKind.W, 0, 0, 1, gemm=2)) == "W0.0c1g2"


class TestProblemShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineProblem(num_stages=0, num_microbatches=1)
        with pytest.raises(ValueError):
            PipelineProblem(num_stages=2, num_microbatches=2, wgrad_gemms=2)
        with pytest.raises(ValueError):
            PipelineProblem(num_stages=2, num_microbatches=2,
                            chunk_placement="zigzag")

    def test_interleaved_chunk_placement(self):
        pr = PipelineProblem(num_stages=4, num_microbatches=1, virtual_size=2)
        assert [pr.stage_of_chunk(c) for c in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert pr.chunks_of_stage(1) == [1, 5]

    def test_vshape_chunk_placement(self):
        pr = PipelineProblem(num_stages=4, num_microbatches=1, virtual_size=2,
                             chunk_placement="vshape")
        assert [pr.stage_of_chunk(c) for c in range(8)] == [0, 1, 2, 3, 3, 2, 1, 0]
        assert pr.chunks_of_stage(0) == [0, 7]

    def test_activation_units(self):
        # Figure 4(a): p=4, s=2, v=1 -> one F op holds A/8.
        pr = PipelineProblem(num_stages=4, num_microbatches=4, num_slices=2)
        assert pr.activation_units_per_op == pytest.approx(1 / 8)
        # Figure 4(b): v=2 halves it to A/16.
        pr2 = PipelineProblem(num_stages=4, num_microbatches=4, num_slices=2,
                              virtual_size=2)
        assert pr2.activation_units_per_op == pytest.approx(1 / 16)

    def test_op_counts(self):
        pr = PipelineProblem(num_stages=2, num_microbatches=3, num_slices=2,
                             split_backward=True, wgrad_gemms=2)
        ops = pr.all_ops()
        f = [o for o in ops if o.kind is OpKind.F]
        b = [o for o in ops if o.kind is OpKind.B]
        w = [o for o in ops if o.kind is OpKind.W]
        assert len(f) == len(b) == 3 * 2 * 2
        assert len(w) == 3 * 2 * 2 * 2
        assert not list(
            PipelineProblem(num_stages=2, num_microbatches=1).wgrad_ops()
        )


class TestDependencies:
    def test_forward_deps_section41(self):
        """F(mb,sl,c) needs F(mb,sl,c-1) and F(mb,sl-1,c)."""
        pr = PipelineProblem(num_stages=4, num_microbatches=2, num_slices=2)
        deps = pr.deps(OpId(OpKind.F, 1, 1, 2))
        assert OpId(OpKind.F, 1, 1, 1) in deps
        assert OpId(OpKind.F, 1, 0, 2) in deps
        assert len(deps) == 2

    def test_first_forward_has_no_deps(self):
        pr = PipelineProblem(num_stages=4, num_microbatches=2, num_slices=2)
        assert pr.deps(OpId(OpKind.F, 0, 0, 0)) == []
        assert pr.deps(OpId(OpKind.F, 1, 0, 0)) == []

    def test_backward_deps_section41(self):
        """B(mb,sl,c) needs F(mb,sl,c), B(mb,sl,c+1), B(mb,sl+1,c)."""
        pr = PipelineProblem(num_stages=4, num_microbatches=2, num_slices=2)
        deps = pr.deps(OpId(OpKind.B, 0, 0, 1))
        assert OpId(OpKind.F, 0, 0, 1) in deps
        assert OpId(OpKind.B, 0, 0, 2) in deps
        assert OpId(OpKind.B, 0, 1, 1) in deps

    def test_first_backward_needs_all_sample_forwards(self):
        """Transitively, B of the last slice/chunk needs every forward
        of its sample (Section 4.2: at least v*s forwards first)."""
        pr = PipelineProblem(num_stages=2, num_microbatches=1, num_slices=2,
                             virtual_size=2)
        first_b = OpId(OpKind.B, 0, pr.num_slices - 1, pr.num_chunks - 1)
        seen, frontier = set(), [first_b]
        while frontier:
            op = frontier.pop()
            for d in pr.deps(op):
                if d not in seen:
                    seen.add(d)
                    frontier.append(d)
        forwards = {o for o in seen if o.kind is OpKind.F}
        assert len(forwards) == pr.num_slices * pr.num_chunks

    def test_wgrad_depends_only_on_its_backward(self):
        pr = PipelineProblem(num_stages=2, num_microbatches=1, num_slices=2,
                             split_backward=True, wgrad_gemms=3)
        deps = pr.deps(OpId(OpKind.W, 0, 1, 1, gemm=2))
        assert deps == [OpId(OpKind.B, 0, 1, 1)]

    def test_cross_stage_detection(self):
        pr = PipelineProblem(num_stages=4, num_microbatches=1, num_slices=2)
        f1 = OpId(OpKind.F, 0, 0, 1)
        f2 = OpId(OpKind.F, 0, 0, 2)
        f_slice = OpId(OpKind.F, 0, 1, 2)
        assert pr.is_cross_stage(f1, f2)
        assert not pr.is_cross_stage(f2, f_slice)


class TestValidation:
    def _problem(self):
        return PipelineProblem(num_stages=2, num_microbatches=2)

    def test_valid_schedule_passes(self):
        pr = self._problem()
        programs = [
            StageProgram(0, [OpId(OpKind.F, 0, 0, 0), OpId(OpKind.F, 1, 0, 0),
                             OpId(OpKind.B, 0, 0, 0), OpId(OpKind.B, 1, 0, 0)]),
            StageProgram(1, [OpId(OpKind.F, 0, 0, 1), OpId(OpKind.B, 0, 0, 1),
                             OpId(OpKind.F, 1, 0, 1), OpId(OpKind.B, 1, 0, 1)]),
        ]
        ensure_verified(Schedule(pr, programs))

    def test_missing_op_detected(self):
        pr = self._problem()
        programs = [
            StageProgram(0, [OpId(OpKind.F, 0, 0, 0)]),
            StageProgram(1, [OpId(OpKind.F, 0, 0, 1), OpId(OpKind.B, 0, 0, 1)]),
        ]
        with pytest.raises(ScheduleError, match="mismatch"):
            ensure_verified(Schedule(pr, programs))

    def test_wrong_stage_detected(self):
        pr = self._problem()
        programs = [
            StageProgram(0, [OpId(OpKind.F, 0, 0, 1)]),
            StageProgram(1, []),
        ]
        with pytest.raises(ScheduleError, match="stage"):
            ensure_verified(Schedule(pr, programs))

    def test_deadlock_detected(self):
        pr = self._problem()
        # Stage 1 wants B(1) before F(1) of the same micro-batch.
        programs = [
            StageProgram(0, [OpId(OpKind.F, 0, 0, 0), OpId(OpKind.F, 1, 0, 0),
                             OpId(OpKind.B, 0, 0, 0), OpId(OpKind.B, 1, 0, 0)]),
            StageProgram(1, [OpId(OpKind.F, 0, 0, 1), OpId(OpKind.B, 1, 0, 1),
                             OpId(OpKind.B, 0, 0, 1), OpId(OpKind.F, 1, 0, 1)]),
        ]
        with pytest.raises(ScheduleError, match="deadlock"):
            ensure_verified(Schedule(pr, programs))

    def test_duplicate_detected(self):
        pr = PipelineProblem(num_stages=1, num_microbatches=1)
        programs = [StageProgram(0, [OpId(OpKind.F, 0, 0, 0),
                                     OpId(OpKind.F, 0, 0, 0)])]
        with pytest.raises(ScheduleError, match="duplicate"):
            ensure_verified(Schedule(pr, programs))


class TestScheduleIsAValue:
    def test_construction_freezes_the_programs_it_is_given(self):
        pr = PipelineProblem(num_stages=1, num_microbatches=1)
        ops = [OpId(OpKind.F, 0, 0, 0), OpId(OpKind.B, 0, 0, 0)]
        programs = [StageProgram(0, ops)]
        sched = Schedule(pr, programs)
        ops.reverse()
        programs.clear()
        assert sched.programs == (StageProgram(0, tuple(ops[::-1])),)
        assert sched.programs[0].ops == tuple(ops[::-1])

    @pytest.mark.parametrize("method", ["dapple", "mepipe"],
                             ids=["explicit", "greedy"])
    def test_editing_a_schedule_in_place_raises(self, method):
        sched = build_schedule(method, build_problem(method, 2, 4))
        program = sched.programs[0]
        with pytest.raises(FrozenInstanceError):
            sched.programs = sched.programs[::-1]
        with pytest.raises(FrozenInstanceError):
            program.ops = program.ops[::-1]
        with pytest.raises(AttributeError):
            program.ops.append(program.ops[0])
        assert build_schedule(method, build_problem(method, 2, 4)) is sched
        assert sched.programs[0] is program
