"""Tests for the Section 6 profiler."""

import pytest

from repro.model import tiny_spec
from repro.profiler import Profiler
from repro.schedules import (
    OpId,
    OpKind,
    PipelineProblem,
    ensure_verified,
    mepipe_schedule,
    svpp_schedule,
)
from repro.sim.executor import simulate

# Long-enough slices that attention imbalance dominates timer noise.
SPEC = tiny_spec(hidden_size=32, num_layers=6, num_heads=4,
                 ffn_hidden_size=64, vocab_size=31, seq_length=512)


@pytest.fixture(scope="module")
def profiled():
    problem = PipelineProblem(num_stages=4, num_microbatches=4, num_slices=4,
                              split_backward=True, wgrad_gemms=2)
    cost = Profiler(spec=SPEC, problem=problem, batch_size=1,
                    warmup=1, repeats=3).profile()
    return problem, cost


class TestProfiler:
    def test_every_op_class_measured(self, profiled):
        problem, cost = profiled
        for kind in (OpKind.F, OpKind.B, OpKind.W):
            for sl in range(problem.num_slices):
                for c in range(problem.num_chunks):
                    assert cost.duration(OpId(kind, 0, sl, c)) > 0.0

    def test_measured_imbalance_matches_causality(self, profiled):
        """Later slices attend to more keys and must measure slower."""
        problem, cost = profiled
        chunk = 1  # a pure transformer chunk
        first = cost.duration(OpId(OpKind.F, 0, 0, chunk))
        last = cost.duration(OpId(OpKind.F, 0, problem.num_slices - 1, chunk))
        assert last > first

    def test_wgrad_split_into_fragments(self, profiled):
        problem, cost = profiled
        whole = cost.measurements[(OpKind.W, 1, 1)].mean_seconds
        fragment = cost.duration(OpId(OpKind.W, 0, 1, 1, gemm=0))
        assert fragment == pytest.approx(whole / problem.wgrad_gemms)

    def test_repeats_accumulate_samples(self, profiled):
        _problem, cost = profiled
        assert cost.measurements[(OpKind.F, 0, 0)].samples == 3

    def test_unknown_op_raises(self, profiled):
        problem, cost = profiled
        with pytest.raises(KeyError):
            cost.duration(OpId(OpKind.F, 0, 0, 99))



class TestProfileAndSchedule:
    """Section 6's flow: profile, then schedule with the measured times."""

    @staticmethod
    def _profiled(problem):
        return Profiler(spec=SPEC, problem=problem, batch_size=1).profile()

    def test_end_to_end_mepipe(self):
        problem = PipelineProblem(num_stages=2, num_microbatches=3,
                                  num_slices=2, split_backward=True,
                                  wgrad_gemms=2)
        cost = self._profiled(problem)
        schedule = mepipe_schedule(problem, cost=cost)
        ensure_verified(schedule)
        result = simulate(schedule, cost)
        assert result.makespan > 0
        assert 0.0 <= result.bubble_ratio < 1.0

    def test_end_to_end_svpp(self):
        problem = PipelineProblem(num_stages=2, num_microbatches=2,
                                  num_slices=2)
        schedule = svpp_schedule(problem, cost=self._profiled(problem))
        ensure_verified(schedule)
        assert schedule.name.startswith("svpp")
