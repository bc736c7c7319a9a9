"""Tests for SVPP and MEPipe schedules against the paper's claims."""

import pytest

from repro.schedules import (
    ScheduleError,
    analyze,
    build_problem,
    build_schedule,
    default_first_stage_cap,
    ensure_verified,
    mepipe_problem,
    mepipe_schedule,
    min_first_stage_cap,
    svpp_problem,
    svpp_schedule,
    svpp_variants,
)
from repro.sim import UniformCost, simulate


def run_svpp(p, n, s, v=1, f=None, **cost_kwargs):
    problem = svpp_problem(p, n, s, virtual_size=v)
    schedule = svpp_schedule(problem, forwards_before_first_backward=f)
    ensure_verified(schedule)
    return simulate(schedule, UniformCost(problem, **cost_kwargs))


class TestTable3Agreement:
    """Simulated SVPP vs the closed forms (n >= p regime, exact for v=1)."""

    @pytest.mark.parametrize(
        "p,n,s,v",
        [(4, 8, 2, 1), (4, 8, 4, 1), (4, 8, 8, 1), (8, 8, 4, 1), (8, 16, 4, 1),
         (4, 8, 2, 2)],
    )
    def test_bubble_matches_formula(self, p, n, s, v):
        result = run_svpp(p, n, s, v)
        expected = analyze("svpp", p, n, s=s, v=v)
        assert result.bubble_ratio == pytest.approx(expected.bubble_ratio, abs=1e-9)

    @pytest.mark.parametrize(
        "p,n,s,v",
        [(4, 8, 2, 1), (4, 8, 4, 1), (8, 8, 4, 1), (4, 8, 2, 2), (8, 16, 4, 2),
         (4, 2, 2, 2), (8, 4, 4, 1), (8, 2, 8, 2)],
    )
    def test_memory_matches_formula_exactly(self, p, n, s, v):
        result = run_svpp(p, n, s, v)
        expected = analyze("svpp", p, n, s=s, v=v)
        assert result.peak_activation_units == pytest.approx(expected.memory_units)

    @pytest.mark.parametrize(
        "p,n,s,v", [(4, 2, 2, 2), (8, 4, 4, 1), (8, 2, 8, 2), (2, 4, 4, 2)]
    )
    def test_small_cluster_bubble_near_formula(self, p, n, s, v):
        """Drain-phase tails (n < p, or s > p with chunk rounds): the
        greedy stays within 0.1 of the closed form, never below it."""
        result = run_svpp(p, n, s, v)
        expected = analyze("svpp", p, n, s=s, v=v)
        assert result.bubble_ratio >= expected.bubble_ratio - 1e-9
        assert result.bubble_ratio <= expected.bubble_ratio + 0.10


class TestFigure4Anchors:
    def test_fig4a_peak_is_5_8_A(self):
        """Figure 4(a): p=4, s=2, v=1 peaks at 5/8 A on stage 0."""
        result = run_svpp(4, 4, 2, 1)
        assert result.stages[0].peak_activation_units == pytest.approx(5 / 8)

    def test_fig4b_peak_is_9_16_A(self):
        """Figure 4(b): p=4, s=2, v=2 peaks at 9/16 A."""
        result = run_svpp(4, 4, 2, 2)
        assert result.stages[0].peak_activation_units == pytest.approx(9 / 16)

    def test_memory_reduction_vs_dapple_70_80_pct(self):
        """Figure 1 headline: s=4 and s=8 cut peak activation memory by
        more than 70% and 80% vs whole-sample 1F1B."""
        pr = build_problem("dapple", 8, 8)
        dapple = simulate(build_schedule("dapple", pr), UniformCost(pr))
        s4 = run_svpp(8, 8, 4, 2)
        s8 = run_svpp(8, 8, 8, 2)
        assert 1 - s4.peak_activation_units / dapple.peak_activation_units > 0.70
        assert 1 - s8.peak_activation_units / dapple.peak_activation_units > 0.80


class TestVariants:
    def test_variant_range(self):
        problem = svpp_problem(4, 2, 2, virtual_size=2)
        fs = svpp_variants(problem)
        assert fs[0] == default_first_stage_cap(problem) == 9
        assert fs[-1] == min_first_stage_cap(problem) == 4

    def test_memory_monotone_in_f(self):
        """Figure 5: delaying forwards trades bubbles for memory."""
        problem = svpp_problem(4, 4, 2, virtual_size=2)
        mems, bubbles = [], []
        for f in svpp_variants(problem):
            r = simulate(
                svpp_schedule(problem, forwards_before_first_backward=f),
                UniformCost(problem),
            )
            mems.append(r.peak_activation_units)
            bubbles.append(r.bubble_ratio)
        assert mems == sorted(mems, reverse=True)
        assert bubbles[0] <= bubbles[-1]

    def test_minimum_variant_halves_memory(self):
        """Figure 5(c) vs 5(a): ~50% memory for ~50% more bubbles."""
        problem = svpp_problem(4, 2, 2, virtual_size=2)
        fs = svpp_variants(problem)
        top = simulate(svpp_schedule(problem, forwards_before_first_backward=fs[0]),
                       UniformCost(problem))
        bottom = simulate(svpp_schedule(problem, forwards_before_first_backward=fs[-1]),
                          UniformCost(problem))
        assert bottom.peak_activation_units == pytest.approx(
            0.5 * top.peak_activation_units, rel=0.01)
        assert bottom.bubble_ratio > top.bubble_ratio

    def test_f_below_minimum_rejected(self):
        problem = svpp_problem(4, 2, 2, virtual_size=2)
        with pytest.raises(ScheduleError):
            svpp_schedule(problem, forwards_before_first_backward=3)

    def test_f_above_maximum_rejected(self):
        problem = svpp_problem(4, 2, 2, virtual_size=2)
        with pytest.raises(ScheduleError):
            svpp_schedule(problem, forwards_before_first_backward=10)

    def test_all_variants_deadlock_free(self):
        for v in (1, 2):
            problem = svpp_problem(4, 3, 2, virtual_size=v)
            for f in svpp_variants(problem):
                schedule = svpp_schedule(problem, forwards_before_first_backward=f)
                ensure_verified(schedule)


class TestBackwardRescheduling:
    def test_children_priority_beats_fifo_with_virtual_chunks(self):
        """Section 4.3's rescheduling pays off when v > 1."""
        problem = svpp_problem(4, 8, 2, virtual_size=2)
        opt = simulate(svpp_schedule(problem, optimize_backward_order=True),
                       UniformCost(problem))
        fifo = simulate(svpp_schedule(problem, optimize_backward_order=False),
                        UniformCost(problem))
        assert opt.makespan <= fifo.makespan
        assert opt.bubble_ratio < fifo.bubble_ratio

    def test_same_memory_either_way(self):
        problem = svpp_problem(4, 8, 2, virtual_size=2)
        opt = simulate(svpp_schedule(problem, optimize_backward_order=True),
                       UniformCost(problem))
        fifo = simulate(svpp_schedule(problem, optimize_backward_order=False),
                        UniformCost(problem))
        assert opt.peak_activation_units == pytest.approx(fifo.peak_activation_units)


class TestMEPipe:
    def _cost(self, problem):
        # Figure 7 setup: slice 0 forward is 75% of slice 1; weight
        # gradients are balanced (no attention-score term).
        return UniformCost(problem, tf=1.0, tb=1.0, tw=0.8,
                           imbalance=(0.75, 1.0))

    def test_schedules_validate(self):
        problem = mepipe_problem(4, 4, 2, wgrad_gemms=4)
        for fg in (True, False):
            ensure_verified(
                mepipe_schedule(problem, fine_grained_wgrad=fg))

    def test_fine_grained_beats_immediate(self):
        """Section 7.5: dynamic W scheduling fills imbalance bubbles."""
        problem = mepipe_problem(4, 8, 2, wgrad_gemms=4)
        cost = self._cost(problem)
        fine = simulate(mepipe_schedule(problem, cost=cost), cost)
        imm = simulate(
            mepipe_schedule(problem, cost=cost, fine_grained_wgrad=False), cost)
        assert fine.makespan < imm.makespan

    def test_all_wgrads_executed(self):
        problem = mepipe_problem(2, 2, 2, wgrad_gemms=3)
        schedule = mepipe_schedule(problem)
        from repro.schedules import OpKind
        w = [op for s in range(2) for op in schedule.programs[s].ops
             if op.kind is OpKind.W]
        assert len(w) == 2 * 2 * 2 * 3

    def test_requires_split_backward(self):
        with pytest.raises(ScheduleError):
            mepipe_schedule(svpp_problem(2, 2, 2))

    def test_later_stages_defer_more_wgrad(self):
        """Section 5: subsequent stages postpone W into the tail."""
        from repro.schedules import OpKind
        problem = mepipe_problem(4, 4, 2, wgrad_gemms=2)
        cost = self._cost(problem)
        result = simulate(mepipe_schedule(problem, cost=cost), cost)

        def mean_w_backlog(stage):
            backlog, total, count = 0, 0, 0
            for record in result.stage_records(stage):
                if record.op.kind is OpKind.B:
                    backlog += 1
                elif record.op.kind is OpKind.W:
                    backlog -= 1 / problem.wgrad_gemms
                total += backlog
                count += 1
            return total / count

        assert mean_w_backlog(3) > mean_w_backlog(0)
