"""Tests of the Table 3 closed forms and Figure 1 relationships."""

import pytest

from repro.schedules import (
    analyze,
    dapple_analysis,
    hanayo_analysis,
    svpp_analysis,
    terapipe_analysis,
    vpp_analysis,
)


class TestClosedForms:
    def test_dapple_values(self):
        a = dapple_analysis(8, 8)
        assert a.bubble_ratio == pytest.approx(7 / 15)
        assert a.memory_units == 1.0

    def test_dapple_large_cluster_memory(self):
        assert dapple_analysis(8, 4).memory_units == pytest.approx(0.5)

    def test_vpp_rejects_small_n(self):
        with pytest.raises(ValueError):
            vpp_analysis(8, 4, 2)

    def test_terapipe_memory_flat_in_s(self):
        assert terapipe_analysis(8, 8, 2).memory_units == \
            terapipe_analysis(8, 8, 16).memory_units

    def test_svpp_limit(self):
        """The s -> infinity limit: zero bubble, A/p memory."""
        limit = svpp_analysis(8, 8, 4096)
        assert limit.bubble_ratio == pytest.approx(0.0, abs=1e-3)
        assert limit.memory_units == pytest.approx(1 / 8, rel=1e-2)

    def test_svpp_approaches_limit(self):
        """As s grows, SVPP's memory tends to A/p and bubble to 0."""
        p, n = 8, 8
        prev = svpp_analysis(p, n, 2)
        for s in (4, 8, 16, 32, 64):
            cur = svpp_analysis(p, n, s)
            assert cur.bubble_ratio < prev.bubble_ratio
            assert cur.memory_units <= prev.memory_units
            prev = cur
        assert prev.memory_units == pytest.approx(1 / p, rel=0.3)

    def test_analyze_dispatch(self):
        assert analyze("mepipe", 8, 8, s=4).method == "svpp"
        with pytest.raises(KeyError):
            analyze("chimera", 8, 8)


class TestFigure1Relationships:
    """Figure 1: SVPP dominates the bubble/memory plane at p=8, v=2, n=8."""

    P, N, V = 8, 8, 2

    def test_svpp_lowest_memory(self):
        svpp4 = svpp_analysis(self.P, self.N, 4, self.V)
        svpp8 = svpp_analysis(self.P, self.N, 8, self.V)
        others = [
            dapple_analysis(self.P, self.N),
            vpp_analysis(self.P, self.N, self.V),
            hanayo_analysis(self.P, self.N, self.V),
            terapipe_analysis(self.P, self.N, 4),
        ]
        for other in others:
            assert svpp4.memory_units < other.memory_units
            assert svpp8.memory_units < svpp4.memory_units

    def test_svpp_lowest_bubble(self):
        svpp8 = svpp_analysis(self.P, self.N, 8, self.V)
        others = [
            dapple_analysis(self.P, self.N),
            vpp_analysis(self.P, self.N, self.V),
            hanayo_analysis(self.P, self.N, self.V),
            terapipe_analysis(self.P, self.N, 4),
        ]
        for other in others:
            assert svpp8.bubble_ratio < other.bubble_ratio

    def test_memory_reduction_thresholds(self):
        """Section 1: >70% reduction at s=4, >80% at s=8 (vs DAPPLE)."""
        base = dapple_analysis(self.P, self.N).memory_units
        s4 = svpp_analysis(self.P, self.N, 4, self.V).memory_units
        s8 = svpp_analysis(self.P, self.N, 8, self.V).memory_units
        assert 1 - s4 / base > 0.70
        assert 1 - s8 / base > 0.80

    def test_n_lt_p_svpp_still_best_bubble(self):
        p, n = 16, 4
        svpp = svpp_analysis(p, n, 8, 2)
        assert svpp.bubble_ratio < dapple_analysis(p, n).bubble_ratio
        assert svpp.bubble_ratio < terapipe_analysis(p, n, 8).bubble_ratio
        assert svpp.memory_units <= dapple_analysis(p, n).memory_units
        # At v=1 SVPP's bubble coincides with TeraPipe's; virtual chunks
        # are what push it below (Table 3, large-cluster column).
        assert svpp_analysis(p, n, 8, 1).bubble_ratio == pytest.approx(
            terapipe_analysis(p, n, 8).bubble_ratio)
