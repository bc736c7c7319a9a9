"""Tests for the experiment modules (fast artifacts only; the heavy
grid searches and the paper's claims about every artifact are in
``tests/test_paper_claims.py``)."""

import pytest

from repro.experiments import REGISTRY, ablations, e0, fig1, fig9, fig1112, tables23
from repro.experiments.common import ExperimentReport


class TestReportPlumbing:
    def test_render_contains_header_and_rows(self):
        report = ExperimentReport("x", "demo", ["a", "b"])
        report.add_row(1, 2.5)
        report.add_note("hello")
        text = report.render()
        assert "demo" in text and "2.5" in text and "note: hello" in text

    def test_cell_and_column_lookup(self):
        report = ExperimentReport("x", "demo", ["a", "b"])
        report.add_row("p", "q")
        report.add_row("r", "s")
        assert report.cell(1, "b") == "s"
        assert report.column("a") == ["p", "r"]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"e0", "fig1", "table2", "table3", "fig8", "table6",
                    "table7", "fig9", "fig10", "fig11-12", "table9"}
        assert expected <= set(REGISTRY)

    def test_registry_entries_callable(self):
        for fn in REGISTRY.values():
            assert callable(fn)


class TestFig1:
    def test_points_cover_all_series(self):
        points = fig1.compute_points()
        assert len(points) == len(fig1.SERIES)

    def test_svpp_memory_dominates(self):
        points = {p.label: p for p in fig1.compute_points()}
        assert points["SVPP s=8"].activation_gb < points["SVPP s=4"].activation_gb
        assert points["SVPP s=4"].activation_gb < points["DAPPLE"].activation_gb

    def test_report_notes_thresholds(self):
        report = fig1.run()
        assert any(">70" in n for n in report.notes)
        assert any(">80" in n for n in report.notes)


class TestFig9:
    def test_spp_dominates_cp(self):
        perf = {(p.kind, p.size): p for p in fig9.compute()}
        for size in (2, 4, 8):
            assert (perf[("spp", size)].relative_throughput
                    > perf[("cp", size)].relative_throughput)

    def test_size_one_is_baseline(self):
        perf = {(p.kind, p.size): p for p in fig9.compute()}
        assert perf[("cp", 1)].relative_throughput == pytest.approx(1.0)
        assert perf[("spp", 1)].relative_throughput == pytest.approx(1.0)


class TestTables23:
    def test_table2_renders(self):
        report = tables23.run_table2()
        assert len(report.rows) == 5

    def test_table3_small_shape(self):
        report = tables23.run_table3(p=4, n=4)
        assert len(report.rows) == len(tables23.TABLE3_ROWS)
        for row in report.rows:
            assert abs(float(row[3]) - float(row[4])) < 1e-3


class TestE0:
    def test_all_methods_pass(self):
        report = e0.run(num_stages=2, num_microbatches=2)
        assert all(s == "PASS" for s in report.column("status"))


class TestFineGrained:
    def test_ablation_same_total_work(self):
        ablation = fig1112.compute(wgrad_gemms=2)
        with_busy = sum(s.busy_time for s in ablation.with_fine_grained.stages)
        without_busy = sum(
            s.busy_time for s in ablation.without_fine_grained.stages)
        assert with_busy == pytest.approx(without_busy, rel=1e-6)

    def test_no_regression_at_4k(self):
        ablation = fig1112.compute(wgrad_gemms=2)
        assert ablation.improvement > -0.02

    def test_long_context_gain(self):
        ablation = fig1112.compute_long_context()
        assert ablation.improvement > 0.03


class TestAblations:
    def test_reschedule_report(self):
        report = ablations.run_reschedule()
        assert float(report.cell(0, "bubble")) <= float(report.cell(1, "bubble"))

    def test_variant_sweep_monotone_memory(self):
        report = ablations.run_variant_sweep()
        mems = [float(r[2]) for r in report.rows]
        assert mems == sorted(mems, reverse=True)
