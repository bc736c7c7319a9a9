"""The paper's claims, regenerated: every headline artifact must keep
its shape.

Each test regenerates one table or figure through ``repro.experiments``
and asserts what the paper reads off it — who wins, by roughly what
factor, which configuration the grid search lands on, what fits in
24 GB.  The heavy artifacts (Figure 8, Figure 10, Table 9) are each
regenerated once per run, through one module-scoped sweep cache in a
temporary directory, so the (13B, GBS 128) cell they share is evaluated
once and nothing is written under ``artifacts/cache``.

How *fast* these artifacts regenerate is the benchmark's business
(``BENCHMARK.json``, ``bench/README.md``), not this module's.
"""

import pytest

from repro.experiments import (
    ablations,
    common,
    e0,
    fig1,
    fig8,
    fig9,
    fig10,
    fig1112,
    partitioning,
    section9,
    table9,
    tables23,
    tables67,
)
from repro.hardware import A100_CLUSTER, RTX4090_CLUSTER
from repro.model import LLAMA_13B
from repro.parallel.strategies import ParallelConfig
from repro.planner.evaluate import config_bounds, evaluate_config
from repro.planner.parallel import SweepCache


@pytest.fixture(scope="module")
def sweep_cache(tmp_path_factory):
    """The experiments' process-wide sweep cache, pointed at a temporary
    directory for this module and restored afterwards."""
    cache = SweepCache(tmp_path_factory.mktemp("sweep-cache"))
    cache.enabled = True  # whatever REPRO_SWEEP_CACHE says
    previous = common.SETTINGS.cache
    common.SETTINGS.cache = cache
    yield cache
    common.SETTINGS.cache = previous


@pytest.fixture(scope="module")
def fig8_report(sweep_cache):
    return fig8.run()


@pytest.fixture(scope="module")
def fig10_report(sweep_cache):
    return fig10.run()


def iteration_ms(cell):
    return None if cell == "OOM" else float(cell.split()[0])


# ----------------------------------------------------------------------
# Figure 8 / Table 5: Llama 13B across global batch sizes
# ----------------------------------------------------------------------
class TestFigure8:
    def speedups(self, report):
        times = {
            (int(row[0]), row[1]): iteration_ms(row[3]) for row in report.rows
        }
        out = {}
        for gbs in fig8.BATCH_SIZES:
            mepipe = times[(gbs, "mepipe")]
            assert mepipe is not None
            best_baseline = min(
                t for (g, m), t in times.items()
                if g == gbs and m != "mepipe" and t is not None
            )
            out[gbs] = best_baseline / mepipe
        return out

    def test_mepipe_wins_by_a_factor_in_the_papers_range(self, fig8_report):
        # Paper: 1.86x / 1.49x / 1.36x at GBS 32 / 64 / 128.
        for gbs, speedup in self.speedups(fig8_report).items():
            assert 1.15 < speedup < 2.2, (gbs, speedup)

    def test_gain_grows_as_the_batch_shrinks(self, fig8_report):
        speedups = self.speedups(fig8_report)
        assert speedups[32] > speedups[128]

    def test_grid_search_rediscovers_table5(self, fig8_report, sweep_cache):
        """The GBS-128 optimum per method is Table 5's tuple — and asking
        again replays the column from the sweep cache (what lets
        Figure 8, Figure 10 and Table 9 share the (13B, 128) cell)."""
        hits = sweep_cache.hits
        cells = fig8.compute(batch_sizes=[128])
        assert sweep_cache.hits > hits
        best = {c.method: c.result.best.config for c in cells}
        dapple, zb, mepipe = best["dapple"], best["zb"], best["mepipe"]
        assert (dapple.pp, dapple.cp, dapple.vp, dapple.recompute) == (
            8, 2, 1, False,
        )
        assert (zb.pp, zb.cp) == (8, 4)
        assert (mepipe.pp, mepipe.spp, mepipe.recompute) == (8, 4, False)
        column = {
            row[1]: row[2] for row in fig8_report.rows if row[0] == "128"
        }
        assert column == {
            c.method: fig8.config_tuple(c.method, c.result.best.config)
            for c in cells
        }

    def test_first_pass_prunes_a_dominated_config_soundly(self, sweep_cache):
        """The GBS-128 MEPipe sweep discards (dp=16, pp=4, spp=8) on
        build-free bounds alone; the bounds do contain what the full
        build + verify + replay of that config measures."""
        pruned = ParallelConfig(dp=16, pp=4, spp=8)
        sweep = common.search("mepipe", LLAMA_13B, RTX4090_CLUSTER, 128)
        assert any(
            s.config == pruned and s.reason.startswith("analytic:")
            for s in sweep.skipped
        )
        bounds = config_bounds("mepipe", LLAMA_13B, RTX4090_CLUSTER, pruned, 128)
        row = evaluate_config(
            "mepipe", LLAMA_13B, RTX4090_CLUSTER, pruned, 128, tier="sim"
        )
        assert bounds is not None
        assert bounds.lower_time_s <= row.iteration_time_s <= bounds.upper_time_s


# ----------------------------------------------------------------------
# Figure 10 / Table 8: model-size sweep at GBS 128
# ----------------------------------------------------------------------
class TestFigure10:
    def test_34b_only_dapple_with_recompute_and_mepipe_survive(
        self, fig10_report
    ):
        rows = {(r[0], r[1]): r for r in fig10_report.rows}
        # VPP, ZB and ZBV exceed 24 GB of statics at their maximum
        # pipeline depth (Section 7.4 / Table 8).
        for method in ("vpp", "zb", "zbv"):
            assert rows[("llama-34b", method)][3] == "OOM"
        dapple = rows[("llama-34b", "dapple")]
        assert dapple[2].startswith("(16") and "yes" in dapple[2]
        mepipe = rows[("llama-34b", "mepipe")]
        assert mepipe[2] == "(16, 16, 1, no)"  # the s=16 variant
        assert iteration_ms(mepipe[3]) < iteration_ms(dapple[3])

    def test_mepipe_wins_at_every_model_size(self, fig10_report):
        rows = {(r[0], r[1]): r for r in fig10_report.rows}
        for model in ("llama-7b", "llama-13b", "llama-34b"):
            mepipe = iteration_ms(rows[(model, "mepipe")][3])
            for method in ("dapple", "vpp", "zb", "zbv"):
                baseline = iteration_ms(rows[(model, method)][3])
                assert baseline is None or mepipe < baseline, (model, method)


# ----------------------------------------------------------------------
# Table 9: A100 vs RTX 4090
# ----------------------------------------------------------------------
class TestTable9:
    def test_13b_cost_effectiveness(self, sweep_cache):
        a100 = table9.best_on_a100(LLAMA_13B)
        rtx = table9.best_on_4090(LLAMA_13B)
        assert a100 is not None and rtx is not None
        # Comparable iteration times (paper: 6131 vs 5852 ms): the same
        # global batch finishes within 25% on either cluster.
        ratio = a100.iteration_time_s / rtx.iteration_time_s
        assert 0.75 < ratio < 1.25
        # MFU anchor: ~35% on the 4090 cluster (Table 9 / abstract).
        assert 0.28 < rtx.mfu < 0.40
        # A single 4090 delivers about half an A100 (Section 7.6).
        assert 0.4 < rtx.tflops_per_gpu / a100.tflops_per_gpu < 0.6
        # Cost-effectiveness ~2.5x (paper).
        cost_effectiveness = ratio * (
            A100_CLUSTER.total_price_usd / RTX4090_CLUSTER.total_price_usd
        )
        assert 1.9 < cost_effectiveness < 3.1

    def test_report_has_both_clusters_and_the_cost_note(self, sweep_cache):
        report = table9.run([LLAMA_13B])
        assert len(report.rows) == 2
        assert any("cost" in note for note in report.notes)


# ----------------------------------------------------------------------
# Tables 2, 3, 6, 7
# ----------------------------------------------------------------------
class TestTables:
    def test_table2_wire_bytes_rank_tp_over_cp_over_pp(self):
        comm = tables23.run_table2().column("comm (MiB/layer/microbatch)")
        tp, cp, pp = float(comm[0]), float(comm[1]), float(comm[3])
        assert tp > cp > pp

    def test_table3_closed_forms_track_the_simulator(self):
        for row in tables23.run_table3().rows:
            assert abs(float(row[3]) - float(row[4])) < 1e-3  # memory
            # Hanayo's wave schedule is a greedy approximation
            # (DESIGN.md "Known deviations"); the others track the
            # closed form tightly.
            tolerance = 0.10 if row[0].startswith("hanayo") else 0.05
            assert abs(float(row[1]) - float(row[2])) < tolerance, row

    def test_table6_deeper_pipeline_wins_once_it_fits(self):
        cells = tables67.run_table6().column("iteration")
        assert cells[0] == "OOM"  # PP=2 does not fit 24 GB
        # PP=8 beats PP=4 despite the larger bubble.
        assert iteration_ms(cells[2]) < iteration_ms(cells[1])

    def test_table7_cp2_is_the_sweet_spot(self):
        times = [
            iteration_ms(c) for c in tables67.run_table7().column("iteration")
        ]
        # CP=1 pays bubbles, CP=4 pays communication.
        assert times[1] < times[0] and times[1] < times[2]


# ----------------------------------------------------------------------
# Figures 1, 9, 11-12 and the ablations
# ----------------------------------------------------------------------
class TestFigures:
    def test_fig1_svpp_dominates_the_memory_bubble_plane(self):
        points = {p.label: p for p in fig1.compute_points()}
        dapple, s4, s8 = points["DAPPLE"], points["SVPP s=4"], points["SVPP s=8"]
        # Section 1: >70% / >80% activation-memory reduction.
        assert 1 - s4.activation_gb / dapple.activation_gb > 0.70
        assert 1 - s8.activation_gb / dapple.activation_gb > 0.80
        for label, p in points.items():
            assert s8.activation_gb <= p.activation_gb + 1e-9
            if not label.startswith("SVPP"):
                assert s4.bubble_ratio < p.bubble_ratio
                assert s8.bubble_ratio < p.bubble_ratio

    def test_fig9_spp8_costs_about_an_eighth_and_both_degrade(self):
        perf = {(p.kind, p.size): p.relative_throughput for p in fig9.compute()}
        assert 0.85 < perf[("spp", 8)] < 0.92  # ~12.6% (Section 7.3)
        for kind in ("cp", "spp"):
            series = [perf[(kind, size)] for size in (1, 2, 4, 8)]
            assert series == sorted(series, reverse=True)

    def test_fig1112_long_context_gain_fills_bubbles_not_skips_work(self):
        ablation = fig1112.compute_long_context()
        assert ablation.improvement > 0.04
        assert len(ablation.with_fine_grained.records) == len(
            ablation.without_fine_grained.records
        )

    def test_fig1112_renders_both_timelines(self):
        art = fig1112.render_timelines()
        assert "Figure 11" in art and "Figure 12" in art

    def test_rescheduling_costs_no_memory(self):
        report = ablations.run_reschedule()
        assert report.cell(0, "peak act (A)") == report.cell(1, "peak act (A)")

    def test_variant_sweep_trades_memory_for_bubbles(self):
        rows = ablations.run_variant_sweep().rows
        mems = [float(r[2]) for r in rows]
        bubbles = [float(r[1]) for r in rows]
        # Endpoints: halving f halves the memory (Figure 5(a) vs 5(c)).
        assert abs(mems[-1] / mems[0] - 0.5) < 0.1
        assert bubbles[-1] > bubbles[0]


# ----------------------------------------------------------------------
# Sections 5 and 9, and E0 at its full shape
# ----------------------------------------------------------------------
class TestExtensions:
    def test_balanced_partitioning_pays_only_at_long_context(self):
        gains = [
            float(c.rstrip("%"))
            for c in partitioning.run().column("balanced gain")
        ]
        assert gains[0] < 1.0 and gains[-1] > 10.0
        assert gains == sorted(gains)

    def test_tco_parity_shrinks_as_power_gets_dearer(self):
        parity = [
            float(c.split()[0]) for c in section9.run_tco().column("parity")
        ]
        assert 20 < parity[1] < 30  # ~24 years at $0.1/kWh
        assert parity == sorted(parity, reverse=True)

    def test_e0_pipelined_gradients_equal_sequential(self):
        statuses = e0.run().column("status")
        assert statuses and all(s == "PASS" for s in statuses)
