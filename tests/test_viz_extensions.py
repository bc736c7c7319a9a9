"""Tests for memory profiles and Chrome-trace export."""

import json

import pytest

from repro.obs.chrome import sim_chrome_trace, write_sim_trace
from repro.schedules import build_problem, build_schedule
from repro.sim import UniformCost, simulate
from repro.viz import activation_series, render_memory_profile
from tests.test_verify import golden_grid


@pytest.fixture(scope="module")
def svpp_result():
    problem = build_problem("svpp", 4, 4, num_slices=2)
    return simulate(build_schedule("svpp", problem), UniformCost(problem))


@pytest.fixture(scope="module")
def mepipe_result():
    problem = build_problem("mepipe", 2, 2, num_slices=2, wgrad_gemms=2)
    return simulate(build_schedule("mepipe", problem),
                    UniformCost(problem, tw=1.0))


class TestActivationSeries:
    def test_starts_and_ends_at_zero(self, svpp_result):
        series = activation_series(svpp_result, 0)
        assert series[0][1] == 0.0
        assert series[-1][1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "method,p,n,s,v,g", list(golden_grid()), ids=lambda val: str(val)
    )
    def test_peak_matches_executor_ledger(self, method, p, n, s, v, g):
        # The series is the executor's ledger replayed in record order,
        # so every stage's peak is the simulator's, bit for bit.
        problem = build_problem(
            method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=g
        )
        schedule = build_schedule(method, problem)
        for tw in (0.0, 0.5):
            result = simulate(schedule, UniformCost(problem, tw=tw))
            for stage in result.stages:
                series = activation_series(result, stage.stage)
                peak = max(units for _t, units in series)
                assert peak == stage.peak_activation_units, (tw, stage.stage)

    def test_split_backward_series_balances(self, mepipe_result):
        series = activation_series(mepipe_result, 1)
        assert series[-1][1] == pytest.approx(0.0, abs=1e-12)

    def test_times_monotone(self, svpp_result):
        times = [t for t, _v in activation_series(svpp_result, 2)]
        assert times == sorted(times)


class TestMemoryProfile:
    def test_renders_peak_label(self, svpp_result):
        art = render_memory_profile(svpp_result, 0, width=50, height=6)
        assert "peak 0.6250 A" in art  # Figure 4(a)'s 5/8 A

    def test_row_count(self, svpp_result):
        art = render_memory_profile(svpp_result, 0, width=40, height=5)
        assert len(art.splitlines()) == 7  # height + axis + caption


class TestChromeTrace:
    def test_event_count(self, svpp_result):
        trace = sim_chrome_trace(svpp_result)
        ops = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(ops) == svpp_result.problem.num_stages * 0 + sum(
            1 for _ in svpp_result.records)

    def test_metadata(self, svpp_result):
        trace = sim_chrome_trace(svpp_result)
        assert trace["otherData"]["schedule"] == "svpp"
        assert 0 < trace["otherData"]["bubble_ratio"] < 1

    def test_kinds_categorized(self, mepipe_result):
        trace = sim_chrome_trace(mepipe_result)
        cats = {e["cat"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert cats == {"F", "B", "W"}

    def test_write_roundtrip(self, svpp_result, tmp_path):
        path = write_sim_trace(svpp_result, tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert len(data["traceEvents"]) > 0

    def test_durations_positive(self, svpp_result):
        trace = sim_chrome_trace(svpp_result)
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] > 0


class TestCLIIntegration:
    def test_schedule_memory_and_trace(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "t.json"
        code = main(["schedule", "svpp", "--stages", "2", "--microbatches",
                     "2", "--slices", "2", "--memory",
                     "--trace", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "peak" in out and "chrome trace written" in out
        assert out_file.exists()
