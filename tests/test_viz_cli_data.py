"""Tests for visualization, CLI, and synthetic data."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import token_batches
from repro.schedules import build_problem, build_schedule
from repro.sim import UniformCost, simulate
from repro.viz import render_program, render_timeline


class TestTimeline:
    def _result(self):
        problem = build_problem("dapple", 2, 2)
        return simulate(build_schedule("dapple", problem), UniformCost(problem))

    def test_one_row_per_stage_plus_summary(self):
        art = render_timeline(self._result(), width=40)
        lines = art.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("stage 0:")
        assert "bubble" in lines[-1]

    def test_width_respected(self):
        art = render_timeline(self._result(), width=64)
        row = art.splitlines()[0]
        assert len(row) == len("stage 0: ") + 64

    def test_idle_renders_dots(self):
        art = render_timeline(self._result(), width=60)
        assert "." in art.splitlines()[1]  # stage 1 starts late

    def test_wgrad_glyph(self):
        problem = build_problem("zb", 2, 2)
        result = simulate(build_schedule("zb", problem),
                          UniformCost(problem, tw=1.0))
        assert "w" in render_timeline(result, width=60)

    def test_render_program_lists_ops(self):
        text = render_program(self._result(), 0, limit=3)
        assert text.startswith("F0.0c0@")


class TestCLI:
    def test_experiment_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table9" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_schedule_command(self, capsys):
        code = main(["schedule", "svpp", "--stages", "2",
                     "--microbatches", "2", "--slices", "2", "--width", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stage 0:" in out and "bubble" in out

    def test_schedule_with_f_variant(self, capsys):
        code = main(["schedule", "svpp", "--stages", "2", "--microbatches",
                     "2", "--slices", "2", "--forwards", "2"])
        assert code == 0

    def test_fast_experiment_runs(self, capsys):
        assert main(["experiment", "abl-variants"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        # The worker pool has one mode; its selector flag is gone.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["plan", "7b", "32", "--pool", "persistent"])
        assert excinfo.value.code == 2


class TestSyntheticData:
    def test_shapes(self):
        tokens, targets = token_batches(100, 3, 2, 16)
        assert tokens.shape == targets.shape == (3, 2, 16)

    def test_targets_are_next_tokens(self):
        tokens, targets = token_batches(50, 2, 2, 8, seed=1)
        assert np.array_equal(tokens[:, :, 1:], targets[:, :, :-1])

    def test_deterministic_by_seed(self):
        a, _unused = token_batches(50, 1, 1, 8, seed=7)
        b, _unused2 = token_batches(50, 1, 1, 8, seed=7)
        c, _unused3 = token_batches(50, 1, 1, 8, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_vocab_bounds(self):
        tokens, targets = token_batches(17, 2, 2, 32)
        assert tokens.min() >= 0 and tokens.max() < 17
        assert targets.min() >= 0 and targets.max() < 17

    def test_zipfian_head_heavy(self):
        tokens, _unused = token_batches(1000, 4, 4, 256, seed=0)
        head = np.mean(tokens < 10)
        assert head > 0.3  # the first 10 ranks dominate
