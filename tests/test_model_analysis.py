"""The model analyzer proves every E0 (method × partition) pair clean.

Covers the clean path of :mod:`repro.analysis`: shape/interface
inference, gradient coverage, and hazard freedom over the acceptance
grid, plus the runtime/planner/CLI wiring (analyzer-clean gate at
``PipelineRuntime.run`` entry with fingerprint caching, the planner's
interface rejection, and the ``check-model`` subcommand).  Seeded
defect injection lives in ``test_analysis_mutations.py``.
"""

import json

import pytest

from repro.analysis import (
    MODEL_RULES,
    ModelAnalysisError,
    analyze_partition,
    analyze_spec,
    ensure_model_verified,
    interface_report,
    partition_from_model,
    partition_from_spec,
)
from repro.model.spec import tiny_spec
from repro.nn import build_model
from repro.schedules.methods import build_problem, build_schedule

#: The E0 acceptance grid: every method in its reference configuration.
SETUPS = [
    ("dapple", {}),
    ("terapipe", {"num_slices": 4}),
    ("vpp", {"virtual_size": 2}),
    ("zb", {}),
    ("zbv", {}),
    ("svpp", {"num_slices": 4, "virtual_size": 2}),
    ("mepipe", {"num_slices": 4, "wgrad_gemms": 3}),
]

SPEC = tiny_spec(
    hidden_size=32, num_layers=6, num_heads=4, ffn_hidden_size=64,
    vocab_size=31, seq_length=16,
)


def built(method: str, kwargs: dict):
    problem = build_problem(method, 4, 4, **kwargs)
    return build_schedule(method, problem)


class TestCleanGrid:
    @pytest.mark.parametrize("method,kwargs", SETUPS)
    def test_live_model_analyzes_clean(self, method, kwargs):
        schedule = built(method, kwargs)
        model = build_model(SPEC, seed=11)
        partition = partition_from_model(model, schedule.problem.num_chunks)
        report = analyze_partition(partition, schedule)
        assert report.ok, report.render_text()
        assert not report.findings
        assert tuple(report.checked_rules) == MODEL_RULES

    @pytest.mark.parametrize("method,kwargs", SETUPS)
    def test_bare_spec_analyzes_clean(self, method, kwargs):
        report = analyze_spec(SPEC, built(method, kwargs))
        assert report.ok, report.render_text()

    @pytest.mark.parametrize("method,kwargs", SETUPS)
    def test_spec_and_model_abstractions_agree(self, method, kwargs):
        # The planner's array-free abstraction must describe exactly the
        # partition the runtime executes.
        schedule = built(method, kwargs)
        chunks = schedule.problem.num_chunks
        model = build_model(SPEC, seed=11)
        assert partition_from_spec(SPEC, chunks) == partition_from_model(
            model, chunks
        )

    def test_gqa_model_analyzes_clean(self):
        import dataclasses

        spec = dataclasses.replace(SPEC, num_kv_heads=2)
        report = analyze_spec(spec, built("mepipe", dict(SETUPS[-1][1])))
        assert report.ok, report.render_text()


class TestRuntimeGate:
    def test_clean_pair_is_cached_on_schedule(self, monkeypatch):
        schedule = built("mepipe", dict(SETUPS[-1][1]))
        model = build_model(SPEC, seed=11)
        ensure_model_verified(model, schedule)
        assert getattr(schedule, "_analyzed_partition", None) is not None

        # A second entry with the same pair must not re-analyze.
        import repro.analysis.core as core

        def boom(*_a, **_k):  # pragma: no cover - would fail the test
            raise AssertionError("re-analyzed a cached pair")

        monkeypatch.setattr(core, "analyze_partition", boom)
        ensure_model_verified(model, schedule)

    def test_different_model_invalidates_cache(self):
        schedule = built("dapple", {})
        model = build_model(SPEC, seed=11)
        ensure_model_verified(model, schedule)
        wider = tiny_spec(
            hidden_size=64, num_layers=6, num_heads=4, ffn_hidden_size=64,
            vocab_size=31, seq_length=16,
        )
        other = build_model(wider, seed=11)
        partition = schedule._analyzed_partition
        ensure_model_verified(other, schedule)
        assert schedule._analyzed_partition != partition

    def test_runtime_rejects_spliced_incompatible_layer(self):
        # A decoder layer from a wider model spliced into the pipeline
        # must be rejected statically, before any GEMM runs.
        from repro.data import token_batches
        from repro.pipeline import PipelineRuntime

        schedule = built("mepipe", dict(SETUPS[-1][1]))
        model = build_model(SPEC, seed=11)
        wider = tiny_spec(
            hidden_size=64, num_layers=6, num_heads=4, ffn_hidden_size=64,
            vocab_size=31, seq_length=16,
        )
        model.components[3] = build_model(wider, seed=11).components[3]
        tokens, targets = token_batches(SPEC.vocab_size, 4, 2,
                                        SPEC.seq_length, seed=5)
        with pytest.raises(ModelAnalysisError) as excinfo:
            PipelineRuntime(model, tokens, targets).run(schedule)
        assert "SH003" in str(excinfo.value)


class TestPlannerGate:
    def test_interface_report_clean_for_preset(self):
        from repro.model import get_model

        problem = build_problem("mepipe", 4, 8, num_slices=4, wgrad_gemms=2)
        report = interface_report(get_model("13b"), problem)
        assert report.ok, report.render_text()

    def test_uncuttable_partition_raises(self):
        shallow = tiny_spec(num_layers=2)  # 4 components
        problem = build_problem("vpp", 4, 4, virtual_size=2)  # 8 chunks
        with pytest.raises(ValueError, match="cannot cut"):
            interface_report(shallow, problem)


class TestCheckModelCLI:
    def test_grid_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["check-model", "grid"]) == 0
        out = capsys.readouterr().out
        assert out.count("clean") == len(SETUPS)

    def test_json_report(self, capsys):
        from repro.cli import main

        assert main(["check-model", "mepipe", "--slices", "4",
                     "--wgrad-gemms", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["checked_rules"] == list(MODEL_RULES)

    def test_json_shorthand_flag(self, capsys):
        from repro.cli import main

        assert main(["check-model", "dapple", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_grid_json_is_a_report_list(self, capsys):
        from repro.cli import main

        assert main(["check-model", "grid", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [d["ok"] for d in data] == [True] * len(SETUPS)

    def test_rule_subset(self, capsys):
        from repro.cli import main

        assert main(["check-model", "dapple", "--rules", "sh001,gc001"]) == 0
        assert "2 rules" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        from repro.cli import main

        assert main(["check-model", "dapple", "--rules", "XX999"]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_unknown_method_exits_two(self, capsys):
        from repro.cli import main

        assert main(["check-model", "bogus"]) == 2
        capsys.readouterr()

    def test_verify_gained_format_flag(self, capsys):
        # The shared helper must keep verify's --json contract and add
        # the long-form switch.
        from repro.cli import main

        assert main(["verify", "dapple", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
