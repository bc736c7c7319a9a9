"""Functional correctness of pipelined execution (artifact experiment E0).

Every scheduling method must produce the same loss and bit-comparable
gradients as sequential execution, and the live-context statistics must
reflect each method's memory behaviour.
"""

import numpy as np
import pytest

from repro.data import token_batches
from repro.model import tiny_spec
from repro.nn import build_model, sequential_step
from repro.pipeline import PipelineRuntime
from repro.schedules import ScheduleError, build_problem, build_schedule

SPEC = tiny_spec(hidden_size=32, num_layers=6, num_heads=4,
                 ffn_hidden_size=64, vocab_size=31, seq_length=16)
# 6 layers + embedding + head = 8 schedulable components.
N, B = 4, 2


@pytest.fixture(scope="module")
def reference():
    tokens, targets = token_batches(SPEC.vocab_size, N, B, SPEC.seq_length, seed=5)
    model = build_model(SPEC, seed=11)
    loss = sequential_step(model, tokens, targets)
    grads = {k: v.copy() for k, v in model.named_grads().items()}
    return tokens, targets, loss, grads


def run_method(method, tokens, targets, p=4, **kwargs):
    problem = build_problem(method, p, N, **kwargs)
    schedule = build_schedule(method, problem)
    model = build_model(SPEC, seed=11)
    runtime = PipelineRuntime(model, tokens, targets)
    result = runtime.run(schedule)
    return model, result


ALL_METHODS = [
    ("dapple", {}),
    ("gpipe", {}),
    ("terapipe", {"num_slices": 4}),
    ("vpp", {"virtual_size": 2}),
    ("hanayo", {"virtual_size": 2}),
    ("zb", {}),
    ("zbv", {}),
    ("svpp", {"num_slices": 2}),
    ("svpp", {"num_slices": 4, "virtual_size": 2}),
    ("mepipe", {"num_slices": 4, "wgrad_gemms": 3}),
    ("mepipe", {"num_slices": 2, "virtual_size": 2, "wgrad_gemms": 2}),
]


class TestGradientExactness:
    @pytest.mark.parametrize("method,kwargs", ALL_METHODS,
                             ids=[f"{m}-{k}" for m, k in ALL_METHODS])
    def test_loss_and_grads_match_sequential(self, reference, method, kwargs):
        tokens, targets, ref_loss, ref_grads = reference
        model, result = run_method(method, tokens, targets, **kwargs)
        assert result.loss == pytest.approx(ref_loss, abs=1e-12)
        for key, grad in model.named_grads().items():
            assert np.allclose(grad, ref_grads[key], atol=1e-12), key

    def test_every_op_executed_exactly_once(self, reference):
        tokens, targets, _unused, _unused2 = reference
        problem = build_problem("mepipe", 4, N, num_slices=2, wgrad_gemms=2)
        _model, result = run_method("mepipe", tokens, targets,
                                    num_slices=2, wgrad_gemms=2)
        assert result.ops_executed == len(problem.all_ops())


class TestMemoryBehaviour:
    def test_terapipe_pins_everything(self, reference):
        tokens, targets, _unused, _unused2 = reference
        _m, tera = run_method("terapipe", tokens, targets, num_slices=4)
        _m, svpp = run_method("svpp", tokens, targets, num_slices=4)
        # TeraPipe holds all n*s slice contexts; SVPP a small multiple
        # of p (Section 2.1 vs Section 4.1).
        assert tera.peak_live_contexts == N * 4 * 2  # n*s slices x 2 comps
        assert tera.peak_live_contexts > 2 * svpp.peak_live_contexts

    def test_svpp_first_stage_matches_f(self, reference):
        """Live contexts on stage 0 equal f = v*max(p,s)+min(p,s)-1."""
        tokens, targets, _unused, _unused2 = reference
        _m, res = run_method("svpp", tokens, targets,
                             num_slices=4, virtual_size=2)
        # 8 components over 8 chunks -> 1 component per chunk, so live
        # contexts == live F ops.
        assert res.stage_stats[0].peak_live_contexts == 11

    def test_dapple_staircase(self, reference):
        tokens, targets, _unused, _unused2 = reference
        _m, res = run_method("dapple", tokens, targets)
        peaks = [s.peak_live_contexts for s in res.stage_stats]
        assert peaks == sorted(peaks, reverse=True)

    def test_mepipe_defers_wgrads(self, reference):
        tokens, targets, _unused, _unused2 = reference
        _m, res = run_method("mepipe", tokens, targets,
                             num_slices=4, wgrad_gemms=3)
        assert all(s.wgrad_tasks_run > 0 for s in res.stage_stats)


class TestErrors:
    def test_microbatch_mismatch(self, reference):
        tokens, targets, _unused, _unused2 = reference
        problem = build_problem("dapple", 4, N + 1)
        schedule = build_schedule("dapple", problem)
        runtime = PipelineRuntime(build_model(SPEC, seed=11), tokens, targets)
        with pytest.raises(ScheduleError, match="micro-batches"):
            runtime.run(schedule)

    def test_indivisible_slices(self, reference):
        tokens, targets, _unused, _unused2 = reference
        problem = build_problem("terapipe", 4, N, num_slices=3)
        schedule = build_schedule("terapipe", problem)
        runtime = PipelineRuntime(build_model(SPEC, seed=11), tokens, targets)
        with pytest.raises(ScheduleError, match="divisible"):
            runtime.run(schedule)


class TestTrainingLoop:
    def test_pipelined_adam_training_converges(self, reference):
        from repro.nn import Adam
        tokens, targets, _unused, _unused2 = reference
        problem = build_problem("mepipe", 4, N, num_slices=2, wgrad_gemms=2)
        schedule = build_schedule("mepipe", problem)
        model = build_model(SPEC, seed=11)
        runtime = PipelineRuntime(model, tokens, targets)
        optimizer = Adam(model, lr=3e-3)
        losses = []
        for _step in range(6):
            losses.append(runtime.run(schedule).loss)
            optimizer.step()
        assert losses[-1] < losses[0]


class TestIncrementalAccounting:
    def test_incremental_live_stats_match_full_scan(self, reference,
                                                    monkeypatch):
        """The per-op delta accounting — read from the components'
        running counters — never drifts from a full re-sum of
        live_bytes()/live_contexts over every component."""
        import repro.pipeline.runtime as runtime_mod
        from repro.pipeline.stage import StageExecutor

        checked = {"ops": 0}

        class AuditingExecutor(StageExecutor):
            def execute(self, op, payload=None):
                outcome = super().execute(op, payload)
                assert (self._live_contexts, self._live_bytes) == \
                    self.full_live_scan(), f"drift after {op}"
                checked["ops"] += 1
                return outcome

        monkeypatch.setattr(runtime_mod, "StageExecutor", AuditingExecutor)
        tokens, targets, _unused, _unused2 = reference
        for method, kwargs in ALL_METHODS:
            run_method(method, tokens, targets, **kwargs)
        assert checked["ops"] > 0
