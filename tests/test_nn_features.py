"""Tests for GQA and activation recomputation in the NumPy substrate."""

import numpy as np
import pytest

from repro.data import token_batches
from repro.model import ModelSpec, tiny_spec
from repro.nn import build_model, sequential_step

GQA_SPEC = ModelSpec(name="gqa-tiny", hidden_size=32, num_layers=3,
                     num_heads=8, num_kv_heads=2, ffn_hidden_size=64,
                     vocab_size=29, seq_length=12)
MHA_SPEC = tiny_spec(hidden_size=32, num_layers=3, num_heads=4,
                     ffn_hidden_size=64, vocab_size=29, seq_length=12)


def data(spec, n=2, b=2, seed=4):
    return token_batches(spec.vocab_size, n, b, spec.seq_length, seed=seed)


class TestGQA:
    def test_finite_difference_gradients(self):
        """GQA's grouped K/V backward (sum over query groups) is exact."""
        tokens, targets = data(GQA_SPEC)
        model = build_model(GQA_SPEC, seed=2)
        sequential_step(model, tokens, targets)
        grads = {k: v.copy() for k, v in model.named_grads().items()}
        eps = 1e-6
        rng = np.random.default_rng(0)
        for key in ("1.wk", "1.wv", "2.wq"):
            probe = build_model(GQA_SPEC, seed=2)
            p = probe.named_params()[key]
            idx = tuple(rng.integers(0, d) for d in p.shape)
            p[idx] += eps
            up = sequential_step(probe, tokens, targets)
            probe2 = build_model(GQA_SPEC, seed=2)
            probe2.named_params()[key][idx] -= eps
            down = sequential_step(probe2, tokens, targets)
            fd = (up - down) / (2 * eps)
            assert fd == pytest.approx(grads[key][idx], rel=1e-4, abs=1e-9), key

    def test_slice_invariance_with_gqa(self):
        """Slice-level execution stays exact under grouped KV heads."""
        tokens, targets = data(GQA_SPEC)
        ref = build_model(GQA_SPEC, seed=2)
        sequential_step(ref, tokens, targets, num_slices=1)
        sliced = build_model(GQA_SPEC, seed=2)
        sequential_step(sliced, tokens, targets, num_slices=4)
        for key, grad in sliced.named_grads().items():
            assert np.allclose(grad, ref.named_grads()[key], atol=1e-13), key

    def test_gqa_pipeline_execution(self):
        """GQA model through the full pipeline runtime (34B's geometry)."""
        from repro.pipeline import PipelineRuntime
        from repro.schedules import build_problem, build_schedule

        tokens, targets = data(GQA_SPEC, n=2)
        ref = build_model(GQA_SPEC, seed=5)
        ref_loss = sequential_step(ref, tokens, targets)
        problem = build_problem("svpp", 2, 2, num_slices=2)
        schedule = build_schedule("svpp", problem)
        model = build_model(GQA_SPEC, seed=5)
        result = PipelineRuntime(model, tokens, targets).run(schedule)
        assert result.loss == pytest.approx(ref_loss, abs=1e-12)
        for key, grad in model.named_grads().items():
            assert np.allclose(grad, ref.named_grads()[key], atol=1e-12)


class TestRecomputation:
    def test_gradients_identical(self):
        """Replaying the forward is numerically free of error."""
        tokens, targets = data(MHA_SPEC)
        ref = build_model(MHA_SPEC, seed=3)
        ref_loss = sequential_step(ref, tokens, targets)
        rc = build_model(MHA_SPEC, seed=3, recompute=True)
        rc_loss = sequential_step(rc, tokens, targets)
        assert rc_loss == pytest.approx(ref_loss, abs=1e-12)
        for key, grad in rc.named_grads().items():
            assert np.allclose(grad, ref.named_grads()[key], atol=1e-12), key

    def test_live_bytes_reduced_about_90pct(self):
        """Section 7.3: recomputation cuts activation memory ~90%."""
        tokens, targets = data(MHA_SPEC, n=1)
        t = MHA_SPEC.seq_length

        def peak_after_forward(recompute):
            model = build_model(MHA_SPEC, seed=1, recompute=recompute)
            model.head.loss_scale = 1.0 / tokens.size
            model.head.set_targets(0, 0, targets[0])
            x = tokens[0]
            for comp in model.components:
                x = comp.forward(0, 0, x)
            return model.live_bytes()

        full = peak_after_forward(False)
        lean = peak_after_forward(True)
        assert lean < 0.25 * full  # layers shrink ~90%; head/embed remain

    def test_recompute_rejects_slices(self):
        tokens, targets = data(MHA_SPEC)
        model = build_model(MHA_SPEC, seed=1, recompute=True)
        with pytest.raises(ValueError, match="whole micro-batches"):
            sequential_step(model, tokens, targets, num_slices=2)

    def test_recompute_trains(self):
        from repro.nn import Adam

        tokens, targets = data(MHA_SPEC)
        model = build_model(MHA_SPEC, seed=6, recompute=True)
        optimizer = Adam(model, lr=3e-3)
        losses = []
        for _step in range(5):
            losses.append(sequential_step(model, tokens, targets))
            optimizer.step()
        assert losses[-1] < losses[0]


class TestLiveBytes:
    def test_zero_when_idle(self):
        model = build_model(MHA_SPEC, seed=0)
        assert model.live_bytes() == 0

    def test_released_after_backward(self):
        tokens, targets = data(MHA_SPEC)
        model = build_model(MHA_SPEC, seed=0)
        sequential_step(model, tokens, targets)
        assert model.live_bytes() == 0

    @pytest.mark.parametrize("spec,recompute,num_slices", [
        (MHA_SPEC, False, 3), (GQA_SPEC, False, 2), (MHA_SPEC, True, 1),
    ])
    def test_running_count_equals_the_rescan_after_every_call(
        self, spec, recompute, num_slices
    ):
        """``live_nbytes`` is maintained where state is stored and
        released; ``live_bytes()`` re-sums it from the state itself."""
        tokens, targets = data(spec)
        model = build_model(spec, seed=0, recompute=recompute)
        calls, seen = [0], set()

        def audited(comp, method):
            def call(*args):
                out = method(*args)
                assert comp.live_nbytes == comp.live_bytes()
                calls[0] += 1
                seen.add(comp.live_nbytes)
                return out
            return call

        for comp in model.components:
            comp.forward = audited(comp, comp.forward)
            comp.backward = audited(comp, comp.backward)
        sequential_step(model, tokens, targets, num_slices=num_slices)
        assert calls[0] == 2 * len(model.components) * 2 * num_slices
        assert len(seen) > 2  # the count moved, it did not sit at zero
        assert all(comp.live_nbytes == 0 for comp in model.components)
