"""Tests for checkpointing, fault injection, MTBF model, and TCO."""

import numpy as np
import pytest

from repro.data import token_batches
from repro.hardware.tco import compare_equal_compute
from repro.model import tiny_spec
from repro.nn import Adam, build_model, sequential_step
from repro.reliability import (
    FaultInjector,
    InjectedFault,
    ReliabilityModel,
    TrainingDriver,
    restore_checkpoint,
    rtx4090_thousand_gpu_model,
    scaled_mtbf,
    take_checkpoint,
)

SPEC = tiny_spec(hidden_size=32, num_layers=2, num_heads=4,
                 ffn_hidden_size=64, vocab_size=19, seq_length=8)


def make_training():
    tokens, targets = token_batches(SPEC.vocab_size, 2, 2, SPEC.seq_length, seed=2)
    model = build_model(SPEC, seed=5)
    optimizer = Adam(model, lr=1e-3)

    def step_fn(m):
        return sequential_step(m, tokens, targets)

    return model, optimizer, step_fn


class TestCheckpointRoundtrip:
    def test_restore_recovers_exact_state(self):
        model, optimizer, step_fn = make_training()
        step_fn(model)
        optimizer.step()
        snapshot = take_checkpoint(model, optimizer, step=1)
        before = {k: v.copy() for k, v in model.named_params().items()}
        # Diverge...
        step_fn(model)
        optimizer.step()
        # ...and restore.
        step = restore_checkpoint(model, optimizer, snapshot)
        assert step == 1
        for key, value in model.named_params().items():
            assert np.array_equal(value, before[key])
        assert optimizer.step_count == 1


class TestFaultInjection:
    def test_injector_fires_once(self):
        injector = FaultInjector(fail_at_steps={3})
        injector.check(2)
        with pytest.raises(InjectedFault):
            injector.check(3)
        injector.check(3)  # does not fire twice

    def test_training_recovers_to_exact_trajectory(self):
        """Failure injection: a crash mid-run must not change the
        final model relative to an uninterrupted run."""
        model_a, opt_a, step_a = make_training()
        clean = TrainingDriver(model_a, opt_a, checkpoint_interval=2)
        losses_clean = clean.run(step_a, steps=8)

        model_b, opt_b, step_b = make_training()
        faulty = TrainingDriver(
            model_b, opt_b, checkpoint_interval=2,
            injector=FaultInjector(fail_at_steps={3, 7}))
        losses_faulty = faulty.run(step_b, steps=8)

        assert faulty.recoveries == 2
        assert losses_faulty == pytest.approx(losses_clean, abs=1e-12)
        for key, value in model_a.named_params().items():
            assert np.allclose(value, model_b.named_params()[key], atol=1e-12)

    def test_recovery_replays_lost_steps(self):
        model, optimizer, step_fn = make_training()
        driver = TrainingDriver(model, optimizer, checkpoint_interval=4,
                                injector=FaultInjector(fail_at_steps={5}))
        losses = driver.run(step_fn, steps=6)
        assert len(losses) == 6
        assert driver.recoveries == 1


class TestMTBFModel:
    def test_scaled_mtbf_inverse_in_gpus(self):
        assert scaled_mtbf(12.0, 1000, 2000) == pytest.approx(6.0)
        assert scaled_mtbf(12.0, 1000, 500) == pytest.approx(24.0)

    def test_youngs_interval(self):
        model = ReliabilityModel(cluster_mtbf_hours=1.0,
                                 checkpoint_seconds=18.0,
                                 recovery_seconds=60.0)
        assert model.optimal_checkpoint_interval() == pytest.approx(360.0)

    def test_paper_estimate_under_5pct(self):
        """Section 9: failure cost < 5% for a thousand RTX 4090s."""
        assert rtx4090_thousand_gpu_model().overhead_fraction() < 0.05

    def test_slow_recovery_blows_the_budget(self):
        slow = rtx4090_thousand_gpu_model(checkpoint_seconds=300,
                                          recovery_seconds=1800)
        assert slow.overhead_fraction() > 0.10

    def test_optimal_interval_minimizes_overhead(self):
        model = rtx4090_thousand_gpu_model()
        opt = model.overhead_fraction()
        assert opt <= model.overhead_fraction(model.optimal_checkpoint_interval() * 3)
        assert opt <= model.overhead_fraction(model.optimal_checkpoint_interval() / 3)


class TestTCO:
    def test_paper_parity_about_24_years(self):
        tco = compare_equal_compute(electricity_usd_per_kwh=0.1)
        assert 20 < tco.parity_years < 30

    def test_pricier_power_shortens_parity(self):
        cheap_power = compare_equal_compute(electricity_usd_per_kwh=0.05)
        pricey_power = compare_equal_compute(electricity_usd_per_kwh=0.3)
        assert pricey_power.parity_years < cheap_power.parity_years

    def test_two_4090s_per_a100(self):
        tco = compare_equal_compute()
        assert tco.cheap_gpus_per_expensive == pytest.approx(2.0)
        assert tco.extra_power_watts == pytest.approx(500.0)
