"""Checkpointing for the NumPy training substrate.

Supports the Section 9 fault-tolerance story end to end: in-memory
(GEMINI-style) checkpoints of model parameters plus Adam state, and a
fault-injecting training driver that proves training recovers to the
exact trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.adam import Adam
from repro.nn.model import TransformerModel


@dataclass
class Checkpoint:
    """A full training-state snapshot."""

    step: int
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_step: int


def take_checkpoint(model: TransformerModel, optimizer: Adam, step: int) -> Checkpoint:
    """Deep-copy the training state (an in-memory checkpoint)."""
    return Checkpoint(
        step=step,
        params={k: v.copy() for k, v in model.named_params().items()},
        adam_m={k: v.copy() for k, v in optimizer.m.items()},
        adam_v={k: v.copy() for k, v in optimizer.v.items()},
        adam_step=optimizer.step_count,
    )


def restore_checkpoint(
    model: TransformerModel, optimizer: Adam, checkpoint: Checkpoint
) -> int:
    """Load a snapshot back into the live objects; returns the step."""
    for key, value in model.named_params().items():
        value[...] = checkpoint.params[key]
    for key in optimizer.m:
        optimizer.m[key][...] = checkpoint.adam_m[key]
        optimizer.v[key][...] = checkpoint.adam_v[key]
    optimizer.step_count = checkpoint.adam_step
    model.init_grads()
    return checkpoint.step


class InjectedFault(RuntimeError):
    """A simulated hardware failure during training."""


@dataclass
class FaultInjector:
    """Raises :class:`InjectedFault` at the configured steps (once each)."""

    fail_at_steps: set[int] = field(default_factory=set)
    _fired: set[int] = field(default_factory=set)

    def check(self, step: int) -> None:
        if step in self.fail_at_steps and step not in self._fired:
            self._fired.add(step)
            raise InjectedFault(f"simulated device failure at step {step}")


@dataclass
class TrainingDriver:
    """A fault-tolerant training loop over any step function.

    ``step_fn(model) -> loss`` must accumulate gradients into the model
    (e.g. a closure over :class:`repro.pipeline.PipelineRuntime`); the
    driver owns the optimizer, checkpointing cadence, and recovery.
    """

    model: TransformerModel
    optimizer: Adam
    checkpoint_interval: int = 5
    injector: FaultInjector | None = None

    def __post_init__(self) -> None:
        self._latest = take_checkpoint(self.model, self.optimizer, step=0)
        self.recoveries = 0
        self.losses: list[float] = []

    def run(self, step_fn, steps: int) -> list[float]:
        """Train ``steps`` steps, recovering from injected faults."""
        step = 0
        while step < steps:
            try:
                if self.injector is not None:
                    self.injector.check(step)
                loss = step_fn(self.model)
                self.optimizer.step()
                step += 1
                self.losses.append(loss)
                if step % self.checkpoint_interval == 0:
                    self._latest = take_checkpoint(
                        self.model, self.optimizer, step)
            except InjectedFault:
                step = restore_checkpoint(
                    self.model, self.optimizer, self._latest)
                del self.losses[step:]
                self.recoveries += 1
        return self.losses
