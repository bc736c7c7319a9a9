"""Per-stage op semantics shared by the serial and parallel runtimes.

A :class:`StageExecutor` owns everything one pipeline stage needs to
execute its ordered op program: the model chunks the stage hosts, the
per-(micro-batch, slice) token/target slices, the deferred
weight-gradient queues of split-backward schedules, and the stage's
execution statistics.  The transport of boundary tensors is the
*caller's* job — the serial :class:`~repro.pipeline.runtime
.PipelineRuntime` moves them through in-process dicts, the parallel
:class:`~repro.pipeline.parallel_runtime.ParallelPipelineRuntime`
through shared-memory ring channels — so the numerical semantics of an
op live in exactly one place and the two runtimes cannot drift.

Live-memory accounting is **incremental**: an op only mutates the
forward state of the components of its own chunk, and each component
keeps running totals (``live_contexts``, ``live_nbytes``) where it
stores and releases that state, so the executor reads those counters
before and after the op and applies the delta to the stage totals —
no context is walked per op.  The re-sum from the state itself is kept
as :meth:`StageExecutor.full_live_scan` for tests to assert equality
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.nn.layers import Component, LossHead
from repro.schedules.base import OpId, OpKind, PipelineProblem, ScheduleError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.runtime import StageStats

Array = np.ndarray[Any, np.dtype[Any]]

#: One queued weight-gradient GEMM (see repro.nn.layers.WgradTask).
_TaskGroups = list[list[Any]]


@dataclass
class StepOutcome:
    """What executing one op produced.

    Attributes:
        loss: This op's loss contribution (nonzero only for F ops on
            the final chunk).
        payload: Boundary tensor the op emits toward another chunk
            (``None`` when the op has no outgoing boundary tensor).
        dst_chunk: The chunk that consumes ``payload``.
    """

    loss: float = 0.0
    payload: Array | None = None
    dst_chunk: int = -1


class StageExecutor:
    """Executes one stage's ops over its model chunks.

    Args:
        stage: The pipeline stage this executor embodies.
        problem: The schedule's :class:`PipelineProblem`.
        chunk_components: The model chunks hosted by this stage, keyed
            by global chunk index.
        tokens: ``(n, B, T)`` token ids (only read when the stage hosts
            chunk 0 or the loss head's chunk).
        targets: ``(n, B, T)`` labels.
        stats: The :class:`~repro.pipeline.runtime.StageStats` to
            update in place.
    """

    def __init__(
        self,
        stage: int,
        problem: PipelineProblem,
        chunk_components: dict[int, list[Component]],
        tokens: Array,
        targets: Array,
        stats: "StageStats",
    ) -> None:
        self.stage = stage
        self.problem = problem
        self.chunk_components = chunk_components
        self.tokens = tokens
        self.targets = targets
        self.stats = stats
        self.seq_length = int(tokens.shape[2])
        self._wgrad_groups: dict[tuple[int, int, int], _TaskGroups] = {}
        # Incremental live accounting, seeded with one full scan (all
        # component state is empty between iterations, so this is
        # normally zero; the scan keeps the invariant even if not).
        self._live_contexts, self._live_bytes = self.full_live_scan()
        self._sync_peaks()

    # ------------------------------------------------------------------
    # Live accounting
    # ------------------------------------------------------------------
    def full_live_scan(self) -> tuple[int, int]:
        """Re-sum of live contexts/bytes from every component's stored
        state (test oracle)."""
        contexts = 0
        nbytes = 0
        for comps in self.chunk_components.values():
            for comp in comps:
                contexts += comp.live_contexts
                nbytes += comp.live_bytes()
        return contexts, nbytes

    def _sync_peaks(self) -> None:
        if self._live_contexts > self.stats.peak_live_contexts:
            self.stats.peak_live_contexts = self._live_contexts
        if self._live_bytes > self.stats.peak_live_bytes:
            self.stats.peak_live_bytes = self._live_bytes

    # ------------------------------------------------------------------
    # Op protocol helpers
    # ------------------------------------------------------------------
    def recv_source(self, op: OpId) -> tuple[int, OpId] | None:
        """The cross-stage producer feeding ``op``, if any.

        Returns ``(src_stage, producer_op)`` when ``op`` consumes a
        boundary tensor produced on another stage, else ``None``.
        """
        problem = self.problem
        mb, sl, c = op.microbatch, op.slice_idx, op.chunk
        if op.kind is OpKind.F and c > 0:
            src = problem.stage_of_chunk(c - 1)
            if src != self.stage:
                return src, OpId(OpKind.F, mb, sl, c - 1)
        elif op.kind is OpKind.B and c < problem.num_chunks - 1:
            src = problem.stage_of_chunk(c + 1)
            if src != self.stage:
                return src, OpId(OpKind.B, mb, sl, c + 1)
        return None

    def wgrad_ready(self, op: OpId) -> bool:
        """Whether a W op's deferred GEMM group exists (its B ran)."""
        return (op.microbatch, op.slice_idx, op.chunk) in self._wgrad_groups

    def assert_drained(self) -> None:
        """Raise unless every deferred weight-gradient task executed."""
        if any(any(g) for groups in self._wgrad_groups.values() for g in groups):
            raise ScheduleError("unexecuted weight-gradient tasks remain")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _slice_of(self, source: Array, mb: int, sl: int) -> Array:
        t = self.seq_length // self.problem.num_slices
        return source[mb, :, sl * t : (sl + 1) * t]

    def execute(self, op: OpId, payload: Array | None = None) -> StepOutcome:
        """Run one op; ``payload`` is its incoming boundary tensor.

        For F ops on chunk 0 the input is the stage's own token slice
        and ``payload`` must be ``None``; likewise for B ops on the
        final chunk (the loss head starts the gradient chain).
        """
        problem = self.problem
        mb, sl, c = op.microbatch, op.slice_idx, op.chunk
        components = self.chunk_components[c]
        for comp in components:
            self._live_contexts -= comp.live_contexts
            self._live_bytes -= comp.live_nbytes
        outcome = StepOutcome()

        if op.kind is OpKind.F:
            if c == 0:
                x: Any = self._slice_of(self.tokens, mb, sl)
            else:
                assert payload is not None
                x = payload
            for comp in components:
                if isinstance(comp, LossHead):
                    comp.set_targets(mb, sl, self._slice_of(self.targets, mb, sl))
                x = comp.forward(mb, sl, x)
            if c == problem.num_chunks - 1:
                outcome.loss = float(x)  # LossHead output
            else:
                outcome.payload = x
                outcome.dst_chunk = c + 1
        elif op.kind is OpKind.B:
            dy: Array | None = payload
            tasks: list[Any] = []
            for comp in reversed(components):
                dy = comp.backward(mb, sl, dy)
                tasks.extend(comp.pop_wgrad_tasks(mb, sl))
            if dy is not None and c > 0:
                outcome.payload = dy
                outcome.dst_chunk = c - 1
            if problem.split_backward:
                g = problem.wgrad_gemms
                self._wgrad_groups[(mb, sl, c)] = [tasks[i::g] for i in range(g)]
            else:
                for task in tasks:
                    task()
                self.stats.wgrad_tasks_run += len(tasks)
        else:
            groups = self._wgrad_groups[(mb, sl, c)]
            tasks = groups[op.gemm]
            groups[op.gemm] = []
            for task in tasks:
                task()
            self.stats.wgrad_tasks_run += len(tasks)

        self.stats.ops_executed += 1
        for comp in components:
            self._live_contexts += comp.live_contexts
            self._live_bytes += comp.live_nbytes
        self._sync_peaks()
        return outcome
