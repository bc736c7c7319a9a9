"""Per-stage op semantics shared by the serial and parallel runtimes.

A :class:`StageExecutor` owns everything one pipeline stage needs to
execute its ordered op program: the model chunks the stage hosts, the
per-(micro-batch, slice) token/target slices, the deferred
weight-gradient queues of split-backward schedules, and the stage's
execution statistics.  It takes an op's incoming boundary tensor and
returns the one the op emits; where a tensor comes from and goes to is
the *callers'* job, and both read it from the compiled graph's
:func:`~repro.schedules.graph.boundary_table` — the serial
:class:`~repro.pipeline.runtime.PipelineRuntime` through one
in-process mailbox, the parallel
:class:`~repro.pipeline.parallel_runtime.ParallelPipelineRuntime`
through a per-stage mailbox and shared-memory ring channels — so the
numerical semantics of an op live in exactly one place and the two
runtimes cannot drift.

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

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.nn.layers import Component, LossHead
from repro.schedules.base import OpId, OpKind, PipelineProblem, ScheduleError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.runtime import StageStats

Array = np.ndarray[Any, np.dtype[Any]]

#: One queued weight-gradient GEMM (see repro.nn.layers.WgradTask).
_TaskGroups = list[list[Any]]


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

    def execute(
        self, op: OpId, payload: Array | None = None
    ) -> tuple[float, Array | None]:
        """Run one op; ``payload`` is its incoming boundary tensor.

        For F ops on chunk 0 the input is the stage's own token slice
        and ``payload`` must be ``None``; likewise for B ops on the
        final chunk (the loss head starts the gradient chain).  Returns
        the op's loss term (nonzero only for an F op on the final
        chunk) and the boundary tensor it emits toward the adjacent
        chunk, ``None`` when it emits none.
        """
        problem = self.problem
        mb, sl, c = op.microbatch, op.slice_idx, op.chunk
        components = self.chunk_components[c]
        for comp in components:
            self._live_contexts -= comp.live_contexts
            self._live_bytes -= comp.live_nbytes
        loss = 0.0
        emitted: Array | None = None

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
                loss = float(x)  # LossHead output
            else:
                emitted = x
        elif op.kind is OpKind.B:
            dy: Array | None = payload
            tasks: list[Any] = []
            for comp in reversed(components):
                dy = comp.backward(mb, sl, dy)
                tasks.extend(comp.pop_wgrad_tasks(mb, sl))
            if dy is not None and c > 0:
                emitted = dy
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
        return loss, emitted
