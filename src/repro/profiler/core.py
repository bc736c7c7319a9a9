"""The MEPipe profiler (Section 6, component 1 of 3).

MEPipe's implementation "includes a profiler that measures the
computation time and memory consumption for each forward and backward
pass"; the SVPP scheduler then plans with those measurements.  Here the
profiler runs the NumPy training substrate and times every op kind per
(slice, chunk), producing a :class:`ProfiledCost` the greedy scheduler
consumes exactly like the analytical models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.data.synthetic import token_batches
from repro.model.spec import ModelSpec
from repro.nn.layers import LossHead
from repro.nn.model import build_model
from repro.obs.events import NULL_SINK, EventSink
from repro.obs.sinks import MemorySink, TeeSink
from repro.schedules.base import OpId, OpKind, PipelineProblem


@dataclass
class OpProfile:
    """Measured statistics of one (kind, slice, chunk) op class."""

    total_seconds: float = 0.0
    samples: int = 0
    peak_bytes: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / max(self.samples, 1)


@dataclass
class ProfiledCost:
    """A cost model backed by measured per-op times.

    Implements the executor's ``CostModel`` protocol; communication is
    taken from an optional ``comm_seconds`` constant per cross-stage
    edge (the profiler measures computation; transfers are modeled).
    """

    problem: PipelineProblem
    measurements: dict[tuple[OpKind, int, int], OpProfile]
    comm_seconds: float = 0.0

    def duration(self, op: OpId) -> float:
        profile = self.measurements.get((op.kind, op.slice_idx, op.chunk))
        if profile is None or profile.samples == 0:
            raise KeyError(f"no profile for {op}")
        if op.kind is OpKind.W:
            return profile.mean_seconds / self.problem.wgrad_gemms
        return profile.mean_seconds

    def comm_time(self, dep: OpId, op: OpId) -> float:
        if self.problem.is_cross_stage(dep, op):
            return self.comm_seconds
        return 0.0


@dataclass
class Profiler:
    """Times the NumPy substrate's ops for one pipeline problem.

    Args:
        spec: Model to instantiate (use :func:`repro.model.tiny_spec`
            scales; this runs real matmuls).
        problem: Shapes the (slice, chunk) grid being profiled.
        batch_size: Samples per micro-batch during profiling.
        warmup: Untimed runs before measurement (cache warming).
        repeats: Timed runs to average over.
    """

    spec: ModelSpec
    problem: PipelineProblem
    batch_size: int = 2
    warmup: int = 1
    repeats: int = 3
    seed: int = 0

    def profile(self, sink: EventSink = NULL_SINK) -> ProfiledCost:
        """Measure every (kind, slice, chunk) class and build the cost.

        All timing flows through the telemetry bus: every measured pass
        is a span (``tid`` = hosting stage, ``cat`` = op kind, args
        carry ``slice``/``chunk``/``round``/``warmup``), and the
        :class:`OpProfile` table is aggregated from the span stream.
        Pass an enabled ``sink`` to watch the profiler live; warmup
        rounds are emitted too, flagged ``warmup=True``, and excluded
        from the aggregate.
        """
        capture = MemorySink()
        bus: EventSink = TeeSink(capture, sink) if sink.enabled else capture
        t0 = time.perf_counter()
        for round_idx in range(self.warmup + self.repeats):
            self._run_once(bus, round_idx, warmup=round_idx < self.warmup, t0=t0)
        measurements: dict[tuple[OpKind, int, int], OpProfile] = {}
        for event in capture.spans():
            if event.arg("warmup"):
                continue
            sl, c = event.arg("slice"), event.arg("chunk")
            assert isinstance(sl, int) and isinstance(c, int)
            key = (OpKind(event.cat), sl, c)
            profile = measurements.setdefault(key, OpProfile())
            profile.total_seconds += event.dur
            profile.samples += 1
        return ProfiledCost(problem=self.problem, measurements=measurements)

    # ------------------------------------------------------------------
    def _run_once(
        self, bus: EventSink, round_idx: int, *, warmup: bool, t0: float
    ) -> None:
        spec, problem = self.spec, self.problem
        model = build_model(spec, seed=self.seed)
        chunks = model.partition(problem.num_chunks)
        tokens, targets = token_batches(
            spec.vocab_size, 1, self.batch_size, spec.seq_length, seed=self.seed)
        model.head.loss_scale = 1.0 / tokens.size
        s = problem.num_slices
        t = spec.seq_length // s

        def note(kind: OpKind, sl: int, c: int, start: float, end: float) -> None:
            bus.span(
                f"{kind.value}?.{sl} c{c}",
                ts=start - t0,
                dur=end - start,
                tid=problem.stage_of_chunk(c),
                cat=kind.value,
                args={
                    "slice": sl,
                    "chunk": c,
                    "round": round_idx,
                    "warmup": warmup,
                },
            )

        # Forward, slice-major (the dependency-legal order).
        outputs: dict[tuple[int, int], object] = {}
        for sl in range(s):
            x: object = tokens[0, :, sl * t : (sl + 1) * t]
            for c, components in enumerate(chunks):
                start = time.perf_counter()
                for comp in components:
                    if isinstance(comp, LossHead):
                        comp.set_targets(0, sl, targets[0, :, sl * t : (sl + 1) * t])
                    x = comp.forward(0, sl, x)
                note(OpKind.F, sl, c, start, time.perf_counter())
            outputs[(sl, problem.num_chunks - 1)] = x

        # Backward (reverse slice order), timing dgrad and wgrad apart.
        wgrad_tasks: dict[tuple[int, int], list] = {}
        for sl in reversed(range(s)):
            dy: object = None
            for c in reversed(range(problem.num_chunks)):
                start = time.perf_counter()
                tasks = []
                for comp in reversed(chunks[c]):
                    dy = comp.backward(0, sl, dy)
                    tasks.extend(comp.pop_wgrad_tasks(0, sl))
                note(OpKind.B, sl, c, start, time.perf_counter())
                wgrad_tasks[(sl, c)] = tasks
        for (sl, c), tasks in wgrad_tasks.items():
            start = time.perf_counter()
            for task in tasks:
                task()
            note(OpKind.W, sl, c, start, time.perf_counter())

