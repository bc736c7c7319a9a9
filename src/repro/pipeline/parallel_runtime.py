"""True multi-process pipeline execution with measured comm/wgrad overlap.

:class:`ParallelPipelineRuntime` **forks** one worker process per
pipeline stage, so each worker inherits its partition chunks, tokens,
the schedule's compiled graph (its program is its stage's slice) and
channel endpoints copy-on-write — nothing is pickled on the way in —
and moves boundary tensors, routed by the graph's ``boundary_table``,
through the shared-memory ring channels of
:mod:`repro.pipeline.channels`.  Gradients come home through
shared pages too: workers accumulate into anonymous shared mappings
the parent staged before forking (:class:`_SharedGrads`), and the only
thing a worker pickles back is a small array-free report.  Where the
serial :class:`~repro.pipeline.runtime.PipelineRuntime` merely
*interleaves* stage programs in one process, here every stage runs on
its own clock: per-stage busy/idle time, channel wait time, and the
bubble ratio become measured wall-clock quantities.

The runtime realizes MEPipe's central mechanism for real: while a
worker is blocked on a channel receive it drains **deferred
weight-gradient ops** whose inputs are ready, so W compute overlaps
communication wait (Section 5).  Overlap is measured per stage
(``StageStats.overlap_w_seconds``) and rendered in traces as W spans
filling the gaps between F/B spans.

Bit-exactness contract — parallel results equal the serial golden
reference **bit for bit**:

* Each parameter's gradient adds all happen on the one stage hosting
  its chunk.  A worker executes W ops in program order *relative to
  each other* (run-ahead never reorders W vs W, it only moves W
  earlier relative to blocked F/B ops), so every parameter sees the
  exact reduction order the serial runtime uses.
* Loss terms arise only from F ops on the final chunk, accumulated in
  that one worker's program order; other workers contribute exact
  ``0.0``.
* F and B ops execute in per-stage program order, so activations,
  boundary tensors, and wgrad closures are computed from identical
  inputs in identical order.

Ring sizing is capacity-certified: before any worker spawns, the
schedule's per-channel slot counts pass through
:mod:`repro.analysis.capacity` (``capacity_mode="auto"`` allocates the
inferred minimal deadlock-free capacities; ``"full"`` restores
one-slot-per-message non-blocking sends) and a CP001/CP002 failure
aborts the run with the analyzer's minimal-cycle witness instead of
wedging live processes on saturated rings.

Failure handling: every blocking primitive carries a timeout, workers
report exceptions (with traceback) through the result queue, and the
parent converts a dead/stalled worker into a :class:`ScheduleError`
after terminating the remaining workers and unlinking every
shared-memory segment — no hangs, no orphans, no leaked ``/dev/shm``
entries.  The model's gradients change only when every stage reported
success; a failed run leaves them exactly as they were.

Why forking is safe *here*: a worker runs one stage program over NumPy
arrays and talks to the world through its ring semaphores, the start
barrier and the result queue — all created for this run, none of them a
lock another parent thread could hold at fork time.  It never touches
the planner pool, the service, logging or anything else the embedding
process may own; it resets ``SIGTERM`` to the default action at entry so
an inherited handler cannot swallow the parent's ``terminate()``; and it
leaves through ``os._exit`` (multiprocessing's fork bootstrap), so
inherited ``atexit`` hooks never run in it.  Workers are direct children
of the caller, so ``RUSAGE_CHILDREN`` accounts for their CPU and memory.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import queue as queue_mod
import secrets
import signal
import time
import traceback
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.nn.layers import Component
from repro.nn.model import TransformerModel
from repro.obs.events import NULL_SINK, EventSink
from repro.obs.metrics import CommLog
from repro.pipeline.channels import (
    _HEADER_BYTES,
    ChannelKey,
    ChannelProtocol,
    create_channel,
    default_channel_timeout,
)
from repro.pipeline.runtime import RunResult, StageStats, _preflight
from repro.pipeline.stage import StageExecutor
from repro.schedules.base import OpId, PipelineProblem, Schedule, ScheduleError
from repro.schedules.graph import (
    KIND_W,
    ScheduleGraph,
    boundary_table,
    compiled_graph,
)
from repro.sim.executor import OpRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.context import ForkContext
    from multiprocessing.shared_memory import SharedMemory

__all__ = ["FaultSpec", "ParallelPipelineRuntime"]

Array = np.ndarray[Any, np.dtype[Any]]

#: Slice of blocking recv waits between deferred-W drain attempts.
_POLL_SECONDS = 0.002


@dataclass(frozen=True)
class FaultSpec:
    """Test-only fault injection: fail one worker at one program point.

    Attributes:
        stage: Worker to sabotage.
        op_index: Program position at which the fault fires.
        mode: ``"raise"`` raises a RuntimeError (reported with
            traceback); ``"exit"`` hard-kills the process with
            ``os._exit`` (no report — the parent must detect the
            death); ``"hang"`` sleeps past every timeout.
    """

    stage: int
    op_index: int
    mode: str = "raise"


@dataclass
class _WorkerConfig:
    """Everything one stage worker needs; inherited through ``fork``,
    never pickled.  The components' ``grads`` are the shared staging
    buffers of :class:`_SharedGrads` at fork time."""

    stage: int
    graph: ScheduleGraph
    boundary: tuple[memoryview, memoryview]  #: boundary_table(graph)
    chunk_components: dict[int, list[Component]]
    tokens: Array
    targets: Array
    send_channels: dict[ChannelKey, ChannelProtocol]
    recv_channels: dict[ChannelKey, ChannelProtocol]
    barrier: Any
    results: Any
    timeout: float
    fault: FaultSpec | None = None


@dataclass
class _WorkerReport:
    """One stage's execution outcome, pickled back to the parent.

    Carries no arrays — its size does not depend on the model's — the
    gradients are already in the parent's shared pages.
    """

    stage: int
    t0: float  #: perf_counter at the start barrier (shared clock)
    wall: float  #: seconds from barrier to program completion
    loss: float
    stats: StageStats
    records: list[OpRecord]  #: times relative to this worker's t0
    comms: CommLog


class _SharedGrads:
    """Every component's gradient buffers, staged in anonymous shared
    mappings for the length of a run.

    The mappings have no name — nothing to unlink, nothing that can leak
    into ``/dev/shm`` — and are inherited by forked workers, whose
    in-place ``+=`` lands in pages the parent reads back.  The staged
    buffers start from the model's current gradients, so a run
    accumulates exactly as the serial runtime does.  One mapping per
    component, so :meth:`adopt` hands each back as soon as it is copied
    and the parent never holds two full sets of gradients.
    """

    def __init__(self, components: Sequence[Component]) -> None:
        def span(grad: Array) -> int:  # each buffer starts cache-line aligned
            return -(-grad.nbytes // 64) * 64

        self._components = components
        self._maps: list[mmap.mmap] = []
        self._staged: list[dict[str, Array]] = []
        for comp in components:
            size = sum(span(grad) for grad in comp.grads.values())
            shared = mmap.mmap(-1, max(size, 1))
            staged: dict[str, Array] = {}
            offset = 0
            for key, grad in comp.grads.items():
                staged[key] = np.frombuffer(
                    shared, dtype=grad.dtype, count=grad.size, offset=offset
                ).reshape(grad.shape)
                np.copyto(staged[key], grad)
                offset += span(grad)
            self._maps.append(shared)
            self._staged.append(staged)

    @contextmanager
    def lent(self) -> Iterator[None]:
        """Swap the staged buffers in as the components' ``grads`` —
        what a process forked inside the block accumulates into — and
        give the components their own buffers back on exit."""
        own = [comp.grads for comp in self._components]
        for comp, staged in zip(self._components, self._staged):
            comp.grads = staged
        try:
            yield
        finally:
            for comp, grads in zip(self._components, own):
                comp.grads = grads

    def adopt(self) -> None:
        """Copy the staged gradients into the components' own buffers,
        releasing each component's mapping once it is home."""
        for comp, staged, shared in zip(
            self._components, self._staged, self._maps
        ):
            for key in staged:
                np.copyto(comp.grads[key], staged[key])
            staged.clear()
            shared.close()

    def close(self) -> None:
        """Release whatever :meth:`adopt` did not (the staged views die
        with their mappings)."""
        for staged, shared in zip(self._staged, self._maps):
            staged.clear()
            shared.close()


def _fork_context() -> "ForkContext":
    """The one multiprocessing context stage workers are born from."""
    try:
        return mp.get_context("fork")
    except ValueError:
        raise ScheduleError(
            "parallel pipeline runtime needs the 'fork' start method, which "
            "this platform's multiprocessing does not provide; run the "
            "schedule on the single-process PipelineRuntime instead"
        ) from None


def _worker_main(cfg: _WorkerConfig) -> None:
    """Entry point of one stage worker."""
    # A handler the embedding process installed must not swallow the
    # parent's terminate().
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    channels = list(cfg.send_channels.values()) + list(cfg.recv_channels.values())
    try:
        for ch in channels:
            ch.attach()
        report = _execute_stage(cfg)
        cfg.results.put(("ok", cfg.stage, report))
    except BaseException as exc:  # noqa: B036 - report, then die
        cfg.results.put(
            ("error", cfg.stage, f"{exc}\n{traceback.format_exc()}")
        )
    finally:
        for ch in channels:
            ch.close()


def _execute_stage(cfg: _WorkerConfig) -> _WorkerReport:
    """Run one stage's program, its slice ``[lo, hi)`` of the compiled
    graph; the heart of the parallel executor.  Boundary tensors move
    by ``boundary_table``: through the local mailbox between chunks on
    this stage, else through the ring between the two stages."""
    graph = cfg.graph
    ops, stage_of = graph.ops, graph.stage
    fed_by, feeds = cfg.boundary
    lo, hi = graph.stage_bounds[cfg.stage]
    stats = StageStats(stage=cfg.stage)
    executor = StageExecutor(
        cfg.stage, graph.problem, cfg.chunk_components, cfg.tokens,
        cfg.targets, stats,
    )
    # Indices of W ops, in program order: the run-ahead cursor walks
    # this list and never skips, so W-relative order equals program
    # order (the bit-exactness invariant).
    w_ops = [i for i in range(lo, hi) if graph.kind[i] == KIND_W]
    w_cursor = 0
    executed_early: set[int] = set()
    records: list[OpRecord] = []
    comms = CommLog()
    loss = 0.0

    # Local mailbox: producer's op index -> boundary tensor between
    # chunks on this stage.
    local: dict[int, Array] = {}
    # Ring messages that arrived ahead of their turn, by producing op:
    # a ring delivers in send order, and a receive order CH001 only
    # warns about (the wrap-channel reorder) consumes out of it.
    early: dict[OpId, Array] = {}

    def run_op(i: int, payload: Array | None, t_start: float) -> None:
        nonlocal loss
        op = ops[i]
        term, emitted = executor.execute(op, payload)
        t_end = time.perf_counter() - t0
        loss += term
        stats.busy_seconds += t_end - t_start
        records.append(
            OpRecord(op=op, stage=cfg.stage, start=t_start, end=t_end)
        )
        if emitted is not None:
            dst = stage_of[feeds[i]]
            if dst == cfg.stage:
                local[i] = emitted
            else:
                channel = cfg.send_channels[ChannelKey(cfg.stage, dst, op.kind.value)]
                channel.send(op, emitted, cfg.timeout)
                comms.note(cfg.stage, dst, emitted.nbytes)

    def drain_one_wgrad() -> bool:
        """Run the next ready deferred W op (program order); False if none."""
        nonlocal w_cursor
        while w_cursor < len(w_ops) and w_ops[w_cursor] in executed_early:
            w_cursor += 1
        if w_cursor >= len(w_ops):
            return False
        i = w_ops[w_cursor]
        if not executor.wgrad_ready(ops[i]):
            return False  # its B has not run; cannot skip ahead
        run_op(i, None, time.perf_counter() - t0)
        executed_early.add(i)
        w_cursor += 1
        return True

    def recv(i: int, producer: int) -> Array:
        """Blocking receive that drains deferred W ops while waiting;
        messages ahead of their turn are kept in ``early``."""
        src, expect = stage_of[producer], ops[producer]
        payload = early.pop(expect, None)
        if payload is not None:
            return payload
        channel = cfg.recv_channels[ChannelKey(src, cfg.stage, expect.kind.value)]
        deadline = time.perf_counter() + cfg.timeout
        while True:
            message = channel.try_recv()
            if message is None:
                t_w = time.perf_counter()
                if drain_one_wgrad():
                    stats.overlap_w_seconds += time.perf_counter() - t_w
                    continue
                t_block = time.perf_counter()
                message = channel.recv_wait(_POLL_SECONDS)
                stats.wait_seconds += time.perf_counter() - t_block
            if message is not None:
                sender, payload = message
                if sender == expect:
                    return payload
                early[sender] = payload
                continue
            if time.perf_counter() > deadline:
                raise ScheduleError(
                    f"stage {cfg.stage}: recv of {expect} for {ops[i]} timed "
                    f"out after {cfg.timeout:.1f}s — upstream stage "
                    f"{src} stalled or dead")

    cfg.barrier.wait(cfg.timeout)
    t0 = time.perf_counter()

    for i in range(lo, hi):
        if i in executed_early:
            continue
        if cfg.fault is not None and cfg.fault.op_index == i - lo:
            if cfg.fault.mode == "raise":
                raise RuntimeError(
                    f"injected fault on stage {cfg.stage} at op {ops[i]}")
            if cfg.fault.mode == "exit":
                os._exit(17)
            time.sleep(cfg.timeout * 100.0)  # "hang"
        producer = fed_by[i]
        payload: Array | None = None
        if producer >= 0:
            if stage_of[producer] == cfg.stage:
                payload = local.pop(producer)
            else:
                payload = recv(i, producer)
        run_op(i, payload, time.perf_counter() - t0)
        if graph.kind[i] == KIND_W:
            # Mark for the run-ahead cursor so the drain never revisits
            # a W op the head already executed.
            executed_early.add(i)

    wall = time.perf_counter() - t0
    if local or early:
        leftover = [str(ops[j]) for j in local] + [str(op) for op in early]
        raise ScheduleError(
            f"stage {cfg.stage}: unconsumed boundary tensors of {leftover}")
    executor.assert_drained()
    return _WorkerReport(
        stage=cfg.stage,
        t0=t0,
        wall=wall,
        loss=loss,
        stats=stats,
        records=records,
        comms=comms,
    )


class ParallelPipelineRuntime:
    """Multi-process counterpart of :class:`~repro.pipeline.runtime
    .PipelineRuntime` — same constructor, same :class:`RunResult`, same
    gradients bit for bit, but stages really run concurrently.

    Args:
        model: The model to train; partitioned into
            ``schedule.problem.num_chunks`` contiguous chunks, each
            shipped only to the stage that hosts it.
        tokens: ``(n, B, T)`` token ids.
        targets: ``(n, B, T)`` labels.
        timeout: Seconds any single blocking step (channel send/recv,
            start barrier, result collection) may take before the run
            is aborted with a :class:`ScheduleError`.  Defaults to
            :func:`~repro.pipeline.channels.default_channel_timeout`,
            which honors the ``REPRO_CHANNEL_TIMEOUT`` env knob.
    """

    def __init__(
        self,
        model: TransformerModel,
        tokens: Array,
        targets: Array,
        *,
        timeout: float | None = None,
    ):
        self.model = model
        self.tokens = tokens
        self.targets = targets
        self.timeout = default_channel_timeout() if timeout is None else timeout
        n, batch, seqlen = tokens.shape
        self.num_microbatches = int(n)
        self.batch = int(batch)
        self.seq_length = int(seqlen)
        model.head.loss_scale = 1.0 / (n * batch * seqlen)

    # ------------------------------------------------------------------
    def _payload_bytes(self, problem: PipelineProblem) -> int:
        """Bytes of one ring slot's payload — a ``(B, T/s, hidden)``
        float64 boundary tensor."""
        return int(
            self.batch
            * (self.seq_length // problem.num_slices)
            * self.model.spec.hidden_size
            * np.dtype(np.float64).itemsize
        )

    def resolve_capacities(
        self,
        schedule: Schedule,
        capacity_mode: str | Mapping[Any, int] = "auto",
    ) -> dict[tuple[int, int, str], int]:
        """Resolve and certify per-channel ring capacities — the spawn gate.

        ``capacity_mode`` is ``"auto"`` (the analyzer's minimal
        deadlock-free capacities), ``"full"`` (one slot per message:
        sends never block, the pre-capacity-analysis sizing), or an
        explicit ``{(src, dst, kind): slots}`` mapping (``ChannelKey``
        keys accepted).  Whatever the source, the result is certified
        by :func:`repro.analysis.capacity.check_capacities`; the
        runtime refuses to spawn workers under capacities that are not
        provably deadlock-free (CP001/CP002).
        """
        from repro.analysis.capacity import (
            check_capacities,
            infer_capacities,
            normalize_capacities,
        )

        if not isinstance(capacity_mode, str):
            caps = normalize_capacities(capacity_mode)
        elif capacity_mode in ("auto", "full"):
            mode = "deadlock-free" if capacity_mode == "auto" else "full"
            caps = infer_capacities(schedule).capacities(mode)
        else:
            raise ScheduleError(
                f"unknown capacity_mode {capacity_mode!r} "
                "(expected 'auto', 'full', or a capacity mapping)"
            )
        report = check_capacities(schedule, capacities=caps)
        if not report.ok:
            raise ScheduleError(
                "parallel pipeline runtime refused to spawn: ring "
                "capacities are not certified deadlock-free\n"
                + report.render_text()
            )
        return caps

    def plan_channels(
        self,
        schedule: Schedule,
        *,
        capacity_mode: str | Mapping[Any, int] = "auto",
    ) -> tuple[dict[ChannelKey, int], int]:
        """Certified ring sizing without spawning anything.

        Returns ``({channel: slots}, total shared-memory bytes)`` —
        the exact segments :meth:`run` would allocate under
        ``capacity_mode``, each slot costing header + payload bytes.
        """
        caps = self.resolve_capacities(schedule, capacity_mode)
        slot_bytes = _HEADER_BYTES + self._payload_bytes(schedule.problem)
        slots = {ChannelKey(*key): k for key, k in sorted(caps.items())}
        return slots, sum(k * slot_bytes for k in slots.values())

    def _build_channels(
        self,
        problem: PipelineProblem,
        ctx: "ForkContext",
        slots: dict[ChannelKey, int],
        segments: list["SharedMemory"],
    ) -> dict[ChannelKey, ChannelProtocol]:
        """One ring per directed cross-stage ``(src, dst, kind)`` edge,
        sized to the certified slot counts from
        :meth:`resolve_capacities`; the slot payload is one boundary
        tensor — ``(B, T/s, hidden)`` float64.

        Each segment is appended to ``segments`` the moment it exists,
        so the caller's cleanup sees the ones made before a failure.
        """
        payload_bytes = self._payload_bytes(problem)
        prefix = f"repro{os.getpid() % 100000}x{secrets.token_hex(2)}"
        channels: dict[ChannelKey, ChannelProtocol] = {}
        for serial, (key, count) in enumerate(sorted(slots.items())):
            protocol, shm = create_channel(
                key, count, payload_bytes, ctx, prefix, serial
            )
            segments.append(shm)
            channels[key] = protocol
        return channels

    # ------------------------------------------------------------------
    def run(
        self,
        schedule: Schedule,
        sink: EventSink = NULL_SINK,
        *,
        fault: FaultSpec | None = None,
        capacity_mode: str | Mapping[Any, int] = "auto",
    ) -> RunResult:
        """Execute one iteration under ``schedule`` across worker
        processes; returns a :class:`RunResult` with
        ``executor="parallel"`` and measured per-stage wait/overlap.

        Gradients accumulate into the model exactly as the serial
        runtime's do: workers add into shared staging buffers that start
        from the model's current gradients, and the model adopts them
        once every stage has reported success.  A run that raises leaves
        the model's gradients untouched.

        ``capacity_mode`` selects ring sizing (see
        :meth:`resolve_capacities`); workers only spawn once the
        chosen capacities are certified deadlock-free, and each
        stage's pinned ring bytes land in
        ``StageStats.channel_buffer_bytes``.

        ``fault`` is a test hook — see :class:`FaultSpec`.
        """
        problem = _preflight(self, schedule, "parallel pipeline runtime")
        slots, _ = self.plan_channels(schedule, capacity_mode=capacity_mode)
        num_stages = problem.num_stages
        graph = compiled_graph(schedule)
        boundary, _ = boundary_table(graph), graph.ops  # forked workers inherit both
        chunks = self.model.partition(problem.num_chunks)
        ctx = _fork_context()

        grads = _SharedGrads(self.model.components)
        segments: list[SharedMemory] = []
        workers: list[Any] = []
        results: Any = None
        try:
            channels = self._build_channels(problem, ctx, slots, segments)
            barrier = ctx.Barrier(num_stages)
            results = ctx.Queue()
            with grads.lent():
                for stage in range(num_stages):
                    cfg = _WorkerConfig(
                        stage=stage,
                        graph=graph,
                        boundary=boundary,
                        chunk_components={
                            c: chunks[c] for c in problem.chunks_of_stage(stage)
                        },
                        tokens=self.tokens,
                        targets=self.targets,
                        send_channels={
                            k: ch for k, ch in channels.items()
                            if k.src_stage == stage
                        },
                        recv_channels={
                            k: ch for k, ch in channels.items()
                            if k.dst_stage == stage
                        },
                        barrier=barrier,
                        results=results,
                        timeout=self.timeout,
                        fault=fault if fault is not None and fault.stage == stage
                        else None,
                    )
                    proc = ctx.Process(
                        target=_worker_main, args=(cfg,),
                        name=f"repro-stage-{stage}", daemon=True,
                    )
                    proc.start()
                    workers.append(proc)
            reports = self._collect(workers, results, num_stages)
            # Only now: every stage reported ok.
            grads.adopt()
        finally:
            for proc in workers:
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=10.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            for shm in segments:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            if results is not None:
                results.close()
                results.join_thread()
            grads.close()

        # Charge each stage the ring bytes it pins as a consumer — the
        # shm footprint the capacity plan bought (or saved).
        from repro.analysis.capacity import ring_bytes_per_stage

        slot_bytes = _HEADER_BYTES + self._payload_bytes(problem)
        ring_bytes = ring_bytes_per_stage(slots, num_stages, slot_bytes)
        for report in reports:
            report.stats.channel_buffer_bytes = ring_bytes[report.stage]

        return self._merge(schedule, problem, reports, sink)

    # ------------------------------------------------------------------
    def _collect(
        self, workers: list[Any], results: Any, num_stages: int
    ) -> list[_WorkerReport]:
        """Gather one report per stage, converting any worker failure
        (reported exception, abrupt death, stall) into a
        :class:`ScheduleError`."""
        reports: dict[int, _WorkerReport] = {}
        # The deadline is generous: each blocking step inside a worker
        # already times out at ``self.timeout``, so a healthy run ends
        # far earlier; this bound only backstops a wedged worker.
        deadline = time.monotonic() + self.timeout * (num_stages + 2)
        while len(reports) < num_stages:
            try:
                status, stage, payload = results.get(timeout=0.2)
            except queue_mod.Empty:
                dead = [
                    p for p in workers
                    if not p.is_alive() and p.exitcode not in (0, None)
                ]
                if dead and len(reports) < num_stages:
                    names = ", ".join(
                        f"{p.name} (exit {p.exitcode})" for p in dead
                    )
                    raise ScheduleError(
                        f"pipeline worker died without reporting: {names}"
                    ) from None
                if time.monotonic() > deadline:
                    raise ScheduleError(
                        "parallel pipeline runtime timed out waiting for "
                        f"worker results ({len(reports)}/{num_stages} done)"
                    ) from None
                continue
            if status == "error":
                raise ScheduleError(
                    f"pipeline worker for stage {stage} failed:\n{payload}")
            reports[stage] = payload
        return [reports[s] for s in range(num_stages)]

    # ------------------------------------------------------------------
    def _merge(
        self,
        schedule: Schedule,
        problem: PipelineProblem,
        reports: list[_WorkerReport],
        sink: EventSink,
    ) -> RunResult:
        """Fuse per-worker reports into one :class:`RunResult` on a
        common clock (`perf_counter` is system-wide on the platforms we
        run on, so worker timestamps are directly comparable)."""
        global_t0 = min(r.t0 for r in reports)
        record_lists: list[list[OpRecord]] = []
        for r in reports:
            shift = r.t0 - global_t0
            record_lists.append([
                OpRecord(
                    op=rec.op, stage=rec.stage,
                    start=rec.start + shift, end=rec.end + shift,
                )
                for rec in r.records
            ])
        comms = CommLog()
        for r in reports:
            for (src, dst), count in r.comms.messages.items():
                comms.messages[(src, dst)] = (
                    comms.messages.get((src, dst), 0) + count
                )
            comms.bytes_total += r.comms.bytes_total
        loss = 0.0
        for r in reports:
            loss += r.loss
        result = RunResult(
            loss=loss,
            stage_stats=[r.stats for r in reports],
            ops_executed=sum(r.stats.ops_executed for r in reports),
            comms=comms,
            schedule_name=schedule.name,
            problem=problem,
            wall_seconds=max(r.t0 - global_t0 + r.wall for r in reports),
            stage_record_lists=record_lists,
            executor="parallel",
        )
        if sink.enabled:
            from repro.obs.record import record_iteration

            record_iteration(result, sink)
        return result
