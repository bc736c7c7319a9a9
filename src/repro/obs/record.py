"""Uniform instrumentation of per-iteration results onto the bus.

:func:`record_iteration` turns any :class:`~repro.obs.metrics
.PipelineResult` — a simulated ``SimResult`` or an executed
``RunResult`` — into the same event stream: one named track per
pipeline stage, one span per op, instant send/recv events for every
cross-stage channel message, and per-stage counters.  Because the
derivation only reads the shared protocol, a simulated and an executed
iteration of the same schedule render **row-for-row identically** in a
trace viewer; only the time base (model units vs wall-clock seconds)
differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.obs.events import EventSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedules.base import OpId
    from repro.sim.executor import SimResult


def _channel_tag(op: "OpId", dst_chunk: int) -> str:
    """Stable name of the channel message an op emits."""
    return f"{op.kind.value}{op.microbatch}.{op.slice_idx} c{op.chunk}>c{dst_chunk}"


def record_iteration(
    result: Any,
    sink: EventSink,
    *,
    pid: int = 0,
    process: str | None = None,
    counters: bool = True,
    channel_events: bool = True,
) -> None:
    """Emit one iteration's telemetry into ``sink``.

    Args:
        result: Any :class:`~repro.obs.metrics.PipelineResult` — needs
            ``problem``, ``schedule_name``, and ``stage_records``.
        sink: Destination; a disabled sink returns immediately.
        pid: Process group for the emitted events (lay a simulated and
            an executed iteration side by side with different pids).
        process: Optional process name metadata.
        counters: Also emit the per-stage counter series.
        channel_events: Also emit send/recv instants for cross-stage
            channel messages.
    """
    if not sink.enabled:
        return
    from repro.schedules.base import OpKind

    problem = result.problem
    num_stages = problem.num_stages
    if process is not None:
        sink.process_name(pid, process)

    # One named row per stage, spans in start order — the exact layout
    # the legacy viz.trace exporter produced.
    for stage in range(num_stages):
        sink.thread_name(stage, f"stage {stage}", pid=pid)
        for record in result.stage_records(stage):
            op = record.op
            sink.span(
                str(op),
                ts=record.start,
                dur=record.duration,
                tid=stage,
                pid=pid,
                cat=op.kind.value,
                args={
                    "microbatch": op.microbatch,
                    "slice": op.slice_idx,
                    "chunk": op.chunk,
                },
            )

    if channel_events:
        records = {
            r.op: r
            for s in range(num_stages)
            for r in result.stage_records(s)
        }
        for op, record in records.items():
            if op.kind is OpKind.F and op.chunk < problem.num_chunks - 1:
                dst_chunk = op.chunk + 1
                consumer = _peer_op(op, dst_chunk)
            elif op.kind is OpKind.B and op.chunk > 0:
                dst_chunk = op.chunk - 1
                consumer = _peer_op(op, dst_chunk)
            else:
                continue
            src = problem.stage_of_chunk(op.chunk)
            dst = problem.stage_of_chunk(dst_chunk)
            if src == dst:
                continue
            tag = _channel_tag(op, dst_chunk)
            args = {"src": src, "dst": dst}
            sink.instant(
                f"send {tag}", ts=record.end, tid=src, pid=pid,
                cat="channel", args=args,
            )
            peer = records.get(consumer)
            if peer is not None:
                sink.instant(
                    f"recv {tag}", ts=peer.start, tid=dst, pid=pid,
                    cat="channel", args=args,
                )

    if counters:
        _record_counters(result, sink, pid)


def _peer_op(op: "OpId", chunk: int) -> "OpId":
    """The same (kind, microbatch, slice) coordinate on another chunk."""
    from repro.schedules.base import OpId

    return OpId(op.kind, op.microbatch, op.slice_idx, chunk)


def _record_counters(result: Any, sink: EventSink, pid: int) -> None:
    """Per-stage counter series, from whichever stats the result has."""
    problem = result.problem
    stages = getattr(result, "stages", None)
    if stages is not None:  # SimResult: ledger units and sim-time ratios
        from repro.viz.memory import activation_series

        makespan = result.makespan
        for metric in stages:
            s = metric.stage
            for ts, units in activation_series(result, s):
                sink.counter("activation_units", units, ts=ts, tid=s, pid=pid)
            sink.counter("busy_time", metric.busy_time, ts=makespan, tid=s, pid=pid)
            sink.counter(
                "bubble_ratio", result.stage_bubble_ratio(s),
                ts=makespan, tid=s, pid=pid,
            )
            sink.counter(
                "peak_activation_units", metric.peak_activation_units,
                ts=makespan, tid=s, pid=pid,
            )
    stage_stats = getattr(result, "stage_stats", None)
    if stage_stats is not None:  # RunResult: measured bytes and wall clock
        wall = result.wall_seconds
        for stat in stage_stats:
            s = stat.stage
            sink.counter(
                "peak_live_bytes", float(stat.peak_live_bytes),
                ts=wall, tid=s, pid=pid,
            )
            sink.counter(
                "peak_live_contexts", float(stat.peak_live_contexts),
                ts=wall, tid=s, pid=pid,
            )
            sink.counter(
                "busy_seconds", stat.busy_seconds, ts=wall, tid=s, pid=pid
            )
            if getattr(result, "executor", "serial") == "parallel":
                # Only a multi-process execution measures these: time the
                # worker spent blocked on channel receives, and W-op
                # compute performed while such a receive was pending.
                sink.counter(
                    "wait_seconds", stat.wait_seconds, ts=wall, tid=s, pid=pid
                )
                sink.counter(
                    "overlap_w_seconds", stat.overlap_w_seconds,
                    ts=wall, tid=s, pid=pid,
                )
    comms = getattr(result, "comm_volume", None)
    if comms is not None:
        end_ts = getattr(result, "makespan", None)
        if end_ts is None:
            end_ts = getattr(result, "wall_seconds", 0.0)
        sink.counter("comm_messages", float(comms.message_count), ts=end_ts, pid=pid)
        sink.counter("comm_bytes", float(comms.bytes_total), ts=end_ts, pid=pid)


def record_sim_comm(result: "SimResult", sink: EventSink, *, pid: int = 0) -> None:
    """Per-stage comm/overlap counters for a simulated iteration.

    Computed post-replay (never on the uninstrumented path): per stage,
    the total modeled transfer time on incoming cross-stage edges
    (``comm_time``), and the portion of it that cannot be hiding in the
    stage's idle time (``comm_overlap_time`` — a lower bound on the
    comm/compute overlap the schedule achieves).  The transfer times are
    the replay's own ``result.times.comm``, added in edge order.
    """
    if not sink.enabled:
        return
    times = result.times
    assert times is not None  # simulate always keeps the replay's table
    graph = times.graph
    stage, pred = np.asarray(graph.stage), np.asarray(graph.pred)
    indptr = graph.pred_indptr
    comm_in: list[float] = []
    for s, (lo, hi) in enumerate(graph.stage_bounds):
        edges = slice(indptr[lo], indptr[hi])
        incoming = times.comm[edges][stage[pred[edges]] != s]
        # add.accumulate is strictly sequential, like a loop of ``+=``.
        comm_in.append(
            float(np.add.accumulate(incoming)[-1]) if incoming.size else 0.0
        )
    makespan = result.makespan
    for metric in result.stages:
        s = metric.stage
        idle = max(makespan - metric.busy_time, 0.0)
        overlapped = max(comm_in[s] - idle, 0.0)
        sink.counter("comm_time", comm_in[s], ts=makespan, tid=s, pid=pid)
        sink.counter(
            "comm_overlap_time", overlapped, ts=makespan, tid=s, pid=pid
        )
