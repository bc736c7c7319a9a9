"""Static FIFO channel-order checking (CH rules).

The single-process runtimes in this repository deliver cross-stage
tensors through keyed mailboxes, so any dependency-consistent
interleaving executes.  A real multi-process deployment is stricter:
each directed stage pair is a FIFO channel (a CUDA stream feeding a
NIC queue, an MPI/NCCL point-to-point ordering), sends happen in the
sender's program order, and receives block in the receiver's program
order.  A schedule whose receive order inverts its send order then
deadlocks — or silently hands the wrong tensor to a kernel — even
though the op-level dependency graph is acyclic.  This is the schedule
analogue of a data race: invisible under one legal interleaving,
fatal under another.

The model: every cross-stage dependency edge ``dep -> op`` is one
message on the channel ``(stage(dep), stage(op), payload kind)``.
Forward activations and backward gradients travel on separate channels
(distinct tags/streams, as in the runtime's ``forward``/``backward``
mailboxes and in Megatron-style p2p communication).  Within one
channel the send sequence and the receive sequence must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.schedules.base import OpId, OpKind, Schedule
from repro.schedules.graph import ScheduleGraph, channel_table
from repro.schedules.verify.deps import ScheduleIndex, _positions_of
from repro.schedules.verify.diagnostics import Finding

#: Cap on reorder findings per channel, to keep reports readable when a
#: whole phase of a program is shifted.
_MAX_REORDERS_PER_CHANNEL = 3


@dataclass(frozen=True)
class _Message:
    """One cross-stage tensor transfer implied by a dependency edge."""

    src: OpId  #: producing op (the send happens when it completes)
    dst: OpId  #: consuming op (the receive blocks until it arrives)
    send_pos: int  #: index of ``src`` in the sender's program
    recv_pos: int  #: index of ``dst`` in the receiver's program


def _channels_from_graph(
    graph: ScheduleGraph,
) -> dict[tuple[int, int, OpKind], list[_Message]]:
    """Message lists for exactly the channels holding a FIFO reorder.

    The graph's :func:`~repro.schedules.graph.channel_table` lists each
    channel's messages in send order, and dense op indices are program
    order, so a channel is *dirty* iff its consumers ever step back.
    Clean channels contribute no CH001 findings, so omitting them
    leaves :func:`check_channels`'s output unchanged; only the (rare)
    dirty channels get their ``_Message`` lists built, with the few
    ``OpId``\\ s the findings name decoded on demand — the full ops
    tuple is never materialized.
    """
    pos = graph.pos
    channels: dict[tuple[int, int, OpKind], list[_Message]] = {}
    for (src_stage, dst_stage, kind), (src_ops, dst_ops, _edges) in (
        channel_table(graph).items()
    ):
        if (np.diff(dst_ops) < 0).any():
            channels[(src_stage, dst_stage, OpKind(kind))] = [
                _Message(graph.op_at(j), graph.op_at(i), pos[j], pos[i])
                for j, i in zip(src_ops.tolist(), dst_ops.tolist())
            ]
    return channels


def check_channels(
    schedule: Schedule,
    index: ScheduleIndex,
    graph: ScheduleGraph | None = None,
) -> list[Finding]:
    """FIFO order and send/recv matching for every stage-pair channel.

    A compiled ``graph`` certifies every op is present exactly once, so
    the unmatched-endpoint rules (CH002/CH003) cannot fire and only the
    FIFO order (CH001) needs checking — over the flat edge arrays.
    """
    if graph is not None:
        findings: list[Finding] = []
        for (src_stage, dst_stage, kind), messages in sorted(
            _channels_from_graph(graph).items(),
            key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value),
        ):
            findings.extend(
                _check_fifo(src_stage, dst_stage, kind, messages)
            )
        return findings
    problem = schedule.problem
    positions = index.positions or _positions_of(schedule)
    findings: list[Finding] = []
    channels: dict[tuple[int, int, OpKind], list[_Message]] = {}

    # One pass over present ops: each cross-stage dependency edge is a
    # message; unmatched endpoints are reported immediately.
    for op, (op_stage, op_pos) in positions.items():
        for dep in problem.deps(op):
            if not problem.is_cross_stage(dep, op):
                continue
            if dep not in positions:
                findings.append(
                    Finding(
                        "CH002",
                        f"{op} waits for a tensor from {dep}, which is "
                        f"not scheduled anywhere; the receive blocks "
                        f"forever",
                        stage=op_stage,
                        op=op,
                    )
                )
                continue
            dep_stage, dep_pos = positions[dep]
            key = (dep_stage, op_stage, dep.kind)
            channels.setdefault(key, []).append(
                _Message(dep, op, dep_pos, op_pos)
            )

    # The reverse direction: a present producer whose cross-stage
    # consumer is absent leaves a message in the channel forever.
    for op, (op_stage, _) in positions.items():
        for consumer in _cross_stage_consumers(problem, op):
            if consumer not in positions:
                findings.append(
                    Finding(
                        "CH003",
                        f"{op} sends a tensor to {consumer}, which is "
                        f"not scheduled anywhere; the message is never "
                        f"consumed",
                        stage=op_stage,
                        op=op,
                    )
                )

    for (src_stage, dst_stage, kind), messages in sorted(
        channels.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value)
    ):
        findings.extend(
            _check_fifo(src_stage, dst_stage, kind, messages)
        )
    return findings


def _check_fifo(
    src_stage: int, dst_stage: int, kind: OpKind, messages: list[_Message]
) -> list[Finding]:
    """Receive order must match send order on one FIFO channel."""
    findings: list[Finding] = []
    by_recv = sorted(messages, key=lambda m: m.recv_pos)
    prev = by_recv[0]
    for msg in by_recv[1:]:
        if msg.send_pos < prev.send_pos:
            name = f"stage {src_stage} -> stage {dst_stage} ({kind.value})"
            findings.append(
                Finding(
                    "CH001",
                    f"FIFO reorder on channel {name}: {msg.src}->{msg.dst} "
                    f"is sent before {prev.src}->{prev.dst} but received "
                    f"after it",
                    stage=dst_stage,
                    op=msg.dst,
                    witness=(
                        f"send order on stage {src_stage}: "
                        f"{msg.src} (#{msg.send_pos}) before "
                        f"{prev.src} (#{prev.send_pos})",
                        f"recv order on stage {dst_stage}: "
                        f"{prev.dst} (#{prev.recv_pos}) before "
                        f"{msg.dst} (#{msg.recv_pos})",
                        "an in-order receiver blocks on the first message "
                        "while the channel head holds the second",
                    ),
                )
            )
            if len(findings) >= _MAX_REORDERS_PER_CHANNEL:
                break
        else:
            prev = msg
    return findings


def _cross_stage_consumers(problem, op: OpId):
    """Ops that receive a cross-stage tensor produced by ``op``.

    Mirrors :meth:`PipelineProblem.deps` from the producer side; only
    F and B ops ever feed a different stage (W output is local).
    """
    mb, sl, c = op.microbatch, op.slice_idx, op.chunk
    if op.kind is OpKind.F and c < problem.num_chunks - 1:
        nxt = OpId(OpKind.F, mb, sl, c + 1)
        if problem.is_cross_stage(op, nxt):
            yield nxt
    elif op.kind is OpKind.B and c > 0:
        nxt = OpId(OpKind.B, mb, sl, c - 1)
        if problem.is_cross_stage(op, nxt):
            yield nxt
