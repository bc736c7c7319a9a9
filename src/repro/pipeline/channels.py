"""Zero-copy shared-memory ring channels between pipeline workers.

One :class:`ChannelProtocol` exists per directed cross-stage edge
``(src_stage, dst_stage, payload kind)`` — the exact channel model the
static FIFO verifier (``repro.schedules.verify.channels``, rule CH001)
checks schedules for: sends happen in the sender's program order and
receives block in the receiver's program order.  The transport is a
plain single-producer / single-consumer ring that delivers in send
order; each message's header names the op that produced it.  Where the
two orders disagree — the wrap-channel reorder CH001 only warns about —
the receiving worker keeps a message that arrives ahead of its turn
until its consumer runs (:mod:`repro.pipeline.parallel_runtime`).

The ring lives in one :class:`multiprocessing.shared_memory
.SharedMemory` segment — the sender writes the tensor directly into a
slot and the receiver reads it out of the same pages; no pickling, no
pipe traffic.  Slot hand-off uses two semaphores (``free``/``used``),
the classic SPSC protocol; both ends keep their own local slot index
so no shared counter is needed.  Forked workers inherit the protocol
object (its semaphores with it) and attach to the segment by name.

Every blocking operation takes a timeout (default
:data:`DEFAULT_CHANNEL_TIMEOUT`, overridable via the
``REPRO_CHANNEL_TIMEOUT`` environment variable) and raises
:class:`~repro.schedules.base.ScheduleError` on expiry, so a dead peer
surfaces as a diagnosable error instead of a hang.  Ring sizes are
chosen by the capacity analyzer (:mod:`repro.analysis.capacity`): the
parallel runtime allocates each ring at its certified minimal
deadlock-free capacity by default, falling back to one-slot-per-message
(``capacity_mode="full"``) which makes sends non-blocking.  Bounded
rings can deadlock a schedule the unbounded verifier accepts — rule
CP001 proves per-configuration that they do not.
"""

from __future__ import annotations

import os
from multiprocessing.shared_memory import SharedMemory
from typing import Any, NamedTuple

import numpy as np

from repro.schedules.base import OpId, OpKind, ScheduleError

Array = np.ndarray[Any, np.dtype[Any]]

#: Default seconds any single blocking pipeline step (channel send or
#: recv, start barrier, result collection) may take before the run is
#: aborted with a :class:`ScheduleError`.  Override per-process with
#: the ``REPRO_CHANNEL_TIMEOUT`` environment variable (positive float,
#: in seconds) — e.g. raise it on heavily oversubscribed CI machines.
DEFAULT_CHANNEL_TIMEOUT: float = 60.0


def default_channel_timeout() -> float:
    """The blocking-step timeout, honoring ``REPRO_CHANNEL_TIMEOUT``.

    Raises :class:`ScheduleError` on a malformed or non-positive
    override so a typo'd knob fails loudly instead of silently running
    with the default.
    """
    raw = os.environ.get("REPRO_CHANNEL_TIMEOUT")
    if raw is None:
        return DEFAULT_CHANNEL_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise ScheduleError(
            f"REPRO_CHANNEL_TIMEOUT={raw!r} is not a number"
        ) from None
    if value <= 0.0:
        raise ScheduleError(
            f"REPRO_CHANNEL_TIMEOUT must be a positive number of "
            f"seconds, got {raw!r}"
        )
    return value

#: Per-slot header: (microbatch, slice, chunk, ndim, d0, d1, d2, d3,
#: dtype code, payload nbytes) as int64 — 80 bytes, padded to 128.
_HEADER_INTS = 10
_HEADER_BYTES = 128
_MAX_DIMS = 4

#: Supported payload dtypes (cross-chunk tensors are float activations
#: or gradients; the table is extensible).
_DTYPES: tuple[np.dtype[Any], ...] = (
    np.dtype(np.float64),
    np.dtype(np.float32),
)


def _dtype_code(dtype: np.dtype[Any]) -> int:
    for i, d in enumerate(_DTYPES):
        if d == dtype:
            return i
    raise ScheduleError(f"unsupported channel payload dtype {dtype}")


class ChannelKey(NamedTuple):
    """Identity of one directed cross-stage channel: equal, in hash
    too, to the compiled graph's ``ChannelId`` tuple for it, so graph
    channels and capacity mappings index the runtime's rings as-is."""

    src_stage: int
    dst_stage: int
    kind: str  #: "F" (forward activations) or "B" (activation grads)

    def __str__(self) -> str:
        return f"stage {self.src_stage} -> stage {self.dst_stage} ({self.kind})"


class ChannelProtocol:
    """Descriptor + synchronization of one ring channel.

    Created by the parent (which owns the shared-memory segment and
    unlinks it after the run); inherited by the forked workers, exactly
    two of which use it.  Call :meth:`attach` in the worker to get a
    usable endpoint, and :meth:`close` when done.
    """

    def __init__(
        self,
        key: ChannelKey,
        shm_name: str,
        slots: int,
        slot_payload_bytes: int,
        ctx: Any,
    ) -> None:
        self.key = key
        self.shm_name = shm_name
        self.slots = slots
        self.slot_payload_bytes = slot_payload_bytes
        self.free = ctx.Semaphore(slots)
        self.used = ctx.Semaphore(0)
        self._shm: SharedMemory | None = None
        self._index = 0  # local slot cursor (SPSC: one per endpoint)

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Map the segment into this process.

        Worker processes inherit the parent's ``resource_tracker``, so
        the attach-time registration collapses into the parent's own
        (the tracker keys by name) and the parent's ``unlink`` after
        the run is the single deregistration point — workers must not
        unregister themselves or they race it.
        """
        if self._shm is not None:
            return
        self._shm = SharedMemory(name=self.shm_name)

    def close(self) -> None:
        """Unmap the segment from this process (no unlink)."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    # ------------------------------------------------------------------
    def _slot(self, index: int) -> tuple[Any, Any]:
        assert self._shm is not None, "channel endpoint not attached"
        slot_bytes = _HEADER_BYTES + self.slot_payload_bytes
        base = (index % self.slots) * slot_bytes
        buf = self._shm.buf
        header = np.frombuffer(
            buf, dtype=np.int64, count=_HEADER_INTS, offset=base
        )
        payload = buf[base + _HEADER_BYTES : base + slot_bytes]
        return header, payload

    def send(self, op: OpId, tensor: Array, timeout: float) -> None:
        """Write one message; blocks only when the ring is full."""
        if tensor.nbytes > self.slot_payload_bytes:
            raise ScheduleError(
                f"channel {self.key}: payload of {op} is {tensor.nbytes} "
                f"bytes, slot capacity {self.slot_payload_bytes}")
        if not self.free.acquire(True, timeout):
            raise ScheduleError(
                f"channel {self.key}: send of {op} timed out after "
                f"{timeout:.1f}s (receiver stalled or dead)")
        header, payload = self._slot(self._index)
        arr = np.ascontiguousarray(tensor)
        shape = list(arr.shape) + [0] * (_MAX_DIMS - arr.ndim)
        if arr.ndim > _MAX_DIMS:
            raise ScheduleError(f"channel payload rank {arr.ndim} > {_MAX_DIMS}")
        header[0], header[1], header[2] = op.microbatch, op.slice_idx, op.chunk
        header[3] = arr.ndim
        header[4:4 + _MAX_DIMS] = shape
        header[8] = _dtype_code(arr.dtype)
        header[9] = arr.nbytes
        dst = np.frombuffer(payload, dtype=arr.dtype, count=arr.size)
        np.copyto(dst.reshape(arr.shape), arr)
        self._index += 1
        self.used.release()

    def try_recv(self) -> tuple[OpId, Array] | None:
        """Non-blocking receive of ``(producer, tensor)``; ``None`` when
        no message is ready."""
        if not self.used.acquire(False):
            return None
        return self._take()

    def recv_wait(self, timeout: float) -> tuple[OpId, Array] | None:
        """Blocking receive for up to ``timeout`` seconds."""
        if not self.used.acquire(True, timeout):
            return None
        return self._take()

    def _take(self) -> tuple[OpId, Array]:
        header, payload = self._slot(self._index)
        producer = OpId(OpKind(self.key.kind), *(int(x) for x in header[:3]))
        ndim = int(header[3])
        shape = tuple(int(d) for d in header[4:4 + ndim])
        dtype = _DTYPES[int(header[8])]
        nbytes = int(header[9])
        view = np.frombuffer(payload, dtype=dtype, count=nbytes // dtype.itemsize)
        out: Array = view.reshape(shape).copy()  # copy out before slot reuse
        self._index += 1
        self.free.release()
        return producer, out


def create_channel(
    key: ChannelKey,
    slots: int,
    slot_payload_bytes: int,
    ctx: Any,
    name_prefix: str,
    serial: int,
) -> tuple[ChannelProtocol, SharedMemory]:
    """Allocate one ring channel's segment and protocol object.

    Returns the protocol (for the two endpoint workers) and the
    parent-owned :class:`SharedMemory` handle — the caller must
    ``close()`` and ``unlink()`` it when the run ends, success or not.
    If the protocol's semaphores cannot be made, the segment is unlinked
    here before the error propagates.
    """
    slot_bytes = _HEADER_BYTES + slot_payload_bytes
    shm = SharedMemory(
        create=True, size=max(slots * slot_bytes, 1),
        name=f"{name_prefix}c{serial}",
    )
    try:
        protocol = ChannelProtocol(key, shm.name, slots, slot_payload_bytes, ctx)
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return protocol, shm
