"""Event primitives of the telemetry bus.

Everything the library observes — simulated op timelines, real
wall-clock execution, profiler measurements, planner sweep progress —
is expressed as one small vocabulary of events:

* **span** — a named interval ``[ts, ts + dur)`` on a track
  (``pid``/``tid``; by convention ``tid`` is the pipeline stage).
* **instant** — a point event (channel send/recv, cache hit, skip).
* **counter** — a sampled numeric series (activation bytes, bubble
  ratio, cache hits).
* **meta** — track naming (``thread_name`` / ``process_name``).

Sinks receive the events; :mod:`repro.obs.sinks` provides in-memory
collection, JSONL streaming, and Chrome-trace export, and the
:data:`NULL_SINK` here makes uninstrumented runs effectively free:
every instrumentation site guards on ``sink.enabled`` before building
any event, so the disabled path costs one attribute load and branch.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

#: Frozen, deterministic representation of event arguments.
ArgItems = tuple[tuple[str, object], ...]

#: The event kinds of the bus (the ``Event.kind`` values).
EVENT_KINDS = ("span", "instant", "counter", "meta")


class ObsError(RuntimeError):
    """Misuse of the telemetry API (e.g. unbalanced ``begin``/``end``)."""


def _freeze_args(args: Mapping[str, object] | ArgItems | None) -> ArgItems:
    if not args:
        return ()
    if isinstance(args, tuple):
        return args
    return tuple(args.items())


@dataclass(frozen=True)
class Event:
    """One telemetry event.

    Attributes:
        kind: ``"span"`` / ``"instant"`` / ``"counter"`` / ``"meta"``.
        name: Event name (op tag, counter name, or the meta key
            ``thread_name`` / ``process_name``).
        ts: Timestamp in the emitting substrate's time base — simulated
            time units for the simulator, seconds since iteration start
            for the runtime/profiler/planner.
        dur: Span length (spans only).
        tid: Track within the process; by convention the pipeline stage.
        pid: Process/row group; used to lay a simulated and an executed
            iteration side by side in one trace.
        cat: Category (op kind ``F``/``B``/``W``, ``eval``, ...).
        value: Counter sample (counters only).
        args: Frozen key/value payload.
    """

    kind: str
    name: str
    ts: float = 0.0
    dur: float = 0.0
    tid: int = 0
    pid: int = 0
    cat: str = ""
    value: float = 0.0
    args: ArgItems = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ObsError(f"unknown event kind {self.kind!r}")
        if not isinstance(self.args, tuple):  # accept a plain mapping
            object.__setattr__(self, "args", _freeze_args(self.args))

    def arg(self, key: str) -> object:
        """Payload value for ``key`` (``None`` when absent)."""
        for k, v in self.args:
            if k == key:
                return v
        return None

    @property
    def end(self) -> float:
        """Span end time ``ts + dur``."""
        return self.ts + self.dur

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (see :func:`Event.from_dict`)."""
        out: dict[str, object] = {
            "kind": self.kind,
            "name": self.name,
            "ts": self.ts,
            "dur": self.dur,
            "tid": self.tid,
            "pid": self.pid,
            "cat": self.cat,
            "value": self.value,
        }
        if self.args:
            out["args"] = dict(self.args)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> Event:
        """Inverse of :meth:`to_dict` (JSONL round-trip)."""
        args = data.get("args")
        if args is not None and not isinstance(args, Mapping):
            raise ObsError(f"event args must be a mapping, got {type(args)}")
        return cls(
            kind=str(data["kind"]),
            name=str(data["name"]),
            ts=float(data.get("ts", 0.0)),  # type: ignore[arg-type]
            dur=float(data.get("dur", 0.0)),  # type: ignore[arg-type]
            tid=int(data.get("tid", 0)),  # type: ignore[arg-type]
            pid=int(data.get("pid", 0)),  # type: ignore[arg-type]
            cat=str(data.get("cat", "")),
            value=float(data.get("value", 0.0)),  # type: ignore[arg-type]
            args=_freeze_args(args),
        )


@runtime_checkable
class EventSink(Protocol):
    """What every telemetry consumer implements.

    ``enabled`` lets instrumentation sites skip event construction
    entirely when nothing is listening; ``emit`` receives each event,
    and the span/instant/counter primitives are conveniences layered on
    it (:class:`Sink` provides them; subclass it rather than
    implementing the protocol from scratch).
    """

    enabled: bool

    def emit(self, event: Event) -> None: ...

    def span(
        self,
        name: str,
        *,
        ts: float,
        dur: float,
        tid: int = 0,
        pid: int = 0,
        cat: str = "",
        args: Mapping[str, object] | ArgItems | None = None,
    ) -> None: ...

    def begin(
        self,
        name: str,
        *,
        ts: float,
        tid: int = 0,
        pid: int = 0,
        cat: str = "",
        args: Mapping[str, object] | ArgItems | None = None,
    ) -> None: ...

    def end(self, *, ts: float, tid: int = 0, pid: int = 0) -> None: ...

    def instant(
        self,
        name: str,
        *,
        ts: float,
        tid: int = 0,
        pid: int = 0,
        cat: str = "",
        args: Mapping[str, object] | ArgItems | None = None,
    ) -> None: ...

    def counter(
        self,
        name: str,
        value: float,
        *,
        ts: float,
        tid: int = 0,
        pid: int = 0,
    ) -> None: ...

    def thread_name(self, tid: int, name: str, *, pid: int = 0) -> None: ...

    def process_name(self, pid: int, name: str) -> None: ...


@dataclass
class _OpenSpan:
    name: str
    ts: float
    cat: str
    args: ArgItems


class Sink:
    """Base sink: ``emit`` is abstract, the primitives are provided.

    ``begin``/``end`` maintain a per-``(pid, tid)`` stack and emit one
    complete span when the matching ``end`` arrives, so nested begins
    always produce properly nested spans (children are emitted before
    their parents and are contained in them).
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._open: dict[tuple[int, int], list[_OpenSpan]] = {}

    # -- transport ------------------------------------------------------
    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/finalize; open ``begin`` spans are an error."""
        leftover = sum(len(v) for v in self._open.values())
        if leftover:
            raise ObsError(f"{leftover} span(s) still open at close")

    def __enter__(self) -> Sink:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- primitives -----------------------------------------------------
    def span(
        self,
        name: str,
        *,
        ts: float,
        dur: float,
        tid: int = 0,
        pid: int = 0,
        cat: str = "",
        args: Mapping[str, object] | ArgItems | None = None,
    ) -> None:
        """Emit a complete span."""
        self.emit(
            Event(
                kind="span", name=name, ts=ts, dur=dur, tid=tid, pid=pid,
                cat=cat, args=_freeze_args(args),
            )
        )

    def begin(
        self,
        name: str,
        *,
        ts: float,
        tid: int = 0,
        pid: int = 0,
        cat: str = "",
        args: Mapping[str, object] | ArgItems | None = None,
    ) -> None:
        """Open a span; the matching :meth:`end` emits it."""
        stack = self._open.setdefault((pid, tid), [])
        stack.append(_OpenSpan(name=name, ts=ts, cat=cat, args=_freeze_args(args)))

    def end(self, *, ts: float, tid: int = 0, pid: int = 0) -> None:
        """Close the innermost open span on ``(pid, tid)``."""
        stack = self._open.get((pid, tid))
        if not stack:
            raise ObsError(f"end without begin on pid={pid} tid={tid}")
        top = stack.pop()
        if ts < top.ts:
            raise ObsError(
                f"span {top.name!r} ends at {ts} before it begins at {top.ts}"
            )
        self.span(
            top.name, ts=top.ts, dur=ts - top.ts, tid=tid, pid=pid,
            cat=top.cat, args=top.args,
        )

    def instant(
        self,
        name: str,
        *,
        ts: float,
        tid: int = 0,
        pid: int = 0,
        cat: str = "",
        args: Mapping[str, object] | ArgItems | None = None,
    ) -> None:
        """Emit a point event."""
        self.emit(
            Event(
                kind="instant", name=name, ts=ts, tid=tid, pid=pid, cat=cat,
                args=_freeze_args(args),
            )
        )

    def counter(
        self,
        name: str,
        value: float,
        *,
        ts: float,
        tid: int = 0,
        pid: int = 0,
    ) -> None:
        """Emit one sample of a numeric series."""
        self.emit(
            Event(kind="counter", name=name, ts=ts, tid=tid, pid=pid, value=value)
        )

    def thread_name(self, tid: int, name: str, *, pid: int = 0) -> None:
        """Name a track (Chrome ``thread_name`` metadata)."""
        self.emit(
            Event(
                kind="meta", name="thread_name", tid=tid, pid=pid,
                args=(("name", name),),
            )
        )

    def process_name(self, pid: int, name: str) -> None:
        """Name a process row group (Chrome ``process_name`` metadata)."""
        self.emit(
            Event(kind="meta", name="process_name", pid=pid, args=(("name", name),))
        )


class NullSink(Sink):
    """Discards everything; ``enabled`` is ``False``.

    Instrumented code guards on ``sink.enabled``, so with this sink the
    telemetry layer reduces to one attribute check per site (what an
    enabled :class:`MemorySink` costs instead is the benchmark's
    ``obs.memory_sink_overhead_ratio``, see ``bench/README.md``).
    """

    enabled = False

    def emit(self, event: Event) -> None:
        pass


#: Shared no-op sink — the default everywhere instrumentation is wired.
NULL_SINK = NullSink()
