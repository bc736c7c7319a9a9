"""Concrete event sinks: in-memory, JSONL streaming, Chrome trace, tee.

The sink matrix (see ``docs/observability.md``):

============== ======== ======================================== =========
sink           enabled  destination                              use
============== ======== ======================================== =========
``NullSink``   no       nowhere                                  default
``MemorySink`` yes      ``events`` list                          tests, metrics
``JsonlSink``  yes      one JSON object per line                 streaming/logs
``ChromeTraceSink`` yes Chrome/Perfetto JSON file on ``close()`` trace viewers
``QueueSink``  yes      thread-safe queue another thread drains  services
``TeeSink``    yes      fan-out to several sinks                 composition
============== ======== ======================================== =========
"""

from __future__ import annotations

import json
import queue as _queue
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import IO

from repro.obs.events import Event, EventSink, Sink


class MemorySink(Sink):
    """Collects events into a list, in emit order."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def spans(self) -> list[Event]:
        """The span events, in emit order."""
        return [e for e in self.events if e.kind == "span"]

    def counters(self, name: str | None = None) -> list[Event]:
        """Counter samples, optionally filtered by series name."""
        return [
            e
            for e in self.events
            if e.kind == "counter" and (name is None or e.name == name)
        ]


class JsonlSink(Sink):
    """Streams each event as one JSON line to a file or file object."""

    def __init__(self, target: str | Path | IO[str]) -> None:
        super().__init__()
        if isinstance(target, (str, Path)):
            self.path: Path | None = Path(target)
            self._fh: IO[str] = self.path.open("w")
            self._owns = True
        else:
            self.path = None
            self._fh = target
            self._owns = False

    def emit(self, event: Event) -> None:
        # No sort_keys: ``to_dict`` order is already deterministic, and
        # sorting would reorder ``args`` and break exact round-trips.
        self._fh.write(json.dumps(event.to_dict()))
        self._fh.write("\n")

    def close(self) -> None:
        super().close()
        self._fh.flush()
        if self._owns:
            self._fh.close()


def read_jsonl(source: str | Path | Iterable[str]) -> list[Event]:
    """Parse a JSONL event stream back into :class:`Event` objects."""
    lines: Iterator[str]
    if isinstance(source, (str, Path)):
        lines = iter(Path(source).read_text().splitlines())
    else:
        lines = iter(source)
    events: list[Event] = []
    for line in lines:
        line = line.strip()
        if line:
            events.append(Event.from_dict(json.loads(line)))
    return events


class ChromeTraceSink(Sink):
    """Buffers events and writes a Chrome-trace JSON file on ``close``.

    Args:
        path: Output file (open it at https://ui.perfetto.dev).
        time_unit_us: Microseconds per unit of event time — ``1e6``
            when events carry seconds (the runtime), anything for the
            simulator's abstract units.
        other_data: Extra payload for the trace's ``otherData`` block.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        time_unit_us: float = 1e6,
        other_data: Mapping[str, object] | None = None,
    ) -> None:
        super().__init__()
        self.path = Path(path)
        self.time_unit_us = time_unit_us
        self.other_data: dict[str, object] = dict(other_data or {})
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def trace_dict(self) -> dict[str, object]:
        """The Chrome-trace dictionary for the buffered events."""
        from repro.obs.chrome import OP_COLORS, chrome_trace

        return chrome_trace(
            self.events,
            time_unit_us=self.time_unit_us,
            other_data=self.other_data,
            colors=OP_COLORS,
        )

    def close(self) -> None:
        super().close()
        self.path.write_text(json.dumps(self.trace_dict()))


class QueueSink(Sink):
    """Bridges the event bus into a thread-safe queue.

    The emitting side (a planner sweep or simulation running on an
    executor thread) calls the usual sink primitives; a consumer on
    any other thread — e.g. the asyncio service pumping per-job
    progress streams — drains complete events with :meth:`drain`
    without ever blocking the producer.  ``close()`` enqueues a
    ``None`` sentinel; once the consumer has drained it,
    :attr:`finished` is ``True`` and no further events will arrive.
    """

    def __init__(self) -> None:
        super().__init__()
        self._queue: _queue.SimpleQueue[Event | None] = _queue.SimpleQueue()
        #: Set by :meth:`drain` once the close sentinel has been seen.
        self.finished = False

    def emit(self, event: Event) -> None:
        self._queue.put(event)

    def close(self) -> None:
        super().close()
        self._queue.put(None)

    def drain(self) -> list[Event]:
        """Every event enqueued since the last drain (non-blocking)."""
        events: list[Event] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except _queue.Empty:
                return events
            if item is None:
                self.finished = True
                return events
            events.append(item)


class TeeSink(Sink):
    """Forwards every event to several sinks."""

    def __init__(self, *sinks: EventSink) -> None:
        super().__init__()
        self.sinks: tuple[EventSink, ...] = sinks

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)
