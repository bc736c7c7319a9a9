"""The one memo of built schedules, behind ``build_schedule``.

A schedule is a pure function of ``(method, problem, cost model, f)``;
:func:`repro.schedules.methods.build_schedule` keys this process-wide
LRU on exactly those inputs, so every caller shares one construction —
the *same* :class:`~repro.schedules.base.Schedule` object — per distinct
input.  Pool workers each hold their own.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

from repro.schedules.base import Schedule

#: Version tag of the greedy generation engine.  Bump whenever the
#: engine's output could change for the same inputs; the planner folds
#: it into SweepCache eval fingerprints.
GENERATOR_VERSION = "greedy-dense-1"

#: LRU capacity: one whole search, so its frontier confirmation finds
#: what its analytic pass built.  The largest ``evaluated`` count of any
#: single ``search_method`` call on the benchmark and experiment-registry
#: traffic is 35 (Figure 10, 7B × MEPipe).
_MAXSIZE = 64

_lock = threading.Lock()
_store: OrderedDict[Hashable, Schedule] = OrderedDict()
_counts = {"hits": 0, "misses": 0}


def get(key: Hashable) -> Schedule | None:
    """Look up a prior construction; counts a hit or a miss."""
    with _lock:
        schedule = _store.get(key)
        _counts["misses" if schedule is None else "hits"] += 1
        if schedule is not None:
            _store.move_to_end(key)
        return schedule


def put(key: Hashable, schedule: Schedule) -> None:
    """Store a construction, evicting the least recently used."""
    with _lock:
        _store[key] = schedule
        while len(_store) > _MAXSIZE:
            _store.popitem(last=False)


def stats() -> dict[str, int]:
    """Current counters: hits, misses, size."""
    with _lock:
        return {**_counts, "size": len(_store)}


def snapshot() -> tuple[int, int]:
    """``(hits, misses)`` — cheap deltas for per-request accounting."""
    with _lock:
        return _counts["hits"], _counts["misses"]


def clear() -> None:
    """Drop all entries and counters."""
    with _lock:
        _store.clear()
        _counts.update(hits=0, misses=0)
