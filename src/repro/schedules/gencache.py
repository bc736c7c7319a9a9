"""Process-wide memoization of greedy schedule generation.

Planner sweeps rebuild the same schedule many times: every
``(method, f)`` variant is generated once per sweep *per cost model*,
but distinct sweep configs frequently share the exact cost **key
tables** — the per-(slice, chunk) durations and per-edge comm times
that are everything the generator reads from a cost model (see
:func:`repro.sim.cost.cost_key_table_fingerprint`).  Two calls with
equal ``(problem, policy, name, key tables)`` are the same
deterministic computation, so they may share one construction.

The cache is a small process-wide LRU.  Worker processes of a planner
pool each hold their own (the parent merges their hit counters back
onto the telemetry bus, see ``repro.planner.parallel``).  Cached
:class:`~repro.schedules.base.Schedule` objects are shared between
callers — the same aliasing contract as the planner's per-process
``_cached_schedule`` memo, which sits above this cache.

Safety argument for the key: the greedy engine's output is a pure
function of (a) the problem structure, (b) the policy knobs, and
(c) the duration/comm values it probes, which for micro-batch-invariant
cost models are exactly the key tables fingerprinted above.  Cost
models that are *not* micro-batch-invariant decline a fingerprint
(``cost_key_table_fingerprint`` returns ``None``) and bypass the cache
entirely — no aliasing is possible.  ``GENERATOR_VERSION`` is folded
into the planner's on-disk ``SweepCache`` fingerprints so persisted
sweep results also invalidate when the generator changes.

Disable with ``REPRO_GEN_CACHE=0`` (or :func:`set_enabled`).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable

from repro.schedules.base import PipelineProblem, Schedule

if TYPE_CHECKING:  # circular with greedy (which consults this cache)
    from repro.schedules.greedy import GreedyPolicy
    from repro.sim.cost import CostModel

#: Version tag of the greedy generation engine.  Bump whenever the
#: engine's output could change for the same inputs; the planner folds
#: it into SweepCache eval fingerprints.
GENERATOR_VERSION = "greedy-dense-1"

#: LRU capacity.  One planner sweep touches a handful of (method, f)
#: variants per problem; 128 comfortably covers the figure grids while
#: bounding residency of the largest 13B schedules.
_MAXSIZE = 128

_lock = threading.Lock()
_store: OrderedDict[Hashable, Schedule] = OrderedDict()
_hits = 0
_misses = 0
_enabled: bool | None = None  # None -> consult the env on first use


def enabled() -> bool:
    """Whether generation caching is on (env knob ``REPRO_GEN_CACHE``)."""
    global _enabled
    if _enabled is None:
        _enabled = os.environ.get("REPRO_GEN_CACHE", "1").lower() not in (
            "0",
            "false",
            "off",
        )
    return _enabled


def set_enabled(value: bool | None) -> None:
    """Force caching on/off; ``None`` re-reads the environment."""
    global _enabled
    _enabled = value


def cache_key(
    problem: PipelineProblem,
    policy: GreedyPolicy,
    name: str,
    cost: CostModel | None,
) -> Hashable | None:
    """Cache key for one generation, or ``None`` if uncacheable.

    ``None`` means the cache must be bypassed: caching is disabled, or
    the cost model declined a key-table fingerprint (it is not
    micro-batch-invariant, so its per-op values cannot be summarized
    by the tables the generator reads).
    """
    if not enabled():
        return None
    from repro.sim.cost import UniformCost, cost_key_table_fingerprint

    cost = cost or UniformCost(problem)
    tables = cost_key_table_fingerprint(problem, cost)
    if tables is None:
        return None
    return (problem, policy, name, tables)


def get(key: Hashable) -> Schedule | None:
    """Look up a prior construction; counts a hit or a miss."""
    global _hits, _misses
    with _lock:
        schedule = _store.get(key)
        if schedule is None:
            _misses += 1
            return None
        _store.move_to_end(key)
        _hits += 1
        return schedule


def put(key: Hashable, schedule: Schedule) -> None:
    """Store a construction, evicting the least recently used."""
    with _lock:
        _store[key] = schedule
        _store.move_to_end(key)
        while len(_store) > _MAXSIZE:
            _store.popitem(last=False)


def stats() -> dict[str, int]:
    """Current counters: hits, misses, size."""
    with _lock:
        return {"hits": _hits, "misses": _misses, "size": len(_store)}


def snapshot() -> tuple[int, int]:
    """``(hits, misses)`` — cheap deltas for per-task accounting."""
    with _lock:
        return _hits, _misses


def record_remote(hits: int, misses: int) -> None:
    """Fold hit/miss counts observed in a worker process into this
    process's counters (the pool workers each hold their own store)."""
    global _hits, _misses
    with _lock:
        _hits += hits
        _misses += misses


def clear() -> None:
    """Drop all entries and counters (tests)."""
    global _hits, _misses
    with _lock:
        _store.clear()
        _hits = 0
        _misses = 0
