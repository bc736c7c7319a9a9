"""Long-lived planner worker pool.

The planner's parallel tier used to spin up a fresh
``ProcessPoolExecutor`` for every sweep.  That pays the process-spawn
cost per sweep *and* — worse — throws away every worker-side cache
each time: the per-process schedule/prelude/bounds memos a worker
populated while evaluating one sweep were gone before the next request
arrived.  For the planning service, whose hot path is many small
sweeps arriving over time, the repeated spawn + cache-cold cost
dominated cold-request latency.

This module keeps **one** process pool alive for the whole process and
shares it across every ``search_method`` call and every service
request.  Workers therefore accumulate warm caches across dispatches —
the second sweep that touches a cell a worker has seen gets its
schedule (and the graph and topological plan cached on it) from memory.

Fault handling: a pool that cannot take the call — broken (a worker
killed under us) or already shut down (replaced by a concurrent call
that needed more workers) — is disposed and the affected call falls
back to deterministic inline execution, so a lost pool degrades
throughput, never results.  ``shutdown()`` is the kill switch:
idempotent, registered via ``atexit``, and called by the service's
``JobStore.close`` so stopping the service never leaks worker
processes.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

_lock = threading.Lock()
_executor: ProcessPoolExecutor | None = None
_executor_workers = 0
#: Tasks served by a pool that already existed when the call arrived
#: (the measure of warm-worker reuse the obs bus surfaces).
_reuse_tasks = 0
#: Tasks that created (or re-created) the pool.
_cold_tasks = 0
#: Lost-pool incidents survived by falling back inline.
_faults = 0


def _ensure_executor(jobs: int) -> tuple[ProcessPoolExecutor, bool]:
    """The shared executor, created or grown to ``jobs`` workers.

    Returns ``(executor, warm)`` where ``warm`` says the pool already
    existed with enough workers — the reuse the pool exists for.
    A pool that is too small is replaced (executors cannot grow), which
    counts as cold.
    """
    global _executor, _executor_workers
    with _lock:
        if _executor is not None and _executor_workers >= jobs:
            return _executor, True
        stale = _executor
        _executor = ProcessPoolExecutor(max_workers=jobs)
        _executor_workers = jobs
    if stale is not None:
        stale.shutdown(wait=True)
    return _executor, False


def _dispose(broken: ProcessPoolExecutor) -> None:
    """Drop a lost executor (best-effort teardown, never raises)."""
    global _executor, _executor_workers
    with _lock:
        if _executor is broken:
            _executor = None
            _executor_workers = 0
    try:
        broken.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def run_map(
    fn: Callable[[_T], _R], items: Sequence[_T], jobs: int
) -> list[_R]:
    """``[fn(item) for item in items]`` on the planner worker pool.

    Order-preserving and result-deterministic: the pool only changes
    *where* each item runs.  A pool lost mid-call — broken (a worker
    killed) or shut down under us (a concurrent call with a larger
    ``jobs`` replaced it; ``map`` then raises ``RuntimeError``) — falls
    back to inline execution of the whole call — the items are pure
    functions, so re-running them is safe.
    """
    global _reuse_tasks, _cold_tasks, _faults
    if not items:
        return []
    if jobs <= 1:
        return [fn(item) for item in items]
    executor, warm = _ensure_executor(jobs)
    try:
        # ``map`` submits every item before it returns, so a pool shut
        # down under us refuses here (a plain RuntimeError), before any
        # item's own exception could be mistaken for it.
        pending = executor.map(fn, items)
    except RuntimeError:
        pending = None
    try:
        results = None if pending is None else list(pending)
    except BrokenProcessPool:
        results = None
    if results is None:
        _dispose(executor)
        with _lock:
            _faults += 1
        return [fn(item) for item in items]
    with _lock:
        if warm:
            _reuse_tasks += len(items)
        else:
            _cold_tasks += len(items)
    return results


def stats() -> dict[str, int]:
    """Counters for the obs bus: reuse/cold task counts, faults, size."""
    with _lock:
        return {
            "worker_reuse": _reuse_tasks,
            "worker_cold": _cold_tasks,
            "pool_faults": _faults,
            "pool_workers": _executor_workers if _executor is not None else 0,
        }


def reset_stats() -> None:
    """Zero the counters (tests)."""
    global _reuse_tasks, _cold_tasks, _faults
    with _lock:
        _reuse_tasks = 0
        _cold_tasks = 0
        _faults = 0


def shutdown() -> None:
    """Tear down the shared pool (idempotent; also runs at exit)."""
    global _executor, _executor_workers
    with _lock:
        executor = _executor
        _executor = None
        _executor_workers = 0
    if executor is not None:
        executor.shutdown(wait=True)


atexit.register(shutdown)
