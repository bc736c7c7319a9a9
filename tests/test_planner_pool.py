"""The persistent planner worker pool: reuse, faults, shutdown.

These tests drive :mod:`repro.planner.pool` directly with small
picklable functions — real sweeps are exercised through
``evaluate_tasks`` elsewhere — and check the properties the service
relies on: warm reuse across calls, inline fallback when a worker dies
or the pool is replaced under a call, and leak-free shutdown.
"""

import asyncio
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.planner import pool


@pytest.fixture(autouse=True)
def clean_pool():
    """Each test starts with no pool and fresh counters."""
    pool.shutdown()
    pool.reset_stats()
    yield
    pool.shutdown()
    pool.reset_stats()


def _square(x: int) -> int:
    return x * x


def _die_in_worker(x: int) -> int:
    """Kill the hosting process — but only when it is a pool worker, so
    the inline fallback re-run returns normally."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return x + 1


def test_single_job_runs_inline():
    assert pool.run_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]
    stats = pool.stats()
    assert stats["pool_workers"] == 0
    assert stats["worker_reuse"] == 0
    assert stats["worker_cold"] == 0


def test_persistent_pool_is_reused_across_calls():
    first = pool.run_map(_square, [1, 2, 3], jobs=2)
    assert first == [1, 4, 9]
    after_first = pool.stats()
    assert after_first["pool_workers"] == 2
    assert after_first["worker_cold"] == 3
    assert after_first["worker_reuse"] == 0

    second = pool.run_map(_square, [4, 5], jobs=2)
    assert second == [16, 25]
    after_second = pool.stats()
    assert after_second["worker_reuse"] == 2  # served by the warm pool
    assert after_second["pool_workers"] == 2


def test_broken_pool_falls_back_inline():
    results = pool.run_map(_die_in_worker, [10, 20], jobs=2)
    assert results == [11, 21]  # the inline re-run, not garbage
    stats = pool.stats()
    assert stats["pool_faults"] == 1
    # The next call rebuilds the pool and works normally.
    assert pool.run_map(_square, [6], jobs=2) == [36]


def test_pool_replaced_under_a_call_falls_back_inline(monkeypatch):
    """Thread A holds the executor ``_ensure_executor`` returned while a
    concurrent ``jobs=4`` call replaces it and shuts the stale one down;
    A's ``map`` then refuses new work with a plain ``RuntimeError``."""
    stale = ProcessPoolExecutor(max_workers=2)
    stale.shutdown(wait=True)
    monkeypatch.setattr(pool, "_ensure_executor", lambda jobs: (stale, True))
    assert pool.run_map(_square, [3, 4], jobs=2) == [9, 16]
    stats = pool.stats()
    assert stats["pool_faults"] == 1
    assert stats["worker_reuse"] == 0  # nothing ran on the lost pool
    # The next call gets a working pool again.
    monkeypatch.undo()
    assert pool.run_map(_square, [6], jobs=2) == [36]
    assert pool.stats()["pool_workers"] == 2


def test_shutdown_is_idempotent_and_leakfree():
    pool.run_map(_square, [1, 2], jobs=2)
    assert pool.stats()["pool_workers"] == 2
    pool.shutdown()
    pool.shutdown()  # second call is a no-op, not an error
    assert pool.stats()["pool_workers"] == 0
    # No orphaned worker processes survive the shutdown.
    assert multiprocessing.active_children() == []


def test_jobstore_close_shuts_the_pool_down():
    from repro.service.config import ServiceConfig
    from repro.service.jobs import JobStore

    async def scenario() -> None:
        store = JobStore(ServiceConfig())
        pool.run_map(_square, [1, 2], jobs=2)
        assert pool.stats()["pool_workers"] == 2
        await store.close()

    asyncio.run(scenario())
    assert pool.stats()["pool_workers"] == 0
    assert multiprocessing.active_children() == []
