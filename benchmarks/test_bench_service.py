"""Planner-service benchmarks: request latency and dedup throughput.

Times the full wire path — stdlib HTTP client, asyncio parser/router,
job store, handler execution on the worker pool — for the scenarios
the service exists to serve: cheap synchronous analytics (warm p99),
planner sweeps cold vs warm through the shared sweep cache, and a
32-way burst of identical plan requests deduplicated onto one
computation.  Medians ride the same 20% regression gate as every other
benchmark (``benchmarks/compare.py``).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from repro.api import EvaluateRequest, PlanRequest, ShapeSpec
from repro.service import PlannerService, ServiceClient, ServiceConfig

PLAN = PlanRequest(
    model="13b", global_batch_size=32, methods=("mepipe",), max_spp=4
)


class _Server:
    """A planner service on a daemon thread with its own loop."""

    def __init__(self, config: ServiceConfig) -> None:
        self.service = PlannerService(config)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10.0)

    def client(self) -> ServiceClient:
        return ServiceClient(self.service.address)

    def shutdown(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.service.stop(), self.loop
        ).result(30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
        self.loop.close()


def _serve(tmp_path, monkeypatch, **config_kwargs) -> _Server:
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sweep-cache"))
    return _Server(
        ServiceConfig(port=0, request_timeout_s=60.0, **config_kwargs)
    )


def test_bench_service_evaluate_warm_p99(once, tmp_path, monkeypatch):
    """50 sequential evaluate requests over HTTP, after one warm-up.

    The benchmarked value is the whole batch; the p99 (here: worst) of
    the per-request latencies is asserted to stay interactive.
    """
    server = _serve(tmp_path, monkeypatch)
    try:
        client = server.client()
        request = EvaluateRequest(
            method="mepipe", shape=ShapeSpec(slices=4, wgrad_gemms=3)
        )
        assert client.request(request).ok  # warm-up (imports, first GC)

        def batch() -> list[float]:
            latencies = []
            for _ in range(50):
                t0 = perf_counter()
                response = client.request(request)
                latencies.append(perf_counter() - t0)
                assert response.ok
            return latencies

        latencies = once(batch)
        latencies.sort()
        p99 = latencies[int(0.99 * (len(latencies) - 1))]
        assert p99 < 2.0, f"warm evaluate p99 {p99:.3f}s is not interactive"
    finally:
        server.shutdown()


def test_bench_service_plan_cold_then_warm(once, tmp_path, monkeypatch):
    """A real sweep cold, then the identical sweep warm.

    The second request replays from the on-disk sweep cache the service
    shares across requests, so warm must beat cold.
    """
    server = _serve(tmp_path, monkeypatch)
    try:
        client = server.client()

        def cold_then_warm() -> tuple[float, float]:
            t0 = perf_counter()
            first = client.request(PLAN)
            cold = perf_counter() - t0
            t1 = perf_counter()
            second = client.request(PLAN)
            warm = perf_counter() - t1
            assert first.methods[0]["best"] is not None
            assert first.methods == second.methods
            return cold, warm

        cold, warm = once(cold_then_warm)
        assert warm <= cold
    finally:
        server.shutdown()


def test_bench_service_pool_reuse_latency(once, tmp_path, monkeypatch):
    """A parallel plan request served by the warm planner worker pool.

    ``jobs=2`` routes each sweep through the planner process pool; the
    first request pays the spawn, every later one reuses live,
    cache-warm workers — asserted through the pool's own counters.
    """
    from repro.planner import pool

    plan = PlanRequest(
        model="13b", global_batch_size=32, methods=("mepipe",),
        max_spp=4, jobs=2, use_cache=False,
    )
    server = _serve(tmp_path, monkeypatch, use_cache=False)
    try:
        client = server.client()

        def timed_request() -> float:
            t0 = perf_counter()
            response = client.request(plan)
            assert response.methods[0]["best"] is not None
            return perf_counter() - t0

        timed_request()  # warm-up: spawn the pool
        reuse_before = pool.stats()["worker_reuse"]
        once(timed_request)
        assert pool.stats()["worker_reuse"] > reuse_before
    finally:
        server.shutdown()


def test_bench_service_dedup_burst_throughput(once, tmp_path, monkeypatch):
    """32 concurrent identical plan requests -> one computation.

    Times the dedup fast path end to end: 31 of the 32 callers attach
    to the in-flight job and share its result.
    """
    server = _serve(tmp_path, monkeypatch, use_cache=False)
    try:
        client = server.client()
        executed_before = server.service.store.executed

        def burst() -> list[str]:
            with ThreadPoolExecutor(max_workers=32) as pool:
                return list(
                    pool.map(
                        lambda _: client.request(PLAN).to_json(), range(32)
                    )
                )

        bodies = once(burst)
        assert len(set(bodies)) == 1
        assert server.service.store.executed == executed_before + 1
    finally:
        server.shutdown()
