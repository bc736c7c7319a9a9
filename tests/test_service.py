"""The planner service: HTTP endpoints, jobs, dedup, quotas, deadlines.

The server runs in a background thread on its own asyncio loop with an
OS-assigned port; tests talk to it through :class:`ServiceClient` —
the same stdlib transport ``repro client`` uses — so these tests cover
the full wire path (parser, router, job store, SSE framing).
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import api
from repro.obs import Event, QueueSink
from repro.schedules.base import ScheduleError
from repro.service import (
    PlannerService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    default_request_timeout,
)
from repro.service import jobs as jobs_module

#: A real-but-fast planner sweep (~0.1 s): small grid, no disk cache.
SMALL_PLAN = api.PlanRequest(
    model="13b",
    global_batch_size=32,
    methods=("mepipe",),
    max_spp=4,
    use_cache=False,
)


# ----------------------------------------------------------------------
# Timeout knob precedence (satellite: REPRO_CHANNEL_TIMEOUT threading)
# ----------------------------------------------------------------------
class TestTimeoutPrecedence:
    def test_default_is_the_channel_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_REQUEST_TIMEOUT", raising=False)
        monkeypatch.delenv("REPRO_CHANNEL_TIMEOUT", raising=False)
        assert default_request_timeout() == 60.0

    def test_channel_timeout_flows_through(self, monkeypatch):
        monkeypatch.delenv("REPRO_REQUEST_TIMEOUT", raising=False)
        monkeypatch.setenv("REPRO_CHANNEL_TIMEOUT", "17")
        assert default_request_timeout() == 17.0

    def test_request_timeout_beats_channel_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHANNEL_TIMEOUT", "17")
        monkeypatch.setenv("REPRO_REQUEST_TIMEOUT", "9")
        assert default_request_timeout() == 9.0

    def test_explicit_config_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_REQUEST_TIMEOUT", "9")
        config = ServiceConfig(request_timeout_s=3.0)
        assert config.request_timeout_s == 3.0

    def test_config_resolves_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_REQUEST_TIMEOUT", raising=False)
        monkeypatch.setenv("REPRO_CHANNEL_TIMEOUT", "21")
        assert ServiceConfig().request_timeout_s == 21.0

    @pytest.mark.parametrize("raw", ["soon", "-1", "0"])
    def test_malformed_override_fails_loudly(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_REQUEST_TIMEOUT", raw)
        with pytest.raises(ScheduleError):
            default_request_timeout()


# ----------------------------------------------------------------------
# QueueSink: the obs-bus -> asyncio bridge
# ----------------------------------------------------------------------
class TestQueueSink:
    def test_drain_is_non_blocking_and_ordered(self):
        sink = QueueSink()
        assert sink.drain() == []
        events = [
            Event(kind="instant", name=f"e{i}", ts=float(i))
            for i in range(3)
        ]
        for event in events:
            sink.emit(event)
        assert sink.drain() == events
        assert not sink.finished

    def test_close_sentinel_sets_finished(self):
        sink = QueueSink()
        sink.emit(Event(kind="instant", name="tail", ts=0.0))
        sink.close()
        drained = sink.drain()
        assert [e.name for e in drained] == ["tail"]
        assert sink.finished

    def test_cross_thread_handoff(self):
        sink = QueueSink()

        def producer():
            for i in range(100):
                sink.emit(Event(kind="instant", name=f"p{i}", ts=float(i)))
            sink.close()

        thread = threading.Thread(target=producer)
        thread.start()
        seen: list[Event] = []
        while not sink.finished:
            seen.extend(sink.drain())
        thread.join()
        assert [e.name for e in seen] == [f"p{i}" for i in range(100)]


# ----------------------------------------------------------------------
# The live server
# ----------------------------------------------------------------------
class ServiceHarness:
    """A PlannerService on a daemon thread with its own event loop."""

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
        assert started.wait(10.0), "service did not start"

    @property
    def store(self):
        return self.service.store

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(self.service.address, **kwargs)

    def shutdown(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(), self.loop
        )
        future.result(30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
        self.loop.close()


@pytest.fixture()
def harness(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sweep-cache"))
    h = ServiceHarness(
        ServiceConfig(port=0, request_timeout_s=30.0, max_workers=8)
    )
    yield h
    h.shutdown()


def raw_post(harness: ServiceHarness, request: api.Request) -> tuple[int, bytes]:
    """POST ``request`` synchronously; the reply's status and raw bytes."""
    config = harness.service.config
    conn = http.client.HTTPConnection(config.host, config.port, timeout=60.0)
    try:
        conn.request(
            "POST", f"/v1/{request.KIND}", body=request.to_json().encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestHttpEndpoints:
    def test_healthz(self, harness):
        data = harness.client().health()
        assert data["ok"] is True
        assert data["schema_version"] == api.SCHEMA_VERSION
        assert set(data["stats"]) == {
            "jobs",
            "inflight",
            "dedup_hits",
            "executed",
            "worker_reuse",
        }

    def test_sync_response_matches_local_execute(self, harness):
        request = api.EvaluateRequest(
            method="mepipe", shape=api.ShapeSpec(slices=4, wgrad_gemms=3)
        )
        remote = harness.client().request(request)
        local = api.execute(request)
        assert remote == local
        assert remote.to_json() == local.to_json()

    def test_every_kind_is_routable(self, harness):
        client = harness.client()
        for request in (
            api.VerifyRequest(method="mepipe"),
            api.CheckModelRequest(method="mepipe"),
            api.EvaluateRequest(method="zb"),
            api.CapacityRequest(method="zbv"),
            api.SimulateRequest(method="dapple"),
        ):
            response = client.request(request)
            assert response.ok, request.KIND
            assert response.to_dict()["schema_version"] == api.SCHEMA_VERSION

    def test_unknown_method_maps_to_400(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client().request(api.EvaluateRequest(method="nosuch"))
        assert excinfo.value.status == 400
        assert excinfo.value.error.code == "unknown-method"
        assert excinfo.value.error.ok is False
        # A deleted evaluator name is an unknown one, not an alias.
        with pytest.raises(ServiceError) as excinfo:
            harness.client().request(api.PlanRequest(evaluator="tiered"))
        assert excinfo.value.status == 400
        assert excinfo.value.error.code == "unknown-evaluator"

    @pytest.mark.parametrize(
        "fields,code",
        [
            ({"methods": ("mepipe", "bogus")}, "unknown-method"),
            ({"global_batch_size": -8}, "invalid-plan"),
            ({"global_batch_size": 0}, "invalid-plan"),
        ],
        ids=lambda v: str(v),
    )
    def test_invalid_plan_is_refused_before_any_sweep(
        self, harness, monkeypatch, fields, code
    ):
        import repro.planner

        def search_method(*args, **kwargs):
            raise AssertionError("a sweep ran for a request that must be refused")

        monkeypatch.setattr(repro.planner, "search_method", search_method)
        request = api.PlanRequest(**{"global_batch_size": 32, **fields})
        with pytest.raises(ServiceError) as excinfo:
            harness.client().request(request)
        assert excinfo.value.status == 400
        assert excinfo.value.error.code == code

    def test_absurd_shape_is_refused_before_it_is_built(self, harness):
        request = api.VerifyRequest(
            method="dapple", shape=api.ShapeSpec(microbatches=10**7)
        )
        with pytest.raises(ServiceError) as excinfo:
            harness.client().request(request)
        assert excinfo.value.status == 400
        assert excinfo.value.error.code == "invalid-shape"

    def test_safety_tier_rejection_maps_to_422(self, harness):
        # Interleaved VPP requires n % p == 0; n=2, p=4 is a
        # well-formed request the generator refuses.
        with pytest.raises(ServiceError) as excinfo:
            harness.client().request(
                api.VerifyRequest(
                    method="vpp",
                    shape=api.ShapeSpec(microbatches=2, virtual=2),
                )
            )
        assert excinfo.value.status == 422
        assert excinfo.value.error.code == "schedule-rejected"

    def test_unknown_route_is_404(self, harness):
        status, data = harness.client().call("GET", "/v1/frobnicate")
        assert status == 404
        assert data["code"] == "not-found"
        assert data["schema_version"] == api.SCHEMA_VERSION

    def test_get_on_request_endpoint_is_405(self, harness):
        status, data = harness.client().call("GET", "/v1/plan")
        assert status == 405
        assert data["code"] == "method-not-allowed"

    def test_malformed_json_is_400(self, harness):
        conn = http.client.HTTPConnection(
            harness.service.config.host, harness.service.config.port
        )
        try:
            conn.request(
                "POST", "/v1/evaluate", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "JSON" in data["message"]

    def test_schema_mismatch_is_rejected(self, harness):
        status, data = harness.client().call(
            "POST", "/v1/evaluate",
            body={"kind": "evaluate", "schema_version": 999},
        )
        assert status == 400
        assert data["code"] == "schema-mismatch"

    def test_mismatched_body_kind_is_rejected(self, harness):
        status, data = harness.client().call(
            "POST", "/v1/evaluate", body={"kind": "plan"}
        )
        assert status == 400

    def test_unknown_job_is_404(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client().job("job-does-not-exist")
        assert excinfo.value.status == 404


class TestJobsAndStreaming:
    def test_async_submit_poll_and_sse(self, harness):
        client = harness.client()
        descriptor = client.submit(SMALL_PLAN)
        assert descriptor["schema_version"] == api.SCHEMA_VERSION
        assert descriptor["status"] in ("queued", "running")
        job_id = descriptor["job_id"]

        # The SSE stream carries obs-bus events from the sweep, then a
        # terminal `done` event with the full job descriptor.
        events = list(client.events(job_id))
        names = [name for name, _ in events]
        assert names[-1] == "done"
        obs_payloads = [p for name, p in events if name == "obs"]
        assert obs_payloads, "expected telemetry on the stream"
        kinds = {p["kind"] for p in obs_payloads}
        assert kinds & {"span", "counter", "instant"}

        final = client.wait(job_id)
        assert final["status"] == "done"
        response = api.response_from_dict(final["response"])
        assert isinstance(response, api.PlanResponse)
        assert response.methods[0]["method"] == "mepipe"

    def test_sse_replays_for_finished_jobs(self, harness):
        client = harness.client()
        job_id = client.submit(SMALL_PLAN)["job_id"]
        client.wait(job_id)
        # Stream opened after completion: history replays, then done.
        events = list(client.events(job_id))
        assert events[-1][0] == "done"
        assert [name for name, _ in events].count("done") == 1

    def test_concurrent_identical_requests_share_one_execution(
        self, harness, monkeypatch
    ):
        client = harness.client()
        executed_before = harness.store.executed
        hits_before = harness.store.dedup_hits
        # Dedup is in-flight-only: hold the one execution open until the
        # other 31 requests have attached to it, so all 32 are provably
        # in flight together however fast the plan itself is.
        gate = _Gated(jobs_module.execute)
        monkeypatch.setattr(jobs_module, "execute", gate)

        def one(_: int) -> str:
            return client.request(SMALL_PLAN).to_json()

        with ThreadPoolExecutor(max_workers=32) as pool:
            futures = [pool.submit(one, i) for i in range(32)]
            deadline = time.monotonic() + 20.0
            while (
                harness.store.dedup_hits < hits_before + 31
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            gate.release.set()
            bodies = [f.result() for f in futures]

        # All 32 callers saw byte-identical responses...
        assert len(set(bodies)) == 1
        # ...from exactly one planner invocation.
        assert harness.store.executed == executed_before + 1
        assert harness.store.dedup_hits >= 31
        stats = client.health()["stats"]
        assert stats["executed"] == executed_before + 1

    def test_dedup_respects_fingerprint_volatile_fields(self, harness, monkeypatch):
        # jobs/use_cache are volatile: they never change the planner's
        # answer, so requests differing only there still share a job.
        client = harness.client()
        variant = api.PlanRequest(
            model=SMALL_PLAN.model,
            global_batch_size=SMALL_PLAN.global_batch_size,
            methods=SMALL_PLAN.methods,
            max_spp=SMALL_PLAN.max_spp,
            use_cache=False,
            jobs=1,
        )
        assert variant.fingerprint() == SMALL_PLAN.fingerprint()
        executed_before = harness.store.executed
        hits_before = harness.store.dedup_hits
        # Dedup is in-flight-only: hold the execution open until the
        # second request has attached, however fast the plan itself is.
        gate = _Gated(jobs_module.execute)
        monkeypatch.setattr(jobs_module, "execute", gate)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(client.request, SMALL_PLAN),
                pool.submit(client.request, variant),
            ]
            deadline = time.monotonic() + 20.0
            while (
                harness.store.dedup_hits < hits_before + 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            gate.release.set()
            results = [f.result() for f in futures]
        assert results[0] == results[1]
        assert harness.store.executed <= executed_before + 1

    def test_concurrent_distinct_requests_are_all_counted(self, harness):
        # `executed` is only ever written on the event loop; a count kept
        # on the 8 executor threads could lose updates under this switch
        # interval.
        client = harness.client()
        executed_before = harness.store.executed

        def one(i: int) -> api.Response:
            # Four tenants, so 16 jobs in flight stay inside the quota.
            request = api.EvaluateRequest(method="mepipe", tw=1.0 + i / 16)
            return harness.client(tenant=f"tenant-{i % 4}").request(request)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                responses = list(pool.map(one, range(16)))
        finally:
            sys.setswitchinterval(interval)
        assert all(response.ok for response in responses)
        assert harness.store.executed == executed_before + 16
        assert client.health()["stats"]["executed"] == executed_before + 16


class TestRepeatedRequests:
    """A question the service already answered ``done`` is answered
    from that job: same bytes, no handler call."""

    def test_repeats_are_answered_byte_identically(self, harness):
        client = harness.client()
        for request in (
            api.PlanRequest(
                model="13b", global_batch_size=32, methods=("zb",), max_spp=4
            ),
            api.VerifyRequest(method="mepipe"),
            api.CheckModelRequest(method="mepipe"),
            api.EvaluateRequest(method="zb"),
            api.CapacityRequest(method="zbv"),
            api.SimulateRequest(method="dapple"),
        ):
            first = raw_post(harness, request)
            before = client.health()["stats"]
            second = raw_post(harness, request)
            after = client.health()["stats"]
            assert first[0] == 200 and second == first, request.KIND
            assert after["executed"] == before["executed"]
            assert after["dedup_hits"] == before["dedup_hits"] + 1

    def test_async_repeat_is_a_new_job_with_the_same_stream(self, harness):
        client = harness.client()
        plan = dataclasses.replace(SMALL_PLAN, use_cache=True)
        first = client.submit(plan)["job_id"]
        assert client.wait(first)["status"] == "done"
        executed = harness.store.executed
        repeat = client.submit(plan)
        assert repeat["job_id"] != first
        assert repeat["status"] in ("queued", "running")
        assert client.wait(repeat["job_id"])["status"] == "done"
        assert harness.store.executed == executed
        original = list(client.events(first))
        replayed = list(client.events(repeat["job_id"]))
        assert [e for e in original if e[0] == "obs"], "expected telemetry"
        assert replayed[:-1] == original[:-1]
        assert original[-1][0] == replayed[-1][0] == "done"
        assert replayed[-1][1]["response"] == original[-1][1]["response"]

    @pytest.mark.parametrize(
        "flags, executed, hits", [((), 1, 1), (("--no-dedup",), 2, 0)]
    )
    def test_serve_cli_dedup_flag(self, tmp_path, flags, executed, hits):
        import repro

        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).parents[1]),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            client = ServiceClient(line.split()[4])
            request = api.EvaluateRequest(method="zb")
            assert client.request(request) == client.request(request)
            stats = client.health()["stats"]
            assert (stats["executed"], stats["dedup_hits"]) == (executed, hits)
        finally:
            proc.terminate()
            proc.wait(30.0)
            proc.stdout.close()

    def test_attached_waiters_share_one_encode(self, harness, monkeypatch):
        encodes: list[str] = []
        to_json = api.EvaluateResponse.to_json

        def counting(response):
            encodes.append(threading.current_thread().name)
            return to_json(response)

        monkeypatch.setattr(api.EvaluateResponse, "to_json", counting)
        gate = _Gated(jobs_module.execute)
        monkeypatch.setattr(jobs_module, "execute", gate)
        request = api.EvaluateRequest(method="zb")
        hits_before = harness.store.dedup_hits
        with ThreadPoolExecutor(max_workers=32) as pool:
            futures = [pool.submit(raw_post, harness, request) for _ in range(32)]
            deadline = time.monotonic() + 20.0
            while (
                harness.store.dedup_hits < hits_before + 31
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            gate.release.set()
            replies = [f.result() for f in futures]
        assert replies[0][0] == 200 and len(set(replies)) == 1
        assert len(encodes) == 1 and encodes[0].startswith("repro-job")


class TestCompletionIsEventDriven:
    """With the telemetry interval stretched to 5 s, nothing may wait it
    out: the pump wakes on the executor future, not on the clock."""

    @pytest.fixture(autouse=True)
    def _long_interval(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "PUMP_INTERVAL_S", 5.0)

    def test_run_returns_at_completion(self):
        async def main() -> tuple[object, float]:
            store = jobs_module.JobStore(ServiceConfig(use_cache=False))
            try:
                t0 = time.monotonic()
                result = await store.run(api.EvaluateRequest(method="zb"))
                return result, time.monotonic() - t0
            finally:
                await store.close()

        result, seconds = asyncio.run(main())
        assert isinstance(result, api.EvaluateResponse) and result.ok
        assert seconds < 1.0

    def test_async_job_flips_to_done_at_completion(self, harness):
        client = harness.client()
        t0 = time.monotonic()
        descriptor = client.submit(api.EvaluateRequest(method="zb"))
        final = client.wait(descriptor["job_id"], poll_s=0.01)
        assert final["status"] == "done"
        assert time.monotonic() - t0 < 2.5

    def test_live_subscriber_gets_every_event_then_done(
        self, harness, monkeypatch
    ):
        gate = _Gated(jobs_module.execute)
        monkeypatch.setattr(jobs_module, "execute", gate)
        client = harness.client()
        job_id = client.submit(SMALL_PLAN)["job_id"]
        job = harness.store.get(job_id)
        with ThreadPoolExecutor(max_workers=1) as pool:
            stream = pool.submit(lambda: list(client.events(job_id)))
            # Attached while the job is provably still running.
            deadline = time.monotonic() + 10.0
            while not job._subscribers and time.monotonic() < deadline:
                time.sleep(0.005)
            assert job._subscribers and not job.finished
            t0 = time.monotonic()
            gate.release.set()
            events = stream.result(20.0)
        assert time.monotonic() - t0 < 2.5
        assert [name for name, _ in events[:-1]] == ["obs"] * len(job.events)
        assert [payload for _, payload in events[:-1]] == job.events
        assert job.events, "expected telemetry on the stream"
        name, payload = events[-1]
        assert name == "done" and payload["status"] == "done"
        assert payload["num_events"] == len(job.events)


class _Slow:
    """Patchable stand-in for ``api.execute`` that blocks then answers."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self.calls = 0

    def __call__(self, request, *, sink, cache=None):
        self.calls += 1
        time.sleep(self.delay_s)
        return api.EvaluateResponse(ok=True, text="slow done")


class _Gated:
    """Patchable stand-in for ``api.execute`` that holds the real call
    until the test releases it."""

    def __init__(self, execute) -> None:
        self.execute = execute
        self.release = threading.Event()

    def __call__(self, request, *, sink, cache=None):
        assert self.release.wait(25.0), "gate was never released"
        return self.execute(request, sink=sink, cache=cache)


class TestQuotasAndDeadlines:
    def test_per_tenant_quota_yields_429(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(jobs_module, "execute", _Slow(0.5))
        h = ServiceHarness(
            ServiceConfig(
                port=0, request_timeout_s=30.0, tenant_quota=2,
                max_workers=8,
            )
        )
        try:
            client = h.client(tenant="alice")
            distinct = [
                api.EvaluateRequest(method="mepipe", tw=1.0 + i)
                for i in range(3)
            ]
            first = client.submit(distinct[0])
            second = client.submit(distinct[1])
            with pytest.raises(ServiceError) as excinfo:
                client.submit(distinct[2])
            assert excinfo.value.status == 429
            assert excinfo.value.error.code == "quota-exceeded"
            assert excinfo.value.error.detail["tenant"] == "alice"

            # Another tenant is unaffected by alice's quota...
            bob = h.client(tenant="bob")
            third = bob.submit(distinct[2])
            # ...and attaching to an in-flight job is never charged.
            attach = bob.submit(distinct[0])
            assert attach["job_id"] == first["job_id"]

            for descriptor in (first, second, third):
                assert client.wait(descriptor["job_id"])["status"] == "done"
            # With capacity released, alice may submit again.
            fresh = client.submit(
                api.EvaluateRequest(method="mepipe", tw=9.0)
            )
            assert client.wait(fresh["job_id"])["status"] == "done"
        finally:
            h.shutdown()

    def test_deadline_surfaces_structured_timeout(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        slow = _Slow(1.0)
        monkeypatch.setattr(jobs_module, "execute", slow)
        h = ServiceHarness(ServiceConfig(port=0, request_timeout_s=30.0))
        try:
            client = h.client(timeout_s=0.2)
            with pytest.raises(ServiceError) as excinfo:
                client.request(api.EvaluateRequest(method="mepipe"))
            assert excinfo.value.status == 504
            error = excinfo.value.error
            assert error.code == "timeout"
            assert error.detail["timeout_s"] == 0.2
            job_id = error.detail["job_id"]

            # The computation was not cancelled: the job completes and
            # a patient poller still gets the full result.
            final = h.client().wait(job_id)
            assert final["status"] == "done"
            assert final["response"]["text"] == "slow done"
            assert slow.calls == 1
        finally:
            h.shutdown()

    def test_bad_timeout_query_is_rejected(self, harness):
        status, data = harness.client().call(
            "POST", "/v1/evaluate",
            body={"kind": "evaluate"},
            query={"timeout": "soon"},
        )
        assert status == 400
        assert data["code"] == "bad-timeout"


class TestRequestErrorsThroughJobs:
    def test_async_job_captures_request_error(self, harness):
        client = harness.client()
        descriptor = client.submit(api.EvaluateRequest(method="nosuch"))
        final = client.wait(descriptor["job_id"])
        assert final["status"] == "error"
        assert final["error"]["code"] == "unknown-method"
        # The SSE stream still terminates cleanly.
        events = list(client.events(descriptor["job_id"]))
        assert events[-1][0] == "done"
