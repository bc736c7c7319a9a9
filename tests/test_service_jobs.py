"""The job store under adversarial interleavings: the dedup index,
quotas, retention and progress streams.

A Hypothesis state machine drives one :class:`JobStore` on a private
event loop — sync and async submits across two tenants, ``use_cache``
on and off, handler gates released in any order, polls, short waits
and subscribers — and checks it after every step against a reference
model of the two dedup tiers (attach to an in-flight job; reuse one of
the newest ``DONE_INDEX_SIZE`` jobs that finished ``done``).  Every
invariant has a seeded mutation of the store's own source that must
break it.
"""

from __future__ import annotations

import __future__
import asyncio
import inspect
import textwrap
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import api
from repro.obs import Event
from repro.planner import evaluate as evaluate_module
from repro.planner import pool
from repro.schedules import gencache
from repro.service import JobStore, QuotaExceeded, ServiceConfig
from repro.service import jobs as jobs_module

from tests.test_service import ServiceHarness


def mutate(monkeypatch, owner, name: str, old: str, new: str) -> None:
    """Seed a mutation: recompile ``owner.<name>`` from its own source
    with the one occurrence of ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, f"{old!r} is not in {owner.__name__}.{name}"
    code = compile(
        source.replace(old, new),
        f"<mutant {owner.__name__}.{name}>",
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, vars(inspect.getmodule(owner)), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


# ----------------------------------------------------------------------
# The state machine
# ----------------------------------------------------------------------
#: The model's bounds; the tests shrink the store's constants to these
#: so eviction happens within a few steps.
INDEX_BOUND = 2
JOBS_KEPT = 3
QUOTA = 2
TENANTS = ("alice", "bob")

PLAN = api.PlanRequest(
    model="13b", global_batch_size=32, methods=("mepipe",), max_spp=4
)
#: The plan's answer: canned, so a repeat is byte-comparable.
PLAN_ANSWER = api.PlanResponse(methods=({"method": "mepipe", "best": None},))
CRASH = api.EvaluateRequest(method="dapple", tw=13.0)
REQUESTS = (
    PLAN,
    api.EvaluateRequest(method="mepipe"),
    api.SimulateRequest(method="dapple"),
    api.VerifyRequest(method="zb"),
    api.EvaluateRequest(method="nosuch"),  # RequestError -> error job
    CRASH,  # the handler raises -> internal error job
)
ERROR_CODES = {
    REQUESTS[4].fingerprint(): "unknown-method",
    CRASH.fingerprint(): "internal",
}


_DIRECT: dict[str, bytes] = {}


def direct_bytes(request: api.Request) -> bytes:
    """What a direct ``api.execute`` answers, encoded (memoised)."""
    fingerprint = request.fingerprint()
    if fingerprint not in _DIRECT:
        answer = (
            PLAN_ANSWER
            if isinstance(request, api.PlanRequest)
            else api.execute(request)
        )
        _DIRECT[fingerprint] = answer.to_json().encode()
    return _DIRECT[fingerprint]


class Handler:
    """Stands in for ``api.execute``: counts calls per fingerprint,
    holds each call until the model releases its gate, tags the stream
    with the call number, then answers through the real ``execute``
    (the plan with its canned answer)."""

    def __init__(self) -> None:
        self.gates: dict[str, threading.Event] = {}
        self.calls: Counter[str] = Counter()
        self._lock = threading.Lock()

    def __call__(self, request, *, sink, cache=None):
        fingerprint = request.fingerprint()
        with self._lock:
            self.calls[fingerprint] += 1
            number = sum(self.calls.values())
        gate = self.gates.get(fingerprint)
        if gate is not None:
            assert gate.wait(10.0), "gate never released"
        sink.emit(Event(kind="instant", name=f"call {number}", ts=0.0))
        if request == CRASH:
            raise RuntimeError("handler crashed")
        if isinstance(request, api.PlanRequest):
            return PLAN_ANSWER
        return api.execute(request, sink=sink)


HANDLER = Handler()


def routed_execute(request, *, sink, cache=None):
    return HANDLER(request, sink=sink, cache=cache)


class JobStoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        global HANDLER
        HANDLER = self.handler = Handler()
        self.loop = asyncio.new_event_loop()
        self.store = JobStore(
            ServiceConfig(
                use_cache=False, tenant_quota=QUOTA, max_workers=8,
                request_timeout_s=30.0,
            )
        )
        # The model.
        self.inflight: dict[str, object] = {}  # fingerprint -> computing job
        self.done: OrderedDict[str, object] = OrderedDict()  # LRU of answers
        self.active: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.dedup_hits = 0
        # What the store handed out.
        self.jobs: list = []
        self.request_of: dict[str, api.Request] = {}
        self.computed: set[str] = set()
        self.reused_from: dict[str, object] = {}
        self.unsettled_reuse: list = []
        self.waiters: list = []
        self.subscribers: list = []

    # -- driving the loop -----------------------------------------------
    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def settle(self) -> None:
        """Run the loop until every job not held by a gate has finished
        and every started computation has entered the handler."""

        def held(job) -> bool:
            gate = self.handler.gates.get(job.fingerprint)
            return (
                job.job_id in self.computed
                and gate is not None
                and not gate.is_set()
            )

        async def until_quiet() -> None:
            deadline = time.monotonic() + 10.0
            while (
                any(not j.finished and not held(j) for j in self.jobs)
                or sum(self.handler.calls.values()) != self.store.executed
            ):
                assert time.monotonic() < deadline, "the store never settled"
                await asyncio.sleep(0.001)
            await asyncio.sleep(0)  # let waiters see the completions

        self.run(until_quiet())
        for job in self.unsettled_reuse:
            self.dedup_hits += 1
            self.done[job.fingerprint] = job
            self.done.move_to_end(job.fingerprint)
        self.unsettled_reuse.clear()

    def remember(self, job) -> None:
        """Model: a computation finished."""
        self.inflight.pop(job.fingerprint, None)
        self.active[job.tenant] -= 1
        if job.fingerprint not in ERROR_CODES:
            self.done[job.fingerprint] = job
            while len(self.done) > INDEX_BOUND:
                self.done.popitem(last=False)

    # -- rules ----------------------------------------------------------
    @rule(
        which=st.integers(0, len(REQUESTS) - 1),
        tenant=st.sampled_from(TENANTS),
        use_cache=st.booleans(),
        sync=st.booleans(),
    )
    def submit(self, which, tenant, use_cache, sync):
        request = REQUESTS[which]
        if isinstance(request, api.PlanRequest):
            request = replace(request, use_cache=use_cache)
        fp = request.fingerprint()
        if fp in self.inflight:
            expect = "attach"
        elif self.active[tenant] >= QUOTA:
            expect = "quota"
        elif fp in self.done and getattr(request, "use_cache", True):
            expect = "reuse"
        else:
            expect = "compute"
            self.handler.gates[fp] = threading.Event()

        async def submit_it():
            try:
                job = self.store.submit(request, tenant=tenant)
            except QuotaExceeded as exc:
                return exc, None
            return job, job.status  # what a 202 reply would carry

        job, status = self.run(submit_it())
        if expect == "quota":
            assert isinstance(job, QuotaExceeded), job
            return
        assert not isinstance(job, QuotaExceeded), f"expected {expect}"
        if expect == "attach":
            assert job is self.inflight[fp]
            self.dedup_hits += 1
        else:
            assert job not in self.jobs and status == "queued"
            self.jobs.append(job)
            self.request_of[job.job_id] = request
            if expect == "reuse":
                self.reused_from[job.job_id] = self.done[fp]
                self.unsettled_reuse.append(job)
            else:
                self.computed.add(job.job_id)
                self.inflight[fp] = job
                self.active[tenant] += 1
                self.calls[fp] += 1
                self.done.pop(fp, None)
        if sync:
            waiter = self.loop.create_task(self.store.wait(job, timeout_s=30.0))
            self.waiters.append((job, waiter))
        self.settle()

    @precondition(lambda self: self.inflight)
    @rule(pick=st.integers(0, 10))
    def release(self, pick):
        pending = list(self.inflight.values())
        job = pending[pick % len(pending)]
        self.handler.gates[job.fingerprint].set()
        self.settle()
        assert job.finished
        self.remember(job)

    @precondition(lambda self: self.jobs)
    @rule(pick=st.integers(0, 1000))
    def poll(self, pick):
        job = self.jobs[pick % len(self.jobs)]
        polled = self.store.get(job.job_id)
        assert polled is job or (polled is None and job.finished)

    @precondition(lambda self: self.inflight)
    @rule(pick=st.integers(0, 10))
    def wait_briefly(self, pick):
        pending = list(self.inflight.values())
        job = pending[pick % len(pending)]
        result = self.run(self.store.wait(job, timeout_s=0.001))
        assert isinstance(result, api.ErrorInfo) and result.code == "timeout"
        assert result.detail["job_id"] == job.job_id
        assert not job.finished  # the deadline does not cancel the job

    @precondition(lambda self: self.jobs)
    @rule(pick=st.integers(0, 1000))
    def subscribe(self, pick):
        job = self.jobs[pick % len(self.jobs)]
        self.subscribers.append((job, job.subscribe(), []))

    # -- invariants -----------------------------------------------------
    @invariant()
    def handler_calls_match_the_model(self):
        # At most one call per fingerprint, unless a request bypassed
        # the finished tier or its answer left the index.
        assert dict(+self.handler.calls) == dict(+self.calls)
        assert self.store.executed == sum(self.calls.values())
        assert self.store.dedup_hits == self.dedup_hits

    @invariant()
    def quotas_are_held(self):
        assert self.store._tenant_active == dict(+self.active)
        assert all(n <= QUOTA for n in self.store._tenant_active.values())

    @invariant()
    def the_index_is_bounded_and_holds_no_error(self):
        done = [fp for fp, job in self.store._index.items() if job.finished]
        assert len(done) <= INDEX_BOUND
        assert done == list(self.done)
        assert all(self.store._index[fp].status == "done" for fp in done)

    @invariant()
    def retention_keeps_every_unfinished_job(self):
        kept = self.store._jobs.values()
        assert sum(job.finished for job in kept) <= JOBS_KEPT
        for job in self.jobs:
            if not job.finished:
                assert self.store.get(job.job_id) is job

    @invariant()
    def every_reply_is_the_direct_answer(self):
        for job in self.jobs:
            if not job.finished:
                continue
            request = self.request_of[job.job_id]
            if job.status == "error":
                assert job.job_id in self.computed, "an error was reused"
                assert job.error.code == ERROR_CODES[job.fingerprint]
                continue
            assert job.body == direct_bytes(request)
            assert job.response.to_json().encode() == job.body
            prior = self.reused_from.get(job.job_id)
            if prior is not None:
                assert job.response is prior.response and job.body is prior.body
                assert job.events == prior.events
        for job, waiter in self.waiters:
            if waiter.done():
                assert job.finished and waiter.result() is job.result()

    @invariant()
    def every_subscriber_gets_one_terminal_event(self):
        for job, queue, received in self.subscribers:
            while not queue.empty():
                received.append(queue.get_nowait())
            assert received.count(jobs_module.STREAM_END) <= 1
            if job.finished:
                assert received == [*job.events, jobs_module.STREAM_END]
            else:
                assert received == job.events[: len(received)]

    def teardown(self) -> None:
        for gate in self.handler.gates.values():
            gate.set()
        try:
            self.run(self.store.close())  # awaits every job's task

            async def waiters_done() -> None:
                await asyncio.gather(*(waiter for _, waiter in self.waiters))

            self.run(waiters_done())
            assert all(job.finished for job in self.jobs)
            assert self.store._tenant_active == {}
            self.every_subscriber_gets_one_terminal_event()
        finally:
            self.loop.close()


def run_machine(monkeypatch, **overrides) -> None:
    monkeypatch.setattr(jobs_module, "execute", routed_execute)
    monkeypatch.setattr(jobs_module, "DONE_INDEX_SIZE", INDEX_BOUND)
    monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", JOBS_KEPT)
    options = dict(
        max_examples=30,
        stateful_step_count=50,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    options.update(overrides)
    run_state_machine_as_test(JobStoreMachine, settings=settings(**options))


def test_job_store_matches_its_model(monkeypatch):
    run_machine(monkeypatch)


#: Each seeded mutation of the store's source the machine must catch:
#: (method, original text, mutated text).
MUTATIONS = {
    "reuse-error-jobs": ("_file", 'if job.status != "done":', "if False:"),
    "ignore-use-cache-false": (
        "submit",
        'known if getattr(request, "use_cache", True) else None',
        "known",
    ),
    "drop-the-index-bound": (
        "_file", "done[:-DONE_INDEX_SIZE]", "done[:0]"
    ),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_state_machine_catches_seeded_mutation(monkeypatch, name):
    method, old, new = MUTATIONS[name]
    mutate(monkeypatch, JobStore, method, old, new)
    with pytest.raises(AssertionError):
        run_machine(
            monkeypatch, phases=(Phase.generate,), report_multiple_bugs=False
        )


# ----------------------------------------------------------------------
# Retention: finished jobs are bounded, unfinished ones are never lost
# ----------------------------------------------------------------------
class HoldOne:
    """``api.execute`` stand-in that answers at once, except the one
    request it holds until released."""

    def __init__(self, held: api.Request) -> None:
        self.held = held
        self.release = threading.Event()

    def __call__(self, request, *, sink, cache=None):
        if request == self.held:
            assert self.release.wait(20.0), "held request never released"
        return api.EvaluateResponse(ok=True, text=f"tw={request.tw}")


def check_retention(tmp_path, monkeypatch, kept: int = 4, extra: int = 3):
    """Drive ``kept + extra`` quick requests past one held job."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", kept)
    held = api.EvaluateRequest(method="mepipe", tw=99.0)
    hold = HoldOne(held)
    monkeypatch.setattr(jobs_module, "execute", hold)
    h = ServiceHarness(ServiceConfig(port=0, request_timeout_s=30.0))
    try:
        client = h.client()
        held_id = client.submit(held)["job_id"]
        ids = [
            client.submit(api.EvaluateRequest(method="mepipe", tw=1.0 + i))[
                "job_id"
            ]
            for i in range(kept + extra)
        ]
        for job_id in ids[-kept:]:
            assert client.wait(job_id, poll_s=0.005)["status"] == "done"
        # The oldest finished jobs are gone: polling them is a 404...
        for job_id in ids[:extra]:
            status, data = client.call("GET", f"/v1/jobs/{job_id}")
            assert (status, data.get("code")) == (404, "not-found")
        # ...the unfinished one, older than all of them, is not.
        status, data = client.call("GET", f"/v1/jobs/{held_id}")
        assert status == 200 and data["status"] in ("queued", "running")
        assert client.health()["stats"]["jobs"] == kept + 1
        hold.release.set()
        assert client.wait(held_id, poll_s=0.005)["status"] == "done"
        assert client.health()["stats"]["jobs"] == kept
    finally:
        hold.release.set()
        h.shutdown()


def test_finished_jobs_are_bounded_and_unfinished_kept(tmp_path, monkeypatch):
    check_retention(tmp_path, monkeypatch)


def test_retention_catches_evicting_an_unfinished_job(tmp_path, monkeypatch):
    mutate(
        monkeypatch,
        JobStore,
        "_file",
        "del self._jobs[self._finished.popleft()]",
        "del self._jobs[next(iter(self._jobs))], self._finished[0]",
    )
    with pytest.raises(AssertionError):
        check_retention(tmp_path, monkeypatch)


# ----------------------------------------------------------------------
# The service's worker bound caps a request's own ``jobs``
# ----------------------------------------------------------------------
def test_a_plan_forks_no_more_workers_than_the_service_allows():
    async def answer(request: api.PlanRequest) -> tuple[bytes | None, int]:
        store = JobStore(ServiceConfig(jobs=1, use_cache=False))
        try:
            job = store.submit(request)
            await store.wait(job, timeout_s=60.0)
            assert job.status == "done", job.error
            return job.body, pool.stats()["pool_workers"]
        finally:
            await store.close()

    replies = []
    for jobs in (8, 1):
        pool.shutdown()
        gencache.clear()
        evaluate_module._prelude.cache_clear()
        body, workers = asyncio.run(answer(replace(PLAN, jobs=jobs, use_cache=False)))
        assert workers == 0
        replies.append(body)
    assert replies[0] == replies[1]
