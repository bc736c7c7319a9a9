"""Async job store: dedup, quotas, deadlines, and progress streams.

Every service request becomes a :class:`Job`.  The store

- **deduplicates** on :meth:`repro.api.Request.fingerprint` (the same
  version-folding contract as the sweep cache's eval fingerprints): a
  request attaches to an identical in-flight job, and one whose
  question a recent job already answered ``done`` is finished from that
  job — same response, same bytes, same event stream — without calling
  a handler (``use_cache=False`` skips this finished tier);
- enforces **per-tenant quotas** on concurrently active jobs
  (attaching to a deduplicated job is free — it adds no load);
- runs handlers on a thread pool behind ``run_in_executor`` so the
  asyncio loop stays responsive (planner sweeps further fan out to the
  :mod:`repro.planner.parallel` process pool when ``jobs > 1``, a
  request's ``jobs`` capped at :attr:`ServiceConfig.jobs`);
- bridges each handler's telemetry onto the asyncio side through a
  :class:`repro.obs.QueueSink` pump, feeding per-job subscriber queues
  that back the SSE progress stream; and
- surfaces **deadline expiry** as a structured ``timeout``
  :class:`repro.api.ErrorInfo` payload while the computation keeps
  running for any patient subscriber (threads are not cancellable).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any

from repro.api import (
    SCHEMA_VERSION,
    ErrorInfo,
    PlanRequest,
    Request,
    RequestError,
    Response,
    execute,
)
from repro.api.types import JsonDict
from repro.obs import Event, QueueSink
from repro.planner import SweepCache
from repro.service.config import ServiceConfig

#: Seconds between telemetry pump drains while a job runs (completion
#: itself wakes the pump at once).
PUMP_INTERVAL_S = 0.02

#: Queue sentinel telling an event subscriber the stream is over.
STREAM_END = None

#: Finished ``done`` jobs the fingerprint index answers repeats from.
#: The benchmark's steady-state mix asks 28 distinct questions and its
#: cold-plan list 12; a plan reply is ~15 KB.
DONE_INDEX_SIZE = 64

#: Finished jobs kept pollable by id (unfinished ones always are): more
#: than one whole 200-op pass of that mix.
FINISHED_JOBS_KEPT = 256


class QuotaExceeded(Exception):
    """A tenant already has ``quota`` active jobs."""

    def __init__(self, tenant: str, quota: int) -> None:
        super().__init__(
            f"tenant {tenant!r} already has {quota} active job(s)"
        )
        self.tenant = tenant
        self.quota = quota

    def to_error(self) -> ErrorInfo:
        return ErrorInfo(
            code="quota-exceeded",
            message=str(self),
            detail={"tenant": self.tenant, "quota": self.quota},
        )


def timeout_error(job_id: str, timeout_s: float) -> ErrorInfo:
    """The structured payload for a request that outlived its deadline."""
    return ErrorInfo(
        code="timeout",
        message=(
            f"request exceeded its {timeout_s:g}s deadline; the job "
            f"keeps running — poll /v1/jobs/{job_id}"
        ),
        detail={"job_id": job_id, "timeout_s": timeout_s},
    )


@dataclass
class Job:
    """One deduplicated unit of work and its observable state."""

    job_id: str
    kind: str
    fingerprint: str
    tenant: str
    status: str = "queued"  # queued -> running -> done | error
    response: Response | None = None
    #: ``response`` encoded once, on the executor thread; every reply
    #: to this job (and to any job reusing it) sends these bytes.
    body: bytes | None = None
    error: ErrorInfo | None = None
    #: How many requests were folded onto this job (1 = no in-flight
    #: dedup; every extra attach proves a shared in-flight hit).
    attached: int = 1
    created_s: float = field(default_factory=time.monotonic)
    finished_s: float | None = None
    events: list[JsonDict] = field(default_factory=list)
    done: asyncio.Event = field(default_factory=asyncio.Event)
    _subscribers: list[asyncio.Queue[JsonDict | None]] = field(
        default_factory=list
    )

    @property
    def finished(self) -> bool:
        return self.status in ("done", "error")

    def subscribe(self) -> asyncio.Queue[JsonDict | None]:
        """A queue replaying all past events, then live ones, then
        :data:`STREAM_END` once the job finishes."""
        q: asyncio.Queue[JsonDict | None] = asyncio.Queue()
        for event in self.events:
            q.put_nowait(event)
        if self.finished:
            q.put_nowait(STREAM_END)
        else:
            self._subscribers.append(q)
        return q

    def publish(self, events: list[Event]) -> None:
        dicts = [e.to_dict() for e in events]
        self.events.extend(dicts)
        for q in self._subscribers:
            for d in dicts:
                q.put_nowait(d)

    def finish(
        self, response: Response | None, error: ErrorInfo | None, body: bytes | None
    ) -> None:
        self.response = response
        self.body = body
        self.error = error
        self.status = "error" if error is not None else "done"
        self.finished_s = time.monotonic()
        for q in self._subscribers:
            q.put_nowait(STREAM_END)
        self._subscribers.clear()
        self.done.set()

    def result(self) -> Response | ErrorInfo:
        """The finished job's payload (response or structured error)."""
        if self.error is not None:
            return self.error
        assert self.response is not None
        return self.response

    def to_dict(self) -> JsonDict:
        """The polling (``GET /v1/jobs/<id>``) representation."""
        out: JsonDict = {
            "schema_version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "tenant": self.tenant,
            "fingerprint": self.fingerprint,
            "attached": self.attached,
            "num_events": len(self.events),
        }
        if self.response is not None:
            out["response"] = self.response.to_dict()
        if self.error is not None:
            out["error"] = self.error.to_dict()
        return out


class JobStore:
    """Owns every job, the dedup index, quotas, and the worker pool."""

    def __init__(
        self, config: ServiceConfig, *, cache: SweepCache | None = None
    ) -> None:
        self.config = config
        if cache is None and config.use_cache:
            cache = SweepCache()
        self.cache = cache
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_workers, thread_name_prefix="repro-job"
        )
        #: Retained jobs by id: every unfinished one, plus the newest
        #: ``FINISHED_JOBS_KEPT`` finished ones (``_finished``, oldest first).
        self._jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()
        #: The dedup index, fingerprint -> job: every in-flight job plus
        #: the newest ``DONE_INDEX_SIZE`` that finished ``done``.
        self._index: OrderedDict[str, Job] = OrderedDict()
        self._tenant_active: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._tasks: set[asyncio.Task[None]] = set()
        #: Requests answered by an in-flight or a finished job.
        self.dedup_hits = 0
        #: Handler invocations actually executed.
        self.executed = 0

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def active_jobs(self, tenant: str) -> int:
        return self._tenant_active.get(tenant, 0)

    def submit(self, request: Request, *, tenant: str = "default") -> Job:
        """Start (or attach to) the job answering ``request``.

        A repeat of a question the index holds a ``done`` job for is
        finished from that job unless it says ``use_cache=False``.
        Raises :class:`QuotaExceeded` when the tenant is at its
        concurrency quota and no in-flight job can be shared.
        """
        fingerprint = request.fingerprint()
        known = self._index.get(fingerprint) if self.config.dedup else None
        if known is not None and not known.finished:
            known.attached += 1
            self.dedup_hits += 1
            return known
        active = self._tenant_active.get(tenant, 0)
        if active >= self.config.tenant_quota:
            raise QuotaExceeded(tenant, self.config.tenant_quota)
        job = Job(
            job_id=f"job-{next(self._ids)}",
            kind=request.KIND,
            fingerprint=fingerprint,
            tenant=tenant,
        )
        self._jobs[job.job_id] = job
        if self.config.dedup:
            self._index[fingerprint] = job
        self._tenant_active[tenant] = active + 1
        prior = known if getattr(request, "use_cache", True) else None
        task = asyncio.get_running_loop().create_task(
            self._run(job, request, prior)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    async def wait(
        self, job: Job, *, timeout_s: float | None = None
    ) -> Response | ErrorInfo:
        """Await ``job`` up to the resolved deadline.

        On expiry the job keeps running (executor threads cannot be
        cancelled) and the caller gets a structured ``timeout`` error
        naming the job id so it can switch to polling.
        """
        timeout = (
            timeout_s
            if timeout_s is not None
            else self.config.request_timeout_s
        )
        assert timeout is not None
        try:
            await asyncio.wait_for(
                asyncio.shield(job.done.wait()), timeout
            )
        except asyncio.TimeoutError:
            return timeout_error(job.job_id, timeout)
        return job.result()

    async def run(
        self,
        request: Request,
        *,
        tenant: str = "default",
        timeout_s: float | None = None,
    ) -> Response | ErrorInfo:
        """Submit-and-wait convenience for synchronous endpoints."""
        try:
            job = self.submit(request, tenant=tenant)
        except QuotaExceeded as exc:
            return exc.to_error()
        return await self.wait(job, timeout_s=timeout_s)

    def _execute(self, request: Request, sink: QueueSink) -> tuple[Response, bytes]:
        # Runs on an executor thread, which also encodes the reply once,
        # off the event loop; closing the sink delivers the
        # end-of-stream sentinel to the asyncio-side pump.
        try:
            # ``jobs`` is volatile: capping it at the service's bound
            # changes neither the fingerprint nor the reply.
            if isinstance(request, PlanRequest) and request.jobs > self.config.jobs:
                request = replace(request, jobs=self.config.jobs)
            response = execute(request, sink=sink, cache=self.cache)
            return response, response.to_json().encode()
        finally:
            sink.close()

    async def _compute(self, job: Job, request: Request) -> tuple[Response, bytes]:
        loop = asyncio.get_running_loop()
        sink = QueueSink()
        job.status = "running"
        # Counted here, on the loop: executor threads would race on it.
        self.executed += 1
        future = loop.run_in_executor(
            self._executor, self._execute, request, sink
        )
        while True:
            job.publish(sink.drain())
            if future.done() and sink.finished:
                break
            # Wakes on completion or the interval, whichever is first
            # (``_execute`` closes the sink before the future resolves,
            # so the next drain after completion ends the loop).
            await asyncio.wait([future], timeout=PUMP_INTERVAL_S)
        return future.result()

    async def _run(self, job: Job, request: Request, prior: Job | None) -> None:
        response: Response | None = None
        body: bytes | None = None
        error: ErrorInfo | None = None
        try:
            if prior is None:
                response, body = await self._compute(job, request)
            else:
                # Answered before: a finished job's outcome and event
                # stream never change, so this job shares them.
                job.events = list(prior.events)
                response, body, error = prior.response, prior.body, prior.error
                self.dedup_hits += 1
        except RequestError as exc:
            error = exc.to_error()
        except Exception as exc:  # pragma: no cover - defensive
            error = ErrorInfo(
                code="internal",
                message=f"{type(exc).__name__}: {exc}",
            )
        finally:
            remaining = self._tenant_active.get(job.tenant, 1) - 1
            if remaining > 0:
                self._tenant_active[job.tenant] = remaining
            else:
                self._tenant_active.pop(job.tenant, None)
            job.finish(response, error, body)
            self._file(job)

    def _file(self, job: Job) -> None:
        """Retire a finished job into the retention window and, if it is
        ``done``, the index's finished tier; errors leave the index."""
        self._finished.append(job.job_id)
        while len(self._finished) > FINISHED_JOBS_KEPT:
            del self._jobs[self._finished.popleft()]
        if self._index.get(job.fingerprint) is not job:
            return
        if job.status != "done":
            del self._index[job.fingerprint]
            return
        self._index.move_to_end(job.fingerprint)
        done = [fp for fp, known in self._index.items() if known.finished]
        for fingerprint in done[:-DONE_INDEX_SIZE]:
            del self._index[fingerprint]

    async def close(self) -> None:
        """Wait for in-flight jobs, then release the worker pools.

        Shuts down the persistent planner process pool too, so stopping
        the service never leaves orphaned worker processes behind.
        """
        tasks = [t for t in self._tasks if not t.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)
        from repro.planner import pool

        pool.shutdown()

    def stats(self) -> dict[str, Any]:
        """Healthz counters: job-store state plus planner reuse.

        ``jobs`` counts retained jobs, ``inflight`` queued or running
        ones; ``executed`` counts handler calls, ``dedup_hits`` requests
        answered without one.  ``worker_reuse`` comes from the persistent
        pool — a process-wide sum, surfaced here because the service is
        the long-lived process in which cross-request reuse pays off.
        """
        from repro.planner import pool

        return {
            "jobs": len(self._jobs),
            "inflight": sum(self._tenant_active.values()),
            "dedup_hits": self.dedup_hits,
            "executed": self.executed,
            "worker_reuse": pool.stats()["worker_reuse"],
        }
