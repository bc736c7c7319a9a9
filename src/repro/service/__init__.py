"""Planner-as-a-service: async HTTP + job-queue layer over ``repro.api``.

The service exposes the typed request/response facade
(:mod:`repro.api.types`) over HTTP — ``plan``, ``verify``,
``check-model``, ``evaluate``, ``capacity``, ``simulate`` — with
deduplication onto request fingerprints (in-flight and recently
finished), per-tenant concurrency quotas, structured timeout errors,
and per-job progress streamed from the :mod:`repro.obs` event bus over
Server-Sent Events.
See ``docs/service.md`` for endpoints and wire formats.

Start it with ``repro serve``; talk to it with ``repro client`` or
:class:`ServiceClient`.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig, default_request_timeout
from repro.service.http import (
    ERROR_STATUS,
    PlannerService,
    error_status,
    run_service,
)
from repro.service.jobs import (
    Job,
    JobStore,
    QuotaExceeded,
    timeout_error,
)

__all__ = [
    "ERROR_STATUS",
    "Job",
    "JobStore",
    "PlannerService",
    "QuotaExceeded",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "default_request_timeout",
    "error_status",
    "run_service",
    "timeout_error",
]
