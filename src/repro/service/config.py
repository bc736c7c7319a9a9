"""Service configuration: sockets, quotas, and the deadline knob family.

Request deadlines resolve through one knob family shared with the
pipeline channel layer (documented in ``docs/observability.md``):

1. an explicit per-request deadline (``?timeout=`` on the HTTP call or
   the ``timeout_s`` argument to :meth:`JobStore.submit`), else
2. an explicit :attr:`ServiceConfig.request_timeout_s` (the
   ``repro serve --timeout`` flag), else
3. ``REPRO_REQUEST_TIMEOUT`` (seconds, positive float), else
4. ``REPRO_CHANNEL_TIMEOUT`` — the same knob that bounds every
   blocking pipeline-channel step, so one environment variable governs
   both channel and request deadlines, else
5. :data:`repro.pipeline.channels.DEFAULT_CHANNEL_TIMEOUT` (60 s).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.schedules.base import ScheduleError


def default_request_timeout() -> float:
    """Resolve the service-level request deadline (seconds).

    Honors ``REPRO_REQUEST_TIMEOUT`` first and falls back to the
    channel-timeout knob (``REPRO_CHANNEL_TIMEOUT``, then the 60 s
    default) so both deadline families move together.  Malformed or
    non-positive overrides raise :class:`ScheduleError`, mirroring
    :func:`repro.pipeline.channels.default_channel_timeout`.
    """
    raw = os.environ.get("REPRO_REQUEST_TIMEOUT")
    if raw is None:
        from repro.pipeline.channels import default_channel_timeout

        return default_channel_timeout()
    try:
        value = float(raw)
    except ValueError:
        raise ScheduleError(
            f"REPRO_REQUEST_TIMEOUT={raw!r} is not a number"
        ) from None
    if value <= 0.0:
        raise ScheduleError(
            f"REPRO_REQUEST_TIMEOUT must be a positive number of "
            f"seconds, got {raw!r}"
        )
    return value


def _default_quota() -> int:
    raw = os.environ.get("REPRO_TENANT_QUOTA")
    if raw is None:
        return 8
    try:
        value = int(raw)
    except ValueError:
        raise ScheduleError(
            f"REPRO_TENANT_QUOTA={raw!r} is not an integer"
        ) from None
    if value < 1:
        raise ScheduleError(
            f"REPRO_TENANT_QUOTA must be >= 1, got {raw!r}"
        )
    return value


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to run the planner service."""

    host: str = "127.0.0.1"
    port: int = 8731
    #: Worker processes each planner sweep may fan out to.
    jobs: int = 1
    #: Maximum concurrently active (queued or running) jobs per tenant;
    #: attaching to an in-flight deduplicated job is not charged.
    tenant_quota: int = field(default_factory=_default_quota)
    #: Default per-request deadline in seconds (knob family above);
    #: ``None`` resolves through the environment at construction.  It
    #: also bounds reading each request off the socket.
    request_timeout_s: float | None = None
    #: Deduplicate on request fingerprints: attach to an identical
    #: in-flight job, and answer a repeat of a recently finished
    #: ``done`` job from it; ``False`` computes every request.
    dedup: bool = True
    #: Reuse/persist the on-disk sweep cache across requests.
    use_cache: bool = True
    #: Threads executing request handlers (bounds true concurrency).
    max_workers: int = 8

    def __post_init__(self) -> None:
        if self.request_timeout_s is None:
            self.request_timeout_s = default_request_timeout()
        if self.request_timeout_s <= 0.0:
            raise ScheduleError(
                f"request timeout must be positive, got "
                f"{self.request_timeout_s!r}"
            )
        if self.tenant_quota < 1:
            raise ScheduleError(
                f"tenant quota must be >= 1, got {self.tenant_quota!r}"
            )
