"""Bounded-channel capacity analysis of compiled schedules.

The third static-analysis pass: augments the compiled
:class:`~repro.schedules.graph.ScheduleGraph` with slot-reuse edges to
certify deadlock-freedom under finite ring capacities (CP001), infers
the componentwise-minimal deadlock-free and backpressure-free capacity
vectors in closed form, and cross-validates every certificate against
the simulator's independent bounded-channel engine (CP004).  See
``docs/verification.md`` (rule table) and ``docs/analysis.md``
(inference guarantees and limits).
"""

from repro.analysis.capacity.core import (
    CapacityCertificate,
    CapacityPlan,
    ChannelCapacity,
    ChannelId,
    bounded_dense_times,
    certify_capacities,
    check_capacities,
    cross_validate_capacities,
    infer_capacities,
    normalize_capacities,
    ring_bytes_per_stage,
)
from repro.analysis.capacity.rules import CAPACITY_RULES, CAPACITY_VERSION

__all__ = [
    "CAPACITY_RULES",
    "CAPACITY_VERSION",
    "CapacityCertificate",
    "CapacityPlan",
    "ChannelCapacity",
    "ChannelId",
    "bounded_dense_times",
    "certify_capacities",
    "check_capacities",
    "cross_validate_capacities",
    "infer_capacities",
    "normalize_capacities",
    "ring_bytes_per_stage",
]
