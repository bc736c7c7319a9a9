"""Parallel-strategy configuration, validation, and communication models."""

from repro.parallel.grid import enumerate_configs
from repro.parallel.strategies import (
    COMM_RANKING,
    ParallelConfig,
    cp_layer_comm_bytes,
    pp_boundary_bytes,
    tp_layer_comm_bytes,
    validate_for_cluster,
)

__all__ = [
    "COMM_RANKING",
    "ParallelConfig",
    "cp_layer_comm_bytes",
    "enumerate_configs",
    "pp_boundary_bytes",
    "tp_layer_comm_bytes",
    "validate_for_cluster",
]
