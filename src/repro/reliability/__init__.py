"""Fault tolerance: checkpointing, fault injection, MTBF cost model."""

from repro.reliability.checkpoint import (
    Checkpoint,
    FaultInjector,
    InjectedFault,
    TrainingDriver,
    restore_checkpoint,
    take_checkpoint,
)
from repro.reliability.mtbf import (
    OPT_GPUS,
    OPT_MTBF_HOURS,
    ReliabilityModel,
    rtx4090_thousand_gpu_model,
    scaled_mtbf,
)

__all__ = [
    "Checkpoint",
    "FaultInjector",
    "InjectedFault",
    "OPT_GPUS",
    "OPT_MTBF_HOURS",
    "ReliabilityModel",
    "TrainingDriver",
    "restore_checkpoint",
    "rtx4090_thousand_gpu_model",
    "scaled_mtbf",
    "take_checkpoint",
]
