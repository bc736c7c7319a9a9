"""Parallel-strategy configurations and their communication footprints.

This encodes Table 2 of the paper: how DP (with ZeRO), TP, CP, PP, and
SPP partition parameters / activations / optimizer state and how much
communication each strategy needs per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.model.memory import HALF
from repro.model.spec import ModelSpec


@dataclass(frozen=True)
class ParallelConfig:
    """A complete parallelization of one training job.

    ``dp * tp * cp * pp`` must equal the device count.  ``spp`` (sequence
    pipeline size: slices per sample) and ``vp`` (virtual pipeline size:
    model chunks per stage) refine the pipeline schedule without using
    extra devices.

    Attributes:
        dp: Data-parallel size (ZeRO-1 optimizer partitioning assumed).
        pp: Pipeline-parallel size (number of stages).
        cp: Context-parallel size.
        tp: Tensor-parallel size.
        vp: Virtual pipeline size (chunks per stage).
        spp: Sequence-pipeline size (slices per sample), >= 1.
        recompute: Whether full activation recomputation is enabled.
        micro_batch_size: Samples per micro-batch (1 throughout Section 7).
    """

    dp: int = 1
    pp: int = 1
    cp: int = 1
    tp: int = 1
    vp: int = 1
    spp: int = 1
    recompute: bool = False
    micro_batch_size: int = 1

    def __post_init__(self) -> None:
        for name in ("dp", "pp", "cp", "tp", "vp", "spp", "micro_batch_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.vp > 1 and self.pp == 1:
            raise ValueError("virtual pipeline requires pp > 1")

    @property
    def num_devices(self) -> int:
        """Devices consumed by this configuration."""
        return self.dp * self.pp * self.cp * self.tp

    def micro_batches(self, global_batch_size: int) -> int:
        """Micro-batches ``n`` each pipeline processes per iteration.

        CP splits each sample across its group rather than consuming
        samples, so only DP and the micro-batch size divide the global
        batch (Section 7.3, Table 7 discussion).
        """
        per_pipeline = global_batch_size // self.dp
        if per_pipeline * self.dp != global_batch_size:
            raise ValueError(
                f"global batch {global_batch_size} not divisible by dp={self.dp}"
            )
        n = per_pipeline // self.micro_batch_size
        if n * self.micro_batch_size != per_pipeline:
            raise ValueError("per-pipeline batch not divisible by micro_batch_size")
        return n

    def describe(self) -> str:
        """Short human-readable summary like ``(PP=8, SPP=4, VP=1)``."""
        parts = [f"DP={self.dp}", f"PP={self.pp}"]
        if self.tp > 1:
            parts.append(f"TP={self.tp}")
        if self.cp > 1:
            parts.append(f"CP={self.cp}")
        if self.spp > 1:
            parts.append(f"SPP={self.spp}")
        if self.vp > 1:
            parts.append(f"VP={self.vp}")
        if self.recompute:
            parts.append("recompute")
        return "(" + ", ".join(parts) + ")"

    def with_(self, **changes: object) -> "ParallelConfig":
        """Return a modified copy (thin wrapper over ``dataclasses.replace``)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def sort_key(self) -> tuple[int, int, int, int, int, int, int, int]:
        """Total order over configurations, for deterministic tie-breaks.

        The planner's parallel sweeps merge worker results with
        ``(iteration_time, config.sort_key())`` so the selected optimum
        is independent of worker count and completion order.
        """
        return (
            self.dp, self.pp, self.cp, self.tp, self.vp, self.spp,
            int(self.recompute), self.micro_batch_size,
        )


def validate_for_cluster(
    config: ParallelConfig, num_devices: int, spec: ModelSpec
) -> list[str]:
    """Return a list of constraint violations (empty when valid)."""
    problems: list[str] = []
    if config.num_devices != num_devices:
        problems.append(
            f"dp*tp*cp*pp = {config.num_devices} != cluster size {num_devices}"
        )
    slots = spec.balanced_layer_count()
    chunks = config.pp * config.vp
    if slots % chunks != 0:
        problems.append(
            f"{slots} layer slots not divisible into {chunks} chunks "
            f"(pp={config.pp} x vp={config.vp})"
        )
    tokens = spec.seq_length
    if tokens % (config.cp * config.spp) != 0:
        problems.append(
            f"sequence {tokens} not divisible by cp*spp = {config.cp * config.spp}"
        )
    if config.spp > 1 and config.recompute:
        # MEPipe's slice scheduling replaces recomputation; combining them
        # is never selected and the execution engine does not support it.
        problems.append("spp > 1 with recomputation is not supported")
    return problems


# ----------------------------------------------------------------------
# Per-iteration communication volumes (bytes per device), Table 2.
# ----------------------------------------------------------------------
def cp_layer_comm_bytes(spec: ModelSpec, config: ParallelConfig) -> int:
    """CP wire bytes per transformer layer per micro-batch per device.

    Forward: all-gather of K and V over the CP group; backward: the
    matching reduce-scatter of dK/dV plus a second all-gather of KV for
    the attention backward.  Ring collectives move ``(g-1)/g`` of the
    full-sample KV footprint per device per collective.
    """
    g = config.cp
    if g <= 1:
        return 0
    kv_bytes = 2 * HALF * spec.seq_length * spec.kv_hidden_size
    return int(3 * (g - 1) / g * kv_bytes)


def tp_layer_comm_bytes(spec: ModelSpec, config: ParallelConfig) -> int:
    """TP wire bytes per layer per micro-batch per device.

    Megatron TP needs two activation all-reduces in forward and two in
    backward; a ring all-reduce moves ``2*(g-1)/g`` of the payload per
    device, so TP tops Table 2's communication ranking.
    """
    g = config.tp
    if g <= 1:
        return 0
    tokens = spec.seq_length // (config.cp * config.spp)
    act = HALF * tokens * spec.hidden_size
    return int(4 * 2 * (g - 1) / g * act)


def pp_boundary_bytes(spec: ModelSpec, config: ParallelConfig) -> int:
    """Bytes crossing one pipeline boundary per forward op.

    One activation tensor of the op's tokens; the backward pass sends
    the same volume of activation gradients.
    """
    tokens = config.micro_batch_size * spec.seq_length // (config.cp * config.spp)
    return HALF * tokens * spec.hidden_size


COMM_RANKING = ("TP", "CP", "DP", "PP", "SPP")
"""Strategies ordered from most to least communication (Table 2)."""
