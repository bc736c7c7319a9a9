"""Core data model for pipeline schedules.

Every scheduling method in this library — the baselines (GPipe, DAPPLE,
VPP, Hanayo, TeraPipe, zero-bubble) and MEPipe's SVPP — produces the
same artifact: an ordered list of typed operations per pipeline stage
over a shared dependency graph.  The simulator, the memory ledger, the
NumPy pipeline runtime, and the visualizer all consume this one
representation.

The dependency structure (Section 4.1 of the paper) is:

* ``F(mb, sl, c)`` — forward of slice ``sl`` of micro-batch ``mb`` on
  model chunk ``c`` — needs the previous chunk's output
  ``F(mb, sl, c-1)`` and, because causal attention consumes the keys and
  values of every preceding slice, ``F(mb, sl-1, c)``.
* ``B(mb, sl, c)`` — backward (activation gradients when the backward
  pass is split) — needs ``B(mb, sl, c+1)``, the later slice's backward
  ``B(mb, sl+1, c)`` (dK/dV contributions flow backward from later
  slices), and its own forward ``F(mb, sl, c)``.
* ``W(mb, sl, c, g)`` — weight-gradient GEMM ``g`` — needs only
  ``B(mb, sl, c)`` and can be deferred arbitrarily (Section 5).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property


class OpKind(enum.Enum):
    """Type of a pipeline operation."""

    F = "F"  #: forward pass of one slice on one chunk
    B = "B"  #: backward pass (activation gradients if split)
    W = "W"  #: weight-gradient computation (whole or one GEMM)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class OpId:
    """Identity of one schedulable operation.

    Attributes:
        kind: F, B, or W.
        microbatch: Micro-batch index in ``[0, n)``.
        slice_idx: Slice index within the sample, ``[0, s)``.
        chunk: Global model-chunk index in ``[0, v*p)``; chunk 0 holds
            the first layers, chunk ``v*p - 1`` the head.
        gemm: For ``W`` ops with fine-grained decomposition, the GEMM
            index within the chunk; ``-1`` for a monolithic W op.
    """

    kind: OpKind
    microbatch: int
    slice_idx: int
    chunk: int
    gemm: int = -1
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        # OpIds key every dict in the verifier, simulator, and greedy
        # generator; the dataclass-generated hash re-hashes the OpKind
        # enum on each probe, which profiles as the single hottest call
        # in a planner sweep.  Freeze the hash at construction instead.
        object.__setattr__(
            self,
            "_hash",
            hash((self.kind.value, self.microbatch, self.slice_idx, self.chunk, self.gemm)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        tag = f"{self.kind.value}{self.microbatch}.{self.slice_idx}c{self.chunk}"
        if self.gemm >= 0:
            tag += f"g{self.gemm}"
        return tag

    def sort_key(self) -> tuple[str, int, int, int, int]:
        """Deterministic total order for reporting and diffing."""
        return (self.kind.value, self.microbatch, self.slice_idx, self.chunk, self.gemm)

    def __lt__(self, other: "OpId") -> bool:
        return self.sort_key() < other.sort_key()


@dataclass(frozen=True)
class PipelineProblem:
    """The static description one iteration of pipelined training.

    Attributes:
        num_stages: Pipeline-parallel size ``p``.
        num_microbatches: Micro-batches ``n`` per iteration.
        num_slices: Sequence-pipeline size ``s`` (slices per sample).
        virtual_size: Virtual-pipeline size ``v`` (chunks per stage).
        split_backward: Whether backward is split into B (activation
            grads) and W (weight grads) ops, as in zero-bubble / MEPipe.
        wgrad_gemms: Number of W GEMM fragments per (slice, chunk) when
            ``split_backward``; 1 keeps W monolithic, larger values are
            MEPipe's fine-grained decomposition (Section 5).
        chunk_placement: ``"interleaved"`` assigns chunk ``c`` to stage
            ``c % p`` (Megatron VPP and SVPP); ``"vshape"`` alternates
            direction each round (Hanayo / ZBV style).
    """

    num_stages: int
    num_microbatches: int
    num_slices: int = 1
    virtual_size: int = 1
    split_backward: bool = False
    wgrad_gemms: int = 1
    chunk_placement: str = "interleaved"

    def __post_init__(self) -> None:
        if self.num_stages < 1 or self.num_microbatches < 1:
            raise ValueError("num_stages and num_microbatches must be >= 1")
        if self.num_slices < 1 or self.virtual_size < 1:
            raise ValueError("num_slices and virtual_size must be >= 1")
        if self.wgrad_gemms < 1:
            raise ValueError("wgrad_gemms must be >= 1")
        if not self.split_backward and self.wgrad_gemms != 1:
            raise ValueError("wgrad_gemms > 1 requires split_backward")
        if self.chunk_placement not in ("interleaved", "vshape"):
            raise ValueError(f"unknown chunk placement {self.chunk_placement!r}")

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    @property
    def num_chunks(self) -> int:
        """Total model chunks ``v * p``."""
        return self.num_stages * self.virtual_size

    @cached_property
    def _placement_tables(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``(stage_of_chunk, chunks_of_stage)`` computed once per problem.

        ``cached_property`` writes straight into the instance ``__dict__``
        so it composes with the frozen dataclass (no ``__setattr__``).
        """
        p = self.num_stages
        vshape = self.chunk_placement == "vshape"
        stage_of: list[int] = []
        chunks_of: list[list[int]] = [[] for _ in range(p)]
        for c in range(self.num_chunks):
            pos, rnd = c % p, c // p
            st = p - 1 - pos if vshape and rnd % 2 == 1 else pos
            stage_of.append(st)
            chunks_of[st].append(c)
        return tuple(stage_of), tuple(tuple(cs) for cs in chunks_of)

    def stage_of_chunk(self, chunk: int) -> int:
        """Pipeline stage hosting a model chunk."""
        if not 0 <= chunk < self.num_chunks:
            raise ValueError(f"chunk {chunk} out of range")
        return self._placement_tables[0][chunk]

    def chunks_of_stage(self, stage: int) -> list[int]:
        """Model chunks hosted by ``stage``, in ascending depth order."""
        return list(self._placement_tables[1][stage])

    @property
    def activation_units_per_op(self) -> float:
        """Activation share of one F op, as a fraction of ``A``.

        One F op covers ``1/v/p`` of the layers for ``1/s`` of the
        sample's tokens — the denominators of Section 4.1's arithmetic.
        """
        return 1.0 / (self.num_chunks * self.num_slices)

    @property
    def ledger_steps(self) -> tuple[float, float, float]:
        """Section 4.5's activation ledger: ``(f, b, w)``, the units one
        F, B and W op add to its stage's pinned memory (releases
        negated).

        An F op pins its slice activation until consumed: a fused B
        frees it; a split B additionally pins the same size of
        activation gradients, and each of the ``g`` W GEMMs releases a
        ``1/g`` share of both.  With a fused backward there are no W
        ops, so ``w`` is 0.0.  Adding a negated release equals
        subtracting it in IEEE-754, so every ledger reading these steps
        accumulates the same bits.
        """
        unit = self.activation_units_per_op
        if not self.split_backward:
            return unit, -unit, 0.0
        return unit, unit, -(unit * 2.0 / self.wgrad_gemms)

    # ------------------------------------------------------------------
    # Op enumeration and dependencies
    # ------------------------------------------------------------------
    def forward_ops(self) -> Iterator[OpId]:
        """All F ops, unordered semantics (iteration is deterministic)."""
        for mb in range(self.num_microbatches):
            for sl in range(self.num_slices):
                for c in range(self.num_chunks):
                    yield OpId(OpKind.F, mb, sl, c)

    def backward_ops(self) -> Iterator[OpId]:
        """All B ops."""
        for mb in range(self.num_microbatches):
            for sl in range(self.num_slices):
                for c in range(self.num_chunks):
                    yield OpId(OpKind.B, mb, sl, c)

    def wgrad_ops(self) -> Iterator[OpId]:
        """All W ops (empty unless the backward pass is split)."""
        if not self.split_backward:
            return
        for mb in range(self.num_microbatches):
            for sl in range(self.num_slices):
                for c in range(self.num_chunks):
                    for g in range(self.wgrad_gemms):
                        yield OpId(OpKind.W, mb, sl, c, g)

    def all_ops(self) -> list[OpId]:
        """Every op of one iteration."""
        return [*self.forward_ops(), *self.backward_ops(), *self.wgrad_ops()]

    def stage_of(self, op: OpId) -> int:
        """Stage that executes ``op``."""
        return self.stage_of_chunk(op.chunk)

    def deps(self, op: OpId) -> list[OpId]:
        """Direct dependencies of ``op`` (see module docstring)."""
        mb, sl, c = op.microbatch, op.slice_idx, op.chunk
        out: list[OpId] = []
        if op.kind is OpKind.F:
            if c > 0:
                out.append(OpId(OpKind.F, mb, sl, c - 1))
            if sl > 0:
                out.append(OpId(OpKind.F, mb, sl - 1, c))
        elif op.kind is OpKind.B:
            out.append(OpId(OpKind.F, mb, sl, c))
            if c < self.num_chunks - 1:
                out.append(OpId(OpKind.B, mb, sl, c + 1))
            if sl < self.num_slices - 1:
                out.append(OpId(OpKind.B, mb, sl + 1, c))
        else:
            out.append(OpId(OpKind.B, mb, sl, c))
        return out

    def is_cross_stage(self, dep: OpId, op: OpId) -> bool:
        """Whether satisfying ``dep -> op`` requires a stage-to-stage send."""
        return self.stage_of(dep) != self.stage_of(op)


@dataclass(frozen=True)
class StageProgram:
    """The ordered ops one stage executes, frozen into a tuple."""

    stage: int
    ops: Sequence[OpId] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))


@dataclass(frozen=True)
class Schedule:
    """A complete schedule: one ordered program per stage.

    Invariants (checked by :func:`repro.schedules.verify.ensure_verified`):
    each op appears exactly once, on the stage that hosts its chunk, and
    the per-stage orders are consistent with the dependency graph (no
    deadlock).

    A schedule is a value: the programs it is given are frozen into
    tuples, and assigning a field raises, so whatever is derived from
    it once — the compiled graph, the verifier's verdict — stays true
    for the object's whole life.  Those derivations are cached on the
    object (``object.__setattr__``, outside the fields); to change a
    schedule, build a new one from edited copies of its programs.
    """

    problem: PipelineProblem
    programs: Sequence[StageProgram]
    name: str = "unnamed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "programs", tuple(self.programs))

    def op_count(self) -> int:
        """Total ops across all stages."""
        return sum(len(pr.ops) for pr in self.programs)


class ScheduleError(Exception):
    """A schedule violates placement, completeness, or dependency rules."""

