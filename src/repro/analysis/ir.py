"""Symbolic tensor IR for the static model analyzer.

The numerical substrate (:mod:`repro.nn`) computes on concrete NumPy
arrays; this module describes the *types* of those arrays without
touching numerics.  A :class:`SymTensor` carries a tuple of dimensions
— concrete integers for model widths (``hidden``, ``ffn_hidden``,
``vocab``) and named symbols for the data-dependent extents ``batch``
and ``slice_len`` — plus a dtype tag.  Two tensors are interface
compatible exactly when their dim tuples and dtypes are equal; symbolic
dims compare by name, so ``batch × slice_len × 512`` matches itself on
any actual batch size but never matches ``batch × slice_len × 256``.

A :class:`PartitionSpec` is the abstract form of a chunk-partitioned
:class:`~repro.nn.model.TransformerModel`: per chunk, the ordered
:class:`ComponentSpec` descriptions the three analysis passes interpret
(:mod:`repro.analysis.shapes`, :mod:`repro.analysis.coverage`,
:mod:`repro.analysis.memory`).  All IR nodes are frozen and hashable —
the analyzer's verdict cache on a (frozen) schedule keys on the
partition.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

#: A tensor dimension: a concrete width or a named symbolic extent.
Dim = int | str

#: The symbolic per-sample batch extent.
BATCH: str = "batch"

#: The symbolic tokens-per-slice extent (``seq_length / num_slices``).
SLICE_LEN: str = "slice_len"

#: Bytes per element of each dtype tag (the substrate computes in
#: float64 and indexes with int64).
ITEMSIZE: dict[str, int] = {"i64": 8, "f64": 8}


@dataclass(frozen=True)
class SymTensor:
    """A symbolic tensor type: dimensions plus a dtype tag.

    ``dims == ()`` with dtype ``"f64"`` is the scalar loss produced by
    the pipeline's last component.
    """

    dims: tuple[Dim, ...]
    dtype: str = "f64"

    def __post_init__(self) -> None:
        if self.dtype not in ITEMSIZE:
            raise ValueError(f"unknown dtype tag {self.dtype!r}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    def render(self) -> str:
        """Human-readable form, e.g. ``batch×slice_len×512:f64``."""
        if not self.dims:
            return f"scalar:{self.dtype}"
        return "×".join(str(d) for d in self.dims) + f":{self.dtype}"

    def nbytes(self, bindings: Mapping[str, int]) -> int:
        """Concrete byte size once every symbolic dim is bound."""
        total = ITEMSIZE[self.dtype]
        for d in self.dims:
            total *= bindings[d] if isinstance(d, str) else d
        return total


#: Token-id input of the pipeline's first component.
TOKENS = SymTensor((BATCH, SLICE_LEN), "i64")

#: The scalar loss the pipeline's last component produces.
LOSS = SymTensor((), "f64")


def hidden_states(hidden: int) -> SymTensor:
    """The ``batch × slice_len × hidden`` activation payload."""
    return SymTensor((BATCH, SLICE_LEN, hidden), "f64")


@dataclass(frozen=True)
class ComponentSpec:
    """Abstract description of one :class:`~repro.nn.layers.Component`.

    Attributes:
        name: Position-qualified identifier, e.g. ``"decoder[3]"``.
        kind: ``"embedding"``, ``"decoder"``, or ``"loss_head"``.
        hidden: Model width the component consumes/produces.
        num_heads: Decoder attention heads (0 otherwise).
        num_kv_heads: Decoder key/value heads (GQA; 0 otherwise).
        ffn_hidden: Decoder MLP inner width (0 otherwise).
        vocab_size: Embedding/head vocabulary (0 otherwise).
        recompute: Decoder full-recomputation mode (keeps only the
            layer input after forward).
        param_shapes: ``(name, shape)`` pairs of the live parameters,
            checked against the architecture attributes.
        wgrad_params: Parameter names in the exact order the
            component's backward queues their weight-gradient tasks —
            the join key of the gradient-coverage proof.
    """

    name: str
    kind: str
    hidden: int
    num_heads: int = 0
    num_kv_heads: int = 0
    ffn_hidden: int = 0
    vocab_size: int = 0
    recompute: bool = False
    param_shapes: tuple[tuple[str, tuple[int, ...]], ...] = ()
    wgrad_params: tuple[str, ...] = ()

    @property
    def head_dim(self) -> int:
        """Per-head width; 0 for non-decoder components."""
        if self.kind != "decoder" or self.num_heads == 0:
            return 0
        return self.hidden // self.num_heads

    def param_shape(self, param: str) -> tuple[int, ...] | None:
        for name, shape in self.param_shapes:
            if name == param:
                return shape
        return None


@dataclass(frozen=True)
class ChunkSpec:
    """One contiguous model chunk of the pipeline partition."""

    index: int
    components: tuple[ComponentSpec, ...]


@dataclass(frozen=True)
class PartitionSpec:
    """A complete chunk-partitioned model, ready for abstract
    interpretation."""

    chunks: tuple[ChunkSpec, ...]

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def components(self) -> list[ComponentSpec]:
        """All components in pipeline order."""
        return [comp for chunk in self.chunks for comp in chunk.components]
