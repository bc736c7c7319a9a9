"""Transformer model specifications used throughout the reproduction.

The paper evaluates Llama 2 models with 7B, 13B, and 34B parameters
(Table 4), with two transformer layers removed so the embedding and head
layers can be balanced against transformer layers when partitioning the
pipeline (Section 7.1).  The presets here mirror those configurations.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a decoder-only transformer.

    Attributes:
        name: Human-readable identifier, e.g. ``"llama-13b"``.
        hidden_size: Model (embedding) dimension ``h``.
        num_layers: Number of transformer decoder layers.
        num_heads: Number of attention heads.
        num_kv_heads: Number of key/value heads (GQA); equals ``num_heads``
            for classic multi-head attention.
        ffn_hidden_size: Inner dimension of the (SwiGLU) MLP.
        vocab_size: Vocabulary size of the tokenizer.
        seq_length: Training context length in tokens.
        tied_embeddings: Whether input embedding and LM head share weights.
    """

    name: str
    hidden_size: int
    num_layers: int
    num_heads: int
    ffn_hidden_size: int
    vocab_size: int = 32000
    seq_length: int = 4096
    num_kv_heads: int | None = None
    tied_embeddings: bool = False

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.num_kv_heads is None:
            object.__setattr__(self, "num_kv_heads", self.num_heads)
        if self.num_heads % self.kv_heads != 0:
            raise ValueError("num_heads must be a multiple of num_kv_heads")

    @property
    def kv_heads(self) -> int:
        """Key/value head count with the MHA default applied."""
        return self.num_kv_heads if self.num_kv_heads is not None else self.num_heads

    @property
    def head_dim(self) -> int:
        """Dimension of a single attention head."""
        return self.hidden_size // self.num_heads

    @property
    def kv_hidden_size(self) -> int:
        """Total width of the K (or V) projection output."""
        return self.kv_heads * self.head_dim

    # ------------------------------------------------------------------
    # Parameter counting
    # ------------------------------------------------------------------
    def layer_params(self) -> int:
        """Parameters in one transformer layer (attention + MLP + norms)."""
        h = self.hidden_size
        attn = h * h + 2 * h * self.kv_hidden_size + h * h  # Q, K, V, out
        mlp = 3 * h * self.ffn_hidden_size  # SwiGLU: gate, up, down
        norms = 2 * h  # two RMSNorm weight vectors
        return attn + mlp + norms

    def embedding_params(self) -> int:
        """Parameters of the token-embedding table."""
        return self.vocab_size * self.hidden_size

    def head_params(self) -> int:
        """Parameters of the LM head (0 when tied with the embedding)."""
        return 0 if self.tied_embeddings else self.vocab_size * self.hidden_size

    def total_params(self) -> int:
        """Total parameter count of the full model."""
        final_norm = self.hidden_size
        return (
            self.embedding_params()
            + self.num_layers * self.layer_params()
            + final_norm
            + self.head_params()
        )

    # ------------------------------------------------------------------
    # Pipeline partitioning helpers
    # ------------------------------------------------------------------
    def balanced_layer_count(self) -> int:
        """Number of schedulable layers when embedding/head count as layers.

        Section 7.1: two transformer layers are removed so the embedding
        layer and the head layer each occupy one layer slot, keeping the
        per-stage workload balanced.  Llama 13B thus has 38 transformer
        layers + embedding + head = 40 slots.
        """
        return self.num_layers + 2


def _preset(**kwargs: object) -> ModelSpec:
    return ModelSpec(**kwargs)  # type: ignore[arg-type]


#: Llama 2 7B with two layers removed (30 instead of 32), per Section 7.1.
LLAMA_7B = _preset(
    name="llama-7b",
    hidden_size=4096,
    num_layers=30,
    num_heads=32,
    ffn_hidden_size=11008,
)

#: Llama 2 13B with two layers removed (38 instead of 40).
LLAMA_13B = _preset(
    name="llama-13b",
    hidden_size=5120,
    num_layers=38,
    num_heads=40,
    ffn_hidden_size=13824,
)

#: Llama 34B (Code-Llama-34B geometry) with two layers removed (46 of 48).
LLAMA_34B = _preset(
    name="llama-34b",
    hidden_size=8192,
    num_layers=46,
    num_heads=64,
    num_kv_heads=8,
    ffn_hidden_size=22016,
)

#: All evaluation models keyed by short name.
MODELS: dict[str, ModelSpec] = {
    "7b": LLAMA_7B,
    "13b": LLAMA_13B,
    "34b": LLAMA_34B,
}


def get_model(name: str) -> ModelSpec:
    """Look up a preset by short ("13b") or full ("llama-13b") name."""
    key = name.lower()
    if key in MODELS:
        return MODELS[key]
    for spec in MODELS.values():
        if spec.name == key:
            return spec
    raise KeyError(f"unknown model {name!r}; known: {sorted(MODELS)}")


def tiny_spec(
    hidden_size: int = 64,
    num_layers: int = 4,
    num_heads: int = 4,
    ffn_hidden_size: int = 128,
    vocab_size: int = 97,
    seq_length: int = 32,
) -> ModelSpec:
    """A miniature spec for the NumPy training substrate and tests."""
    return ModelSpec(
        name="tiny",
        hidden_size=hidden_size,
        num_layers=num_layers,
        num_heads=num_heads,
        ffn_hidden_size=ffn_hidden_size,
        vocab_size=vocab_size,
        seq_length=seq_length,
    )
