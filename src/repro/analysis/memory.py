"""Static per-stage live-memory inference for the numerical substrate.

Mirrors, array for array, the forward state each
:class:`~repro.nn.layers.Component` pins (its ``live_bytes``
accounting): the per-cell context tensors, the decoder's per-microbatch
KV cache growth and its release at slice 0's backward, and the pending
dK/dV buffers later slices leave for earlier ones.  Because a stage's
live state changes only at its own ops and a stage executes its program
strictly in order, the per-stage peak is a static property of the
program — the same argument that powers the schedule verifier's
liveness lint, applied to concrete bytes instead of activation units.

``infer_stage_memory`` therefore predicts exactly the
``peak_live_contexts`` / ``peak_live_bytes`` a
:class:`~repro.pipeline.runtime.PipelineRuntime` run observes; the
property tests assert bit-exact agreement over the E0 grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ir import ComponentSpec, PartitionSpec
from repro.schedules.graph import KIND_B, KIND_F, ScheduleGraph

#: Bytes per element; the substrate computes in float64 / indexes int64.
_ITEM = 8


@dataclass
class StageMemory:
    """Inferred memory profile of one stage.

    ``channel_buffer_bytes`` is the shared-memory ring footprint the
    stage pins as a message consumer under a given capacity plan — see
    :func:`repro.analysis.capacity.ring_bytes_per_stage`; it stays zero
    unless the caller stamps it, because ring sizing is a
    runtime/capacity choice, not a property of the program alone.
    """

    stage: int
    peak_live_bytes: int
    peak_live_contexts: int
    channel_buffer_bytes: int = 0


def decoder_ctx_bytes(
    comp: ComponentSpec, batch: int, t: int, sl: int
) -> int:
    """Bytes of one decoder slice context (non-recompute mode).

    Matches ``DecoderLayer._compute``'s saved dict: six ``B×t×h``
    tensors (x, y1, q_rot, merged, mid, y2), two ``B×t×1`` inverse-RMS
    vectors, three ``B×t×ffn`` MLP tensors, the attention probabilities
    ``B×H×t×(sl+1)·t`` (queries of this slice against the whole KV
    prefix), and the RoPE cos/sin tables ``t×(d/2)`` each.
    """
    h, f = comp.hidden, comp.ffn_hidden
    heads, d = comp.num_heads, comp.head_dim
    if comp.recompute:
        return _ITEM * batch * t * h  # layer input only
    elements = (
        6 * batch * t * h
        + 2 * batch * t
        + 3 * batch * t * f
        + batch * heads * t * (sl + 1) * t
        + 2 * t * (d // 2)
    )
    return _ITEM * elements


def kv_entry_bytes(comp: ComponentSpec, batch: int, t: int) -> int:
    """Bytes one slice appends to the KV cache (k_rot + v, kv-head
    layout)."""
    return 2 * _ITEM * batch * comp.num_kv_heads * t * comp.head_dim


def pending_entry_bytes(comp: ComponentSpec, batch: int, t: int) -> int:
    """Bytes of one pending (dK, dV) contribution buffer."""
    return kv_entry_bytes(comp, batch, t)


def embedding_ctx_bytes(batch: int, t: int) -> int:
    """The cached token-id slice (int64)."""
    return _ITEM * batch * t


def loss_head_ctx_bytes(comp: ComponentSpec, batch: int, t: int) -> int:
    """x, y (``B×t×h``), inv (``B×t×1``), dlogits (``B×t×V``)."""
    h, v = comp.hidden, comp.vocab_size
    return _ITEM * (2 * batch * t * h + batch * t + batch * t * v)


@dataclass
class _ComponentState:
    """Mutable abstract state of one live component."""

    spec: ComponentSpec
    ctx: dict[tuple[int, int], int] = field(default_factory=dict)
    kv: dict[int, list[int]] = field(default_factory=dict)
    pending: dict[tuple[int, int], int] = field(default_factory=dict)

    def live_bytes(self) -> int:
        total = sum(self.ctx.values())
        for entries in self.kv.values():
            total += sum(entries)
        total += sum(self.pending.values())
        return total

    def live_contexts(self) -> int:
        return len(self.ctx)

    # ------------------------------------------------------------------
    def forward(self, mb: int, sl: int, batch: int, t: int) -> None:
        spec = self.spec
        if spec.kind == "embedding":
            self.ctx[(mb, sl)] = embedding_ctx_bytes(batch, t)
        elif spec.kind == "loss_head":
            self.ctx[(mb, sl)] = loss_head_ctx_bytes(spec, batch, t)
        else:
            self.ctx[(mb, sl)] = decoder_ctx_bytes(spec, batch, t, sl)
            if spec.recompute:
                self.kv.pop(mb, None)
            else:
                self.kv.setdefault(mb, []).append(
                    kv_entry_bytes(spec, batch, t)
                )

    def backward(self, mb: int, sl: int, batch: int, t: int) -> None:
        spec = self.spec
        del self.ctx[(mb, sl)]
        if spec.kind != "decoder" or spec.recompute:
            return
        self.pending.pop((mb, sl), None)
        for j in range(sl):
            self.pending.setdefault(
                (mb, j), pending_entry_bytes(spec, batch, t)
            )
        if sl == 0:
            self.kv.pop(mb, None)


def infer_stage_memory(
    partition: PartitionSpec,
    graph: ScheduleGraph,
    batch: int,
    slice_len: int,
) -> list[StageMemory]:
    """Walk every stage's program and return its inferred peaks."""
    problem = graph.problem
    s, chunks = problem.num_slices, problem.num_chunks
    result: list[StageMemory] = []
    for stage, (lo, hi) in enumerate(graph.stage_bounds):
        states = {
            c: [_ComponentState(spec=comp) for comp in partition.chunks[c].components]
            for c in problem.chunks_of_stage(stage)
        }
        peak_bytes = 0
        peak_contexts = 0
        for i in range(lo, hi):
            cell = graph.cell[i]
            mb, rest = divmod(cell, s * chunks)
            sl, c = divmod(rest, chunks)
            if graph.kind[i] == KIND_F:
                for state in states[c]:
                    state.forward(mb, sl, batch, slice_len)
            elif graph.kind[i] == KIND_B:
                for state in reversed(states[c]):
                    state.backward(mb, sl, batch, slice_len)
            live_bytes = sum(
                st.live_bytes() for group in states.values() for st in group
            )
            live_contexts = sum(
                st.live_contexts() for group in states.values() for st in group
            )
            peak_bytes = max(peak_bytes, live_bytes)
            peak_contexts = max(peak_contexts, live_contexts)
        result.append(
            StageMemory(
                stage=stage,
                peak_live_bytes=peak_bytes,
                peak_live_contexts=peak_contexts,
            )
        )
    return result
