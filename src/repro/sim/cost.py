"""Cost models: how long each pipeline op takes and what communication costs.

Two implementations:

* :class:`UniformCost` — abstract unit times, used to verify schedules
  against the closed-form bubble/memory expressions of Table 3.
* :class:`ClusterCost` — calibrated per-op times for a concrete model,
  parallel configuration, and cluster, used by every end-to-end
  experiment (Figures 8/10, Tables 5-9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Callable, Protocol

from repro.hardware.cluster import ClusterSpec
from repro.hardware.comm import ring_all_gather_time, ring_all_reduce_time
from repro.hardware.efficiency import DEFAULT_EFFICIENCY, EfficiencyModel
from repro.model.flops import attention_score_flops, head_slice_flops, layer_slice_flops
from repro.model.memory import HALF, sample_activation_bytes
from repro.model.spec import ModelSpec
from repro.parallel.strategies import ParallelConfig
from repro.schedules.base import OpId, OpKind, PipelineProblem


class CostModel(Protocol):
    """Per-op timing interface consumed by the executor.

    A cost model prices time only: the activation memory an op pins is
    the problem's (:attr:`PipelineProblem.ledger_steps`), not the
    model's.  Implementations may additionally set a class attribute
    ``microbatch_invariant = True`` to declare that ``duration`` and
    ``comm_time`` do not depend on the micro-batch index of their
    arguments.  Such a model is probed once per (problem, model), for
    micro-batch 0 only, into a :class:`CostTable` (:func:`cost_table`)
    that the build-free bounds, the greedy generator and the dense
    replay read; the heap engine keeps its own per-key probes.  Both
    built-in models qualify.
    """

    def duration(self, op: OpId) -> float:
        """Execution time of ``op`` in seconds (or abstract units)."""
        ...

    def comm_time(self, dep: OpId, op: OpId) -> float:
        """Transfer time of the tensor satisfying the edge ``dep -> op``."""
        ...


@dataclass(frozen=True)
class CostTable:
    """Micro-batch-0 costs of one (problem, cost model) pair, indexed
    without ``OpId``\\ s.

    ``dur`` is indexed by mb-0 op code, the compiled graph's layout at
    one micro-batch: F(sl, c) at ``b = sl*chunks + c``, B at ``sc + b``,
    W(sl, c, g) at ``2*sc + b*gemms + g`` (``sc = s*chunks``; no W
    block unless the backward is split).  Comm is one list per
    dependency kind, indexed by the producer's cell ``b`` (``b_to_w`` by
    the W offset ``b*gemms + g``); an edge the problem does not have
    reads 0.0.  Every float is the model's own answer for that op or
    edge, so readers see exactly what a per-op probe returns.  All
    lists are read-only to callers.
    """

    dur: list[float]
    f_next_chunk: list[float]  # F(sl, c) -> F(sl, c + 1)
    f_next_slice: list[float]  # F(sl, c) -> F(sl + 1, c)
    f_to_b: list[float]  # F(sl, c) -> B(sl, c)
    b_prev_chunk: list[float]  # B(sl, c) -> B(sl, c - 1)
    b_prev_slice: list[float]  # B(sl, c) -> B(sl - 1, c)
    b_to_w: list[float]  # B(sl, c) -> W(sl, c, g)


def cost_table(problem: PipelineProblem, cost: CostModel) -> CostTable | None:
    """The :class:`CostTable` of ``problem`` under ``cost``, or ``None``
    when the model does not declare ``microbatch_invariant``.

    Built once per (problem, model) and kept in the model's
    ``_tables`` (both built-in models have one; another model is probed
    afresh per call): the one place a micro-batch-invariant model is
    probed for the build-free bounds, the greedy generator and the
    dense replay.
    """
    if not getattr(cost, "microbatch_invariant", False):
        return None
    tables = getattr(cost, "_tables", None)
    if tables is None:
        return _probe_table(problem, cost)
    key = ("cost_table", problem)
    table = tables.get(key)
    if table is None:
        table = tables[key] = _probe_table(problem, cost)
    return table


def _probe_table(problem: PipelineProblem, cost: CostModel) -> CostTable:
    s, chunks, gemms = problem.num_slices, problem.num_chunks, problem.wgrad_gemms
    sc = s * chunks
    f_ops = [OpId(OpKind.F, 0, sl, c) for sl in range(s) for c in range(chunks)]
    b_ops = [OpId(OpKind.B, 0, sl, c) for sl in range(s) for c in range(chunks)]
    w_ops = [
        OpId(OpKind.W, 0, b // chunks, b % chunks, g)
        for b in range(sc if problem.split_backward else 0)
        for g in range(gemms)
    ]
    ops = f_ops + b_ops + w_ops
    comm = cost.comm_time
    return CostTable(
        dur=[cost.duration(op) for op in ops],
        f_next_chunk=[
            comm(f_ops[b], f_ops[b + 1]) if b % chunks < chunks - 1 else 0.0
            for b in range(sc)
        ],
        f_next_slice=[
            comm(f_ops[b], f_ops[b + chunks]) if b + chunks < sc else 0.0
            for b in range(sc)
        ],
        f_to_b=[comm(f, b) for f, b in zip(f_ops, b_ops)],
        b_prev_chunk=[
            comm(b_ops[b], b_ops[b - 1]) if b % chunks else 0.0 for b in range(sc)
        ],
        b_prev_slice=[
            comm(b_ops[b], b_ops[b - chunks]) if b >= chunks else 0.0
            for b in range(sc)
        ],
        b_to_w=[comm(b_ops[i // gemms], w) for i, w in enumerate(w_ops)],
    )


def stamp_byte_sizes(result: object, cost: CostModel) -> None:
    """Stamp the byte conversions ``cost`` knows onto an evaluation
    result (frozen or not), so its ``IterationMetrics`` carry real bytes
    instead of zeros."""
    act_bytes = getattr(cost, "activation_bytes_per_unit", None)
    if callable(act_bytes):
        object.__setattr__(result, "activation_bytes_per_unit", float(act_bytes()))
    msg_bytes = getattr(cost, "boundary_message_bytes", None)
    if callable(msg_bytes):
        object.__setattr__(result, "comm_bytes_per_message", float(msg_bytes()))


@dataclass(frozen=True)
class UniformCost:
    """Unit-time cost model for schedule-structure analysis.

    ``tf``/``tb``/``tw`` are the times of a *full-chunk, full-sample*
    forward, backward, and weight-gradient pass; slice/chunk granularity
    divides them evenly, and communication is free.  An optional
    ``imbalance`` maps a slice index to a forward-time multiplier, used
    to study the attention-score imbalance in isolation (Figure 7).
    """

    problem: PipelineProblem
    tf: float = 1.0
    tb: float = 2.0
    tw: float = 0.0
    imbalance: tuple[float, ...] = ()
    _tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    microbatch_invariant = True

    def _scale(self, op: OpId) -> float:
        s = 1.0 / self.problem.num_slices
        if self.imbalance:
            total = sum(self.imbalance)
            s = self.imbalance[op.slice_idx] / total
        return s / self.problem.virtual_size

    def duration(self, op: OpId) -> float:
        if op.kind is OpKind.F:
            return self.tf * self._scale(op)
        if op.kind is OpKind.B:
            return self.tb * self._scale(op)
        per_chunk = self.tw / (self.problem.num_slices * self.problem.virtual_size)
        return per_chunk / self.problem.wgrad_gemms

    def comm_time(self, dep: OpId, op: OpId) -> float:
        return 0.0


def _instance_table(method: Callable[..., Any]) -> Callable[..., Any]:
    """Memoise ``method`` per argument tuple in ``self._tables``, freed
    with the instance (a class-level ``lru_cache`` keys on ``self`` and
    pins every cost model a process ever built)."""
    name = method.__name__

    @wraps(method)
    def probe(self: Any, *args: Any) -> Any:
        key = (name, *args)
        try:
            return self._tables[key]
        except KeyError:
            value = self._tables[key] = method(self, *args)
            return value

    return probe


@dataclass(frozen=True)
class ClusterCost:
    """Calibrated cost model for one (model, config, cluster) triple.

    Per-op compute times come from the analytical FLOP counts and the
    kernel-efficiency curves; context parallelism inflates op times with
    its partially-overlapped per-layer collectives; pipeline edges pay
    point-to-point time on the link between the two stages, derated by
    the number of pipeline groups sharing each NIC.

    Attributes:
        spec: Model being trained.
        config: Parallel configuration (``config.spp`` must equal the
            problem's ``num_slices`` and ``config.vp`` its
            ``virtual_size``).
        cluster: Hardware the job runs on.
        problem: The pipeline problem sized for this config.
        cp_overlap: Fraction of CP collective time hidden under compute.
        recompute_factor: Extra backward compute when full recomputation
            is on (Section 7.3: ~33% more computation overall, i.e. the
            full forward is replayed before backward).
    """

    spec: ModelSpec
    config: ParallelConfig
    cluster: ClusterSpec
    problem: PipelineProblem
    eff: EfficiencyModel = DEFAULT_EFFICIENCY
    # Ring-attention KV exchange overlaps poorly with compute on PCIe
    # hosts (no copy engines to spare, host-bridge contention).
    cp_overlap: float = 0.25
    dp_overlap: float = 0.5
    _tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    microbatch_invariant = True

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    @property
    def tokens_per_op(self) -> int:
        """Tokens one pipeline op processes on this worker."""
        return self.spec.seq_length // (self.config.cp * self.config.spp)

    @property
    def efficiency_tokens(self) -> int:
        """Kernel-shape token count for the efficiency curves.

        Megatron's context parallelism cuts each sample into ``2*CP``
        chunks and gives every worker two symmetric ones to balance the
        causal workload (Section 7.3), so CP kernels see *half* the
        tokens the worker processes per op — the reason CP degrades
        operator performance faster than SPP in Figure 9.
        """
        tokens = self.tokens_per_op
        return tokens // 2 if self.config.cp > 1 else tokens

    def _slice_offset(self, slice_idx: int) -> int:
        """Context offset of a slice, for attention-imbalance FLOPs.

        With CP, each worker holds an even share of every context
        region (Megatron's symmetric placement), so the effective
        offset is the slice offset within the full sample.
        """
        return slice_idx * (self.spec.seq_length // self.config.spp)

    @_instance_table
    def _chunk_layers(self, chunk: int) -> tuple[int, bool, bool]:
        """(transformer layers, has_embedding, has_head) of a chunk.

        Slots that do not divide evenly are spread over the leading
        chunks, mirroring how Megatron balances uneven stage splits.
        """
        slots = self.spec.balanced_layer_count()
        chunks = self.problem.num_chunks
        per_chunk, rem = divmod(slots, chunks)
        my_slots = per_chunk + (1 if chunk < rem else 0)
        first = chunk == 0
        last = chunk == chunks - 1
        layers = my_slots - (1 if first else 0) - (1 if last else 0)
        return max(layers, 0), first, last

    # ------------------------------------------------------------------
    # Per-op compute time
    # ------------------------------------------------------------------
    def _gemm_seconds(self, flops: float) -> float:
        peak = self.cluster.gpu.effective_tflops * 1e12
        return flops / (peak * self.eff.gemm(self.efficiency_tokens))

    def _attn_seconds(self, flops: float) -> float:
        peak = self.cluster.gpu.effective_tflops * 1e12
        return flops / (peak * self.eff.attention(self.efficiency_tokens))

    @_instance_table
    def _slice_seconds(
        self, slice_idx: int
    ) -> tuple[float, float, float, float, float, float]:
        """FLOP seconds every chunk of slice ``slice_idx`` combines: one
        transformer layer's forward, backward (dgrad) and weight
        gradient, then the head's three.  A chunk's layer class only
        scales and adds them, so the FLOP math runs once per slice."""
        tokens = self.tokens_per_op * self.config.cp  # per-slice tokens
        offset = self._slice_offset(slice_idx)
        per_layer = layer_slice_flops(self.spec, tokens, offset)
        head = head_slice_flops(self.spec, tokens)
        attn_f = attention_score_flops(self.spec, tokens, offset)
        attn_b = 2 * attn_f
        gemm = self._gemm_seconds
        return (
            gemm(per_layer.forward - attn_f) + self._attn_seconds(attn_f),
            gemm(per_layer.backward_dgrad - attn_b) + self._attn_seconds(attn_b),
            gemm(per_layer.backward_wgrad),
            gemm(head.forward),
            gemm(head.backward_dgrad),
            gemm(head.backward_wgrad),
        )

    def _compute_seconds(
        self, kind: OpKind, slice_idx: int, layer_class: tuple[int, bool, bool]
    ) -> float:
        """FLOP seconds of one op on a chunk of ``layer_class``."""
        fwd, bwd, _w, head_f, head_b, _hw = self._slice_seconds(slice_idx)
        layers, _unused, has_head = layer_class
        # CP splits every op's FLOPs across its group; TP splits every
        # GEMM and every attention head across its group.
        share = self.config.micro_batch_size / (self.config.cp * self.config.tp)
        if kind is OpKind.F:
            t = layers * fwd
            if has_head:
                t += head_f
            return t * share  # unchanged by recompute: the replay is charged to B
        if kind is OpKind.B:
            t = layers * bwd
            if has_head:
                t += head_b
            if not self.problem.split_backward:
                t += self._wgrad_chunk_seconds(slice_idx, layer_class)
            if self.config.recompute:
                # Replay the chunk's forward before its backward.
                t += layers * fwd
            return t * share
        return self._wgrad_chunk_seconds(slice_idx, layer_class) * share

    def _wgrad_chunk_seconds(
        self, slice_idx: int, layer_class: tuple[int, bool, bool]
    ) -> float:
        _f, _b, wgrad, _hf, _hb, head_w = self._slice_seconds(slice_idx)
        layers, _unused, has_head = layer_class
        t = layers * wgrad
        if has_head:
            t += head_w
        return t

    @_instance_table
    def _tp_layer_overhead(self) -> float:
        """Exposed per-layer TP all-reduce time (forward direction).

        Megatron TP needs two activation all-reduces per layer per
        direction; they sit on the critical path (barely overlappable).
        """
        tp = self.config.tp
        if tp <= 1:
            return 0.0
        ranks = list(range(tp))  # TP groups always within a node
        link = self.cluster.group_link(ranks)
        act = HALF * self.tokens_per_op * self.spec.hidden_size
        act *= self.config.micro_batch_size
        return 2 * ring_all_reduce_time(act, tp, link)

    @_instance_table
    def _cp_layer_overhead(self) -> float:
        """Exposed per-layer CP collective time (forward direction)."""
        cp = self.config.cp
        if cp <= 1:
            return 0.0
        ranks = list(range(cp))  # CP groups are placed within a node
        link = self.cluster.group_link(ranks)
        from dataclasses import replace

        link = replace(link, bandwidth_gbps=link.collective_bandwidth_gbps)
        kv = 2 * HALF * self.spec.seq_length * self.spec.kv_hidden_size
        kv //= self.config.spp
        t = ring_all_gather_time(kv, cp, link)
        return t * (1.0 - self.cp_overlap)

    # ------------------------------------------------------------------
    # CostModel interface
    # ------------------------------------------------------------------
    def duration(self, op: OpId) -> float:
        return self._op_seconds(op.kind, op.slice_idx, self._chunk_layers(op.chunk))

    @_instance_table
    def _op_seconds(
        self, kind: OpKind, slice_idx: int, layer_class: tuple[int, bool, bool]
    ) -> float:
        """Duration of one op on a chunk of ``layer_class``
        (:meth:`_chunk_layers`).  The chunk is read only through its
        class, so the memo holds one entry per (kind, slice, class)
        and chunks of one class share it."""
        base = self._compute_seconds(kind, slice_idx, layer_class)
        if kind is OpKind.W:
            return base / self.problem.wgrad_gemms
        extra = layer_class[0] * (self._cp_layer_overhead() + self._tp_layer_overhead())
        if kind is OpKind.B:
            extra *= 2.0  # backward needs the mirrored collectives
        return base + extra

    def comm_time(self, dep: OpId, op: OpId) -> float:
        stage_a = self.problem.stage_of_chunk(dep.chunk)
        stage_b = self.problem.stage_of_chunk(op.chunk)
        if stage_a == stage_b:
            return 0.0
        return self._boundary_seconds(stage_a, stage_b)

    @_instance_table
    def _boundary_seconds(self, stage_a: int, stage_b: int) -> float:
        """Transfer time of one boundary tensor between two stages.

        Identical for every edge on the same stage pair, so the replay
        loop pays one dict probe per edge instead of recomputing the
        payload/link/sharing arithmetic.
        """
        nbytes = (
            HALF
            * self.config.micro_batch_size
            * self.tokens_per_op
            * self.spec.hidden_size
        )
        link = self._pp_link(stage_a, stage_b)
        # Every co-located pipeline group sends its boundary tensor at
        # roughly the same moment; an inter-node NIC is shared by all of
        # them, an intra-node fabric is point-to-point.
        groups = self.config.dp * self.config.cp * self.config.tp
        sharing = min(groups, self.cluster.gpus_per_node)
        if link is self.cluster.inter_node_link:
            return link.latency_s + (nbytes * sharing) / (link.bandwidth_gbps * 1e9)
        return link.p2p_time(nbytes)

    def _pp_link(self, stage_a: int, stage_b: int):
        """Link between two pipeline stages under Megatron placement.

        Ranks are ordered (tp, cp, dp, pp): pipeline stages are the
        outermost dimension, so with ``p >= num_nodes`` consecutive
        stages land on different nodes whenever the per-stage group
        spans a full node.
        """
        group = self.config.dp * self.config.cp * self.config.tp
        rank_a = stage_a * group
        rank_b = stage_b * group
        rank_a %= self.cluster.num_devices
        rank_b %= self.cluster.num_devices
        return self.cluster.link_between(rank_a, rank_b)

    # ------------------------------------------------------------------
    # Iteration-level extras
    # ------------------------------------------------------------------
    def boundary_message_bytes(self) -> float:
        """Payload of one cross-stage boundary tensor (one micro-batch slice)."""
        return float(
            HALF
            * self.config.micro_batch_size
            * self.tokens_per_op
            * self.spec.hidden_size
        )

    def activation_bytes_per_unit(self) -> float:
        """Bytes of one ``A`` unit on this worker.

        CP divides the tokens; TP divides (almost all of) the stored
        tensors.
        """
        per = sample_activation_bytes(self.spec, recompute=self.config.recompute)
        return per * self.config.micro_batch_size / (self.config.cp * self.config.tp)

    def _replica_group(self) -> tuple[int, bool]:
        """(size, spans_nodes) of the DP*CP parameter-replica group."""
        group = self.config.dp * self.config.cp
        spans = group * self.config.tp > self.cluster.gpus_per_node
        return group, spans

    def dp_sync_seconds(self) -> float:
        """Exposed gradient all-reduce time at the end of the iteration.

        NCCL runs the all-reduce hierarchically: ranks reduce inside
        each node over the fast fabric, then a node-level ring moves
        ~2x the payload once through each NIC.  Megatron additionally
        overlaps the reduction with the tail of the backward pass
        (``dp_overlap``).
        """
        group, spans = self._replica_group()
        if group <= 1:
            return 0.0
        stage_params = self.spec.total_params() // self.config.pp
        nbytes = HALF * stage_params
        if not spans:
            t = ring_all_reduce_time(nbytes, group, self.cluster.intra_node_link)
        else:
            nic = self.cluster.inter_node_link
            t = 2 * nbytes / (nic.bandwidth_gbps * 1e9) + ring_all_reduce_time(
                nbytes, self.cluster.gpus_per_node, self.cluster.intra_node_link
            )
        return t * (1.0 - self.dp_overlap)

    def optimizer_seconds(self) -> float:
        """Adam step + ZeRO-1 parameter all-gather (hierarchical)."""
        params = self.spec.total_params() // self.config.pp
        nbytes = HALF * params
        group, spans = self._replica_group()
        if group <= 1:
            return 0.002
        if not spans:
            return 0.002 + ring_all_gather_time(
                nbytes, group, self.cluster.intra_node_link)
        nic = self.cluster.inter_node_link
        return 0.002 + nbytes / (nic.bandwidth_gbps * 1e9)
