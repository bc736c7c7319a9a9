"""Policy-driven greedy schedule generation.

MEPipe's scheduler (Sections 4.3 and 5) is reproduced here as an
event-driven greedy construction: each stage, whenever it is free,
chooses its next op under a policy of

* **forward-first under a memory cap** — a stage runs a ready F op
  while its live activation count stays below the cap; each backward
  frees one slot, which yields exactly the one-forward-one-backward
  alternation at slice granularity.  The cap of the first stage is the
  paper's ``f`` parameter (forwards before the first backward), so
  sweeping it yields the Figure 5 variants;
* **front-micro-batch reservation** — an F op may not consume the cap
  slots that the earliest unfinished micro-batch's remaining forwards
  will need (the first backward of a sample depends on *all* of its
  forwards, Section 4.2), which keeps every variant deadlock-free;
* **weight-gradient gap filling** — when neither an F nor a B op is
  runnable (waiting on communication, or F is capped), the stage pops a
  deferred W GEMM from its queue (Section 5, Figure 7); stages defer at
  most what their memory slack allows, so later stages postpone more.

The same engine generates the zero-bubble (ZB/ZBV) and Hanayo baselines
with micro-batch-granular problems and the corresponding caps.

The hot loop is **array-native**: ops are canonical integer codes (the
compiled :class:`~repro.schedules.graph.ScheduleGraph` layout), the
policy's selection keys are packed into single integers whose order
matches the original priority tuples, and each stage keeps sorted ready
structures (heaps over packed keys) instead of scanning dicts of
``OpId``.  The result is proven byte-identical to the pre-rewrite
engine — preserved verbatim under ``tests/oracles/`` — by
``tests/test_greedy_golden.py`` across the full acceptance grid.
Generated schedules carry their compiled graph (built directly from the
generator's dense tables, see :func:`repro.schedules.graph
.graph_from_codes`) and materialize their ``OpId`` programs lazily.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Callable

from repro.schedules.base import (
    OpId,
    OpKind,
    PipelineProblem,
    Schedule,
    ScheduleError,
    StageProgram,
)
from repro.schedules.graph import ScheduleGraph, graph_from_codes

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.sim.cost import CostModel

#: Tolerance for "has this op's input arrived by now?" comparisons.
#:
#: Invariant protected: an op whose arrival time differs from the
#: current wake event's timestamp only by accumulated float rounding
#: (sums of the same durations/comm times taken in different orders)
#: must be treated as *already arrived*, never as "arriving later" —
#: otherwise the greedy loop would idle (or gap-fill a W op) on a stage
#: that is semantically ready, and the emitted order would depend on
#: rounding noise.  The epsilon must stay far below any real op
#: duration.
ARRIVAL_EPS: float = 1e-12

#: Slack on the integer cap/allowance comparisons (``live_f`` and
#: ``deferred_units`` are float accumulators of exact ±1-unit steps, so
#: this only guards against pathological float drift).
_CAP_EPS: float = 1e-9


@dataclass(frozen=True)
class GreedyPolicy:
    """Knobs of the greedy generator.

    Attributes:
        first_stage_cap: Max live F ops on stage 0 — the paper's ``f``.
            ``None`` means the method's memory-optimal default,
            ``v*max(p, s) + min(p, s) - 1`` (Section 4.4).
        cap_slope: How much smaller each subsequent stage's cap is;
            1 reproduces 1F1B-style staircases, 0 the uniform caps of
            wave (V-shaped) schedules.
        backward_priority: ``"children"`` picks the ready B with the
            most descendants first (the Section 4.3 rescheduling
            optimization); ``"fifo"`` processes B ops in arrival order
            (the unoptimized variant, for ablation).
        fill_with_wgrad: Whether idle gaps may run deferred W GEMMs
            (Section 5); False reproduces "W immediately after B".
        wgrad_units: Activation-gradient units a deferred W pins,
            relative to the activations of one F op.
        wgrad_defer_samples: How many *samples'* worth of deferred
            weight-gradient state (activations + activation gradients)
            every stage may pin beyond its structural slack of
            ``cap_slope * k`` units.  Expressed in samples so the slack
            scales with the slice count (Section 5: later stages hold
            fewer activations and can postpone more weight gradients).
        strong_reserve: Reserve cap slots for the earliest micro-batch
            with *pending forwards* instead of pending backwards.  This
            is a stricter admission rule that guarantees progress for
            every (f, v) variant at the price of a slightly larger
            bubble; :func:`greedy_schedule` falls back to it
            automatically if the fast rule wedges.
    """

    first_stage_cap: int | None = None
    cap_slope: int = 1
    backward_priority: str = "children"
    forward_priority: str = "round_desc"
    fill_with_wgrad: bool = True
    wgrad_units: float = 1.0
    wgrad_defer_samples: float = 0.5
    strong_reserve: bool = False

    def __post_init__(self) -> None:
        if self.backward_priority not in ("children", "fifo"):
            raise ValueError(f"unknown backward_priority {self.backward_priority!r}")
        if self.forward_priority not in _PACKED_FORWARD_KEYS:
            raise ValueError(f"unknown forward_priority {self.forward_priority!r}")


def default_first_stage_cap(problem: PipelineProblem) -> int:
    """Memory-optimal ``f``: ``v*max(p,s) + min(p,s) - 1`` (Table 3)."""
    p, s, v = problem.num_stages, problem.num_slices, problem.virtual_size
    return v * max(p, s) + min(p, s) - 1


def min_first_stage_cap(problem: PipelineProblem) -> int:
    """Smallest feasible ``f``: all ``v*s`` forwards of one sample
    (Section 4.2)."""
    return problem.virtual_size * problem.num_slices


def stage_cap(problem: PipelineProblem, policy: GreedyPolicy, stage: int) -> int:
    """Live-F cap for one stage."""
    f = policy.first_stage_cap
    if f is None:
        f = default_first_stage_cap(problem)
    floor = min_first_stage_cap(problem)
    if f < floor:
        raise ScheduleError(
            f"first_stage_cap {f} below the feasible minimum {floor} (= v*s)"
        )
    return max(f - policy.cap_slope * stage, floor)


# ----------------------------------------------------------------------
# Packed selection keys
# ----------------------------------------------------------------------
#
# The array engine compares single integers instead of priority tuples
# (the tuple named in each builder; the golden reference engine under
# ``tests/oracles/`` still selects with the tuples themselves).  Each
# builder returns one key per *cell* (canonical ``base = (mb*s +
# sl)*chunks + c`` index), packed mixed-radix so that integer order is
# exactly the lexicographic order of the corresponding tuple:
# descending components are stored as ``max - x``, and every component
# is strictly smaller than its radix.  Keys are unique per op (every
# tuple contains the full (mb, sl, c) coordinate), so "smallest key"
# needs no tie-break — which is also why the reference engine's
# first-wins dict scan and the heap below agree op for op.


@lru_cache(maxsize=64)
def _fkeys_round_desc(problem: PipelineProblem) -> list[int]:
    # (-(c // p), mb, sl, c): finish later chunk rounds first (drives
    # each sample toward its first backward); micro-batch order breaks
    # ties.
    n, s = problem.num_microbatches, problem.num_slices
    chunks, p, v = problem.num_chunks, problem.num_stages, problem.virtual_size
    return [
        (((v - 1 - c // p) * n + mb) * s + sl) * chunks + c
        for mb in range(n)
        for sl in range(s)
        for c in range(chunks)
    ]


@lru_cache(maxsize=64)
def _fkeys_mb_major(problem: PipelineProblem) -> list[int]:
    # (mb, -(c // p), sl, c): strict micro-batch-major order with later
    # rounds preferred within a micro-batch; keeps consecutive samples
    # from overtaking.
    n, s = problem.num_microbatches, problem.num_slices
    chunks, p, v = problem.num_chunks, problem.num_stages, problem.virtual_size
    return [
        ((mb * v + (v - 1 - c // p)) * s + sl) * chunks + c
        for mb in range(n)
        for sl in range(s)
        for c in range(chunks)
    ]


@lru_cache(maxsize=64)
def _fkeys_plain(problem: PipelineProblem) -> list[int]:
    # (mb, sl, c) is the canonical cell index itself.
    return list(range(problem.num_microbatches * problem.num_slices
                      * problem.num_chunks))


@lru_cache(maxsize=64)
def _bkeys_children(problem: PipelineProblem) -> list[int]:
    # (-children, mb, -sl, -c) with children = (sl+1)*(c+1) - 1, the
    # number of B descendants within the same micro-batch (Section 4.3).
    n, s, chunks = problem.num_microbatches, problem.num_slices, problem.num_chunks
    maxch = s * chunks - 1
    return [
        (((maxch - ((sl + 1) * (c + 1) - 1)) * n + mb) * s + (s - 1 - sl))
        * chunks
        + (chunks - 1 - c)
        for mb in range(n)
        for sl in range(s)
        for c in range(chunks)
    ]


@lru_cache(maxsize=64)
def _bkeys_fifo(problem: PipelineProblem) -> list[int]:
    # (mb, -sl, -c).
    n, s, chunks = problem.num_microbatches, problem.num_slices, problem.num_chunks
    return [
        (mb * s + (s - 1 - sl)) * chunks + (chunks - 1 - c)
        for mb in range(n)
        for sl in range(s)
        for c in range(chunks)
    ]


#: Packed-key builders by policy mode.  Module-level (rather than
#: closed over) so the seeded mutation tests can swap one in and assert
#: the golden-equivalence harness catches the perturbed tiebreaks.
_PACKED_FORWARD_KEYS: dict[str, Callable[[PipelineProblem], list[int]]] = {
    "round_desc": _fkeys_round_desc,
    "mb_major": _fkeys_mb_major,
    "plain": _fkeys_plain,
}

_PACKED_BACKWARD_KEYS: dict[str, Callable[[PipelineProblem], list[int]]] = {
    "children": _bkeys_children,
    "fifo": _bkeys_fifo,
}


@lru_cache(maxsize=32)
def _op_hashes(
    n: int, s: int, chunks: int, split: bool, gemms: int
) -> list[int]:
    """Per-code op hashes for the content fingerprint.

    Identical to ``[op._hash for op in ops_by_code]``: ``OpId`` freezes
    ``hash((kind.value, mb, sl, c, gemm))`` at construction, so hashing
    the raw tuples reproduces the per-op values without building an
    object per op.  Pure function of the problem structure, memoized
    across generations.  Callers only read the list.
    """
    fv, bv = OpKind.F.value, OpKind.B.value
    hashes = [
        hash((fv, mb, sl, c, -1))
        for mb in range(n)
        for sl in range(s)
        for c in range(chunks)
    ]
    hashes += [
        hash((bv, mb, sl, c, -1))
        for mb in range(n)
        for sl in range(s)
        for c in range(chunks)
    ]
    if split:
        wv = OpKind.W.value
        hashes += [
            hash((wv, mb, sl, c, g))
            for mb in range(n)
            for sl in range(s)
            for c in range(chunks)
            for g in range(gemms)
        ]
    return hashes


@lru_cache(maxsize=64)
def _structure_tables(
    problem: PipelineProblem,
) -> tuple[
    list[int],
    list[int],
    list[int],
    list[list[int]],
    list[list[int]],
    list[int],
    list[int],
    list[list[int]],
]:
    """Pure-structure tables shared by every generation of ``problem``.

    Everything here depends only on the problem (not the policy or
    cost model), so it is memoized across generations like the cost
    memos in :func:`repro.sim.cost.op_cost_fns`.  Returns
    ``(stage_of_cell, stage_by_code, unmet0, f_blk, b_blk, sidx,
    sflat, pf0)``:

    * ``stage_of_cell`` / ``stage_by_code`` — home stage per cell/code;
    * ``unmet0`` — initial unmet-dependency count per code (edges never
      cross micro-batches, so the per-micro-batch pattern tiles);
    * ``f_blk`` / ``b_blk`` — mb=0 consumer codes of each F/B cell, in
      the dependency transpose's visit order;
    * ``sidx`` / ``sflat`` — the flattened successor table:
      ``sflat[sidx[code]:sidx[code+1]]`` are op ``code``'s consumer
      codes (F/B consumers shift per micro-batch by the cell-region
      offset, W consumers by the gemms-times-larger W-region offset);
    * ``pf0`` — per-stage, per-micro-batch cell counts (the initial
      pending-forward/backward counters).

    All returned lists are read-only to callers; the engine copies the
    ones it mutates.
    """
    n, s = problem.num_microbatches, problem.num_slices
    chunks = problem.num_chunks
    split = problem.split_backward
    gemms = problem.wgrad_gemms
    cells = n * s * chunks
    sc = s * chunks
    stage_of_chunk = problem._placement_tables[0]
    stage_of_cell = [stage_of_chunk[c] for c in range(chunks)] * (n * s)
    stage_by_code = stage_of_cell * 2
    if split:
        stage_by_code = stage_by_code + [
            st for st in stage_of_cell for _ in range(gemms)
        ]

    unmet0 = [
        int(b % chunks > 0) + int(b // chunks % s > 0) for b in range(sc)
    ] * n
    unmet0 += [
        1 + int(b % chunks < chunks - 1) + int(b // chunks % s < s - 1)
        for b in range(sc)
    ] * n
    if split:
        unmet0 += [1] * (cells * gemms)

    f_blk: list[list[int]] = []
    b_blk: list[list[int]] = []
    for b in range(sc):
        c = b % chunks
        sl = b // chunks
        fs: list[int] = []
        if c < chunks - 1:
            fs.append(b + 1)
        if sl < s - 1:
            fs.append(b + chunks)
        fs.append(cells + b)
        f_blk.append(fs)
        bs: list[int] = []
        if sl > 0:
            bs.append(cells + b - chunks)
        if c > 0:
            bs.append(cells + b - 1)
        if split:
            bs.extend(range(2 * cells + b * gemms, 2 * cells + (b + 1) * gemms))
        b_blk.append(bs)
    counts = [len(blk) for blk in f_blk] * n
    counts += [len(blk) for blk in b_blk] * n
    if split:
        counts += [0] * (cells * gemms)
    sidx = list(accumulate(counts, initial=0))

    import numpy as np

    offs = np.arange(n, dtype=np.int64)[:, None]
    dst0_f = np.asarray(
        [d for blk in f_blk for d in blk], dtype=np.int64
    ).reshape(1, -1)
    dst0_b = np.asarray(
        [d for blk in b_blk for d in blk], dtype=np.int64
    ).reshape(1, -1)
    shift_b = np.where(dst0_b >= 2 * cells, sc * gemms, sc)
    sflat: list[int] = np.concatenate(
        [
            (dst0_f + sc * offs).ravel(),
            (dst0_b + shift_b * offs).ravel(),
        ]
    ).tolist()

    pf0 = [[0] * n for _ in range(problem.num_stages)]
    for b, st in enumerate(stage_of_cell):
        pf0[st][b // sc] += 1

    return (
        stage_of_cell,
        stage_by_code,
        unmet0,
        f_blk,
        b_blk,
        sidx,
        sflat,
        pf0,
    )


@dataclass(frozen=True)
class MemoryCeiling:
    """Stop a build once its memory floor — ``base_bytes + int(ledger
    peak × bytes_per_unit)``, the planner's peak memory without ring
    bytes — reaches ``limit_bytes``.  Programs only grow at their end,
    so the ledger peak of any prefix is a floor on the final one."""

    limit_bytes: int
    base_bytes: int
    bytes_per_unit: float

    def floor_bytes(self, peak_units: float) -> int:
        return self.base_bytes + int(peak_units * self.bytes_per_unit)


class BuildPruned(Exception):
    """A build reached its :class:`MemoryCeiling`: ``floor_bytes`` is a
    certified lower bound on the finished schedule's memory floor,
    ``ops`` the ops the pruned attempts emitted.  Not a
    :class:`ScheduleError`: the schedule is valid, only not wanted."""

    def __init__(self, floor_bytes: int, ops: int) -> None:
        super().__init__(f"memory floor {floor_bytes} B after {ops} ops")
        self.floor_bytes = floor_bytes
        self.ops = ops


def greedy_schedule(
    problem: PipelineProblem,
    policy: GreedyPolicy | None = None,
    cost: CostModel | None = None,
    name: str = "greedy",
    ceiling: MemoryCeiling | None = None,
) -> Schedule:
    """Generate a schedule with the greedy policy engine.

    ``cost`` provides the op durations the scheduler plans with; MEPipe
    uses its profiler's measurements here, and we default to the uniform
    model (the generated *order* is then re-timed by the executor with
    whatever cost model an experiment uses).

    If the fast cap-reservation rule wedges (possible for small ``f``
    with multiple chunk rounds), the generation is retried once with the
    strong reservation rule, which is deadlock-free.  With a ``ceiling``
    it raises :class:`BuildPruned` exactly when the schedule it would
    return has a memory floor at or above it.
    """
    policy = policy or GreedyPolicy()
    try:
        return _greedy_once(problem, policy, cost, name, ceiling)
    except BuildPruned as crossed:
        if policy.strong_reserve or ceiling is None:
            raise
        return _settle_fast_crossing(problem, policy, cost, name, ceiling, crossed)
    except ScheduleError as first_err:
        if policy.strong_reserve:
            raise
        try:
            return _greedy_once(
                problem, replace(policy, strong_reserve=True), cost, name, ceiling
            )
        except ScheduleError as retry_err:
            # Keep the fast rule's deadlock witness in the chain: when
            # even the strong rule wedges, the first failure is usually
            # the diagnostic one.
            raise retry_err from first_err


def _settle_fast_crossing(
    problem: PipelineProblem,
    policy: GreedyPolicy,
    cost: CostModel | None,
    name: str,
    ceiling: MemoryCeiling,
    crossed: BuildPruned,
) -> Schedule:
    """The fast attempt crossed ``ceiling``, which proves nothing if it
    would wedge (the strong retry is then final).  Prune when the strong
    attempt crosses too; else finish the fast one unbounded: if it wedges
    the strong schedule is final, otherwise it is, and it has crossed."""
    strong = replace(policy, strong_reserve=True)
    try:
        fallback = _greedy_once(problem, strong, cost, name, ceiling)
    except BuildPruned as also:
        raise BuildPruned(
            min(crossed.floor_bytes, also.floor_bytes), crossed.ops + also.ops
        ) from None
    try:
        final = _greedy_once(problem, policy, cost, name)
    except ScheduleError:
        return fallback
    spent = crossed.ops + fallback.num_ops + final.num_ops
    raise BuildPruned(ceiling.floor_bytes(final.ledger_peak_units), spent)


class _DenseSchedule(Schedule):
    """A schedule emitted by the array engine.

    Carries the generator's dense tables (the per-stage canonical-code
    programs and the shared ``ops_by_code`` index) plus the compiled
    :class:`~repro.schedules.graph.ScheduleGraph`, pre-attached under
    the standard ``_graph_cache`` slot so the verifier and every
    evaluator get a compile-free cache hit.  The ``OpId``-based
    ``programs`` list is materialized on first access; until then the
    content fingerprint is served from the precomputed token (the
    object cannot have been mutated before anyone could reach its
    programs), after which :func:`repro.schedules.graph.fingerprint`
    recomputes it as usual so in-place mutation still invalidates.
    """

    def __init__(
        self,
        problem: PipelineProblem,
        name: str,
        build_ops: Callable[[], list[OpId]],
        stage_codes: list[list[int]],
        token: int,
        graph: ScheduleGraph,
        ledger_peak_units: float,
    ) -> None:
        # No dataclass __init__: ``programs`` is a lazy property here.
        self.problem = problem
        self.num_ops = graph.num_ops
        self.ledger_peak_units = ledger_peak_units
        self.name = name
        self._build_ops = build_ops
        self._stage_codes = stage_codes
        self._programs: list[StageProgram] | None = None
        self._dense_token = token
        self._graph_cache = (token, graph)

    @property
    def programs(self) -> list[StageProgram]:
        materialized = self._programs
        if materialized is None:
            ops = self._build_ops()
            materialized = [
                StageProgram(stage=st, ops=[ops[code] for code in codes])
                for st, codes in enumerate(self._stage_codes)
            ]
            self._programs = materialized
        return materialized

    @programs.setter
    def programs(self, value: list[StageProgram]) -> None:
        self._programs = value


def _greedy_once(
    problem: PipelineProblem,
    policy: GreedyPolicy,
    cost: CostModel | None,
    name: str,
    ceiling: MemoryCeiling | None = None,
) -> _DenseSchedule:
    """One generation attempt on the array-native engine.

    Byte-identical to the pre-rewrite dict engine (the golden
    reference under ``tests/oracles/``): same program orders, same
    deadlock witnesses.  Equivalence rests on four facts,
    each exercised by the golden suite:

    * packed keys order exactly like the priority tuples, and are
      unique per op, so heap minima equal the reference's dict scans;
    * arrivals are final at publish time (an op is published only when
      its last predecessor commits), so the pending→ready transfer at
      ``arr <= now + ARRIVAL_EPS`` admits exactly the ops the
      reference's per-scan arrival filter admits;
    * the wake-event queue sees the same ``(time, counter, stage)``
      stream — one push per commit plus one per successor edge,
      W edges included — and its time-bucketed form (see the loop)
      drains in exactly the reference heap's (time, counter) order;
    * every float is produced by the same expression over the same
      memoized cost-table values (no reassociation).
    """
    from repro.sim.cost import UniformCost, op_cost_fns

    cost = cost or UniformCost(problem)
    # Memoized per-op-shape planning costs (identical values; see
    # op_cost_fns) — and, for micro-batch-invariant models, probed once
    # per shape and tiled across micro-batches below.
    dur_fn, comm_fn, act_fn = op_cost_fns(cost)
    num_stages = problem.num_stages
    n = problem.num_microbatches
    s = problem.num_slices
    chunks = problem.num_chunks
    split = problem.split_backward
    gemms = problem.wgrad_gemms
    cells = n * s * chunks
    sc = s * chunks
    total = 2 * cells + (cells * gemms if split else 0)
    arrival_eps = ARRIVAL_EPS
    invariant = bool(getattr(cost, "microbatch_invariant", False))
    (
        stage_of_cell,
        stage_by_code,
        unmet0,
        f_blk,
        b_blk,
        sidx,
        sflat,
        pf0,
    ) = _structure_tables(problem)

    # Dense tables indexed by canonical op code (the compiled
    # ScheduleGraph's layout): F -> base, B -> cells + base,
    # W(g) -> 2*cells + base*gemms + g, with base=(mb*s+sl)*chunks+c.
    # The hot loop never touches OpId objects.  For micro-batch-
    # invariant cost models only the mb=0 probe blocks are built
    # eagerly (op_cost_fns drops the micro-batch from its memo keys, so
    # mb=0 probes return the exact floats any micro-batch would); the
    # full code -> OpId index is deferred until something materializes
    # programs, graph.ops, or a deadlock witness.
    ops_cache: list[OpId] | None = None

    def build_ops() -> list[OpId]:
        nonlocal ops_cache
        full = ops_cache
        if full is None:
            full = [
                OpId(OpKind.F, mb, sl, c)
                for mb in range(n)
                for sl in range(s)
                for c in range(chunks)
            ]
            full += [
                OpId(OpKind.B, mb, sl, c)
                for mb in range(n)
                for sl in range(s)
                for c in range(chunks)
            ]
            if split:
                full += [
                    OpId(OpKind.W, mb, sl, c, g)
                    for mb in range(n)
                    for sl in range(s)
                    for c in range(chunks)
                    for g in range(gemms)
                ]
            ops_cache = full
        return full

    if invariant:
        ops_f0 = [
            OpId(OpKind.F, 0, sl, c) for sl in range(s) for c in range(chunks)
        ]
        ops_b0 = [
            OpId(OpKind.B, 0, sl, c) for sl in range(s) for c in range(chunks)
        ]
        ops_w0 = (
            [
                OpId(OpKind.W, 0, sl, c, g)
                for sl in range(s)
                for c in range(chunks)
                for g in range(gemms)
            ]
            if split
            else []
        )
    else:
        # Per-micro-batch probes need every OpId anyway.
        full_ops = build_ops()
        ops_f0 = full_ops[:sc]
        ops_b0 = full_ops[cells : cells + sc]
        ops_w0 = full_ops[2 * cells : 2 * cells + sc * gemms] if split else []

    unmet = unmet0.copy()

    # Durations and per-edge comm times replicate per micro-batch for
    # micro-batch-invariant cost models: probe the mb=0 block once and
    # tile it.  Tiled floats are the exact memo values dur_fn/comm_fn
    # would return for any mb.
    if invariant:
        dur_by_code = [dur_fn(op) for op in ops_f0] * n
        dur_by_code += [dur_fn(op) for op in ops_b0] * n
        if split:
            dur_by_code += [dur_fn(op) for op in ops_w0] * n
    else:
        dur_by_code = [dur_fn(op) for op in full_ops]
    if invariant:
        delta = _ledger_deltas(act_fn, ops_f0, ops_b0, ops_w0, problem, n)
    else:
        blocks = full_ops[:cells], full_ops[cells : 2 * cells], full_ops[2 * cells :]
        delta = _ledger_deltas(act_fn, *blocks, problem, 1)

    # Per-edge comm times, parallel to the structure tables' flattened
    # successor list ``sflat``.
    if invariant:

        def probe(code: int) -> OpId:
            # Probe-block lookup: every mb=0 edge endpoint by code.
            if code < cells:
                return ops_f0[code]
            if code < 2 * cells:
                return ops_b0[code - cells]
            return ops_w0[code - 2 * cells]

        comm0_f = [
            cm
            for b in range(sc)
            for cm in (comm_fn(ops_f0[b], probe(d)) for d in f_blk[b])
        ]
        comm0_b = [
            cm
            for b in range(sc)
            for cm in (comm_fn(ops_b0[b], probe(d)) for d in b_blk[b])
        ]
        scomm = comm0_f * n + comm0_b * n
    else:
        scomm = [
            comm_fn(full_ops[src], full_ops[dc])
            for src in range(2 * cells)
            for dc in sflat[sidx[src] : sidx[src + 1]]
        ]

    # Packed selection keys, one per cell (W ops are queue-ordered and
    # need none).  Read through the module-level builder tables so the
    # mutation tests can perturb them.
    fkeys = _PACKED_FORWARD_KEYS[policy.forward_priority](problem)
    bkeys = _PACKED_BACKWARD_KEYS[policy.backward_priority](problem)
    cap_eps = _CAP_EPS

    # Per-stage state, all indexed by stage.
    caps = [stage_cap(problem, policy, st) for st in range(num_stages)]
    cap_plus = [cap + cap_eps for cap in caps]
    wdefer = (
        policy.wgrad_defer_samples
        * problem.virtual_size
        * problem.num_slices
        * (1.0 + policy.wgrad_units)
    )
    allow_plus = [
        (policy.cap_slope * st + wdefer) + cap_eps for st in range(num_stages)
    ]
    w_add = 1.0 + policy.wgrad_units
    w_rel = (1.0 + policy.wgrad_units) / gemms
    fill_wgrad = policy.fill_with_wgrad
    strong = policy.strong_reserve

    free_at = [0.0] * num_stages
    ledger = [0.0] * num_stages
    peak = 0.0
    live_f = [0.0] * num_stages
    deferred = [0.0] * num_stages
    last_f = [False] * num_stages  # last committed main op was an F
    programs: list[list[int]] = [[] for _ in range(num_stages)]
    wqs: list[list[int]] = [[] for _ in range(num_stages)]
    wq_head = [0] * num_stages  # popleft() as an index into wqs[st]
    pf_cnt = [row.copy() for row in pf0]
    pb_cnt = [row.copy() for row in pf0]
    front_f = [0] * num_stages
    front_b = [0] * num_stages

    # Ready structures.  Published-but-not-arrived ops wait in pend_*
    # heaps ordered by (arrival, packed entry); once the stage's clock
    # reaches an op's arrival it moves to the ready heaps, ordered by
    # packed entry alone (entry = key*total + code, so entry order is
    # key order and the code is recoverable).  minarr tracks every
    # published unrun F/B op's arrival for the gap-filling imminence
    # check; done[] marks committed ops so stale heap entries (an op
    # sits in both the global and the per-micro-batch forward heap) are
    # dropped lazily.
    pend_f: list[list[tuple[float, int]]] = [[] for _ in range(num_stages)]
    pend_b: list[list[tuple[float, int]]] = [[] for _ in range(num_stages)]
    ready_f: list[list[int]] = [[] for _ in range(num_stages)]
    ready_b: list[list[int]] = [[] for _ in range(num_stages)]
    ready_f_mb: list[list[list[int]]] = [
        [[] for _ in range(n)] for _ in range(num_stages)
    ]
    minarr: list[list[tuple[float, int]]] = [[] for _ in range(num_stages)]
    done = bytearray(total)
    arrival = [0.0] * total
    # Publish-order log per stage, for deadlock witnesses only: the
    # reference engine reports stuck ops in dict-insertion (= publish)
    # order, which the heaps do not preserve.
    pub_f: list[list[int]] = [[] for _ in range(num_stages)]
    pub_b: list[list[int]] = [[] for _ in range(num_stages)]

    heappush = heapq.heappush
    heappop = heapq.heappop

    # Only the F(mb, 0, 0) ops start with no dependencies.
    for mb in range(n):
        code = mb * sc
        st = stage_by_code[code]
        pend_f[st].append((0.0, fkeys[code] * total + code))
        minarr[st].append((0.0, code))
        pub_f[st].append(code)
    for st in range(num_stages):
        heapq.heapify(pend_f[st])
        heapq.heapify(minarr[st])

    # Wake-event queue.  The reference engine pops a heap of
    # (time, push-counter, stage) tuples; here same-time events are
    # coalesced into per-timestamp FIFO buckets under a heap of the
    # *distinct* timestamps.  Pushes happen in processing order, so each
    # bucket's list is already in push-counter order; a same-time push
    # made while its bucket is being drained opens a *fresh* bucket for
    # that timestamp (its entry was popped from ``buckets``), which the
    # times heap yields immediately after — again counter order.  The
    # drain order is therefore exactly the reference's (time, counter)
    # order, without a tuple allocation and three-way comparison per
    # event.  Relies on durations and comm times being non-negative
    # (wake times never precede ``now``), true of every cost model here.
    buckets: dict[float, list[int]] = {0.0: list(range(num_stages))}
    times: list[float] = [0.0]
    remaining = total

    while remaining:
        if not times:
            raise ScheduleError(
                "greedy deadlock; runnable-but-unscheduled: "
                f"{_stuck_witness(build_ops(), done, pub_f, pub_b, wqs, wq_head)}"
            )
        now = heappop(times)
        for stage in buckets.pop(now):
            if not remaining:
                break
            if now + arrival_eps < free_at[stage]:
                continue  # stage busy; its completion wake is queued
            # Move everything that arrived by now into the ready heaps.
            thresh = now + arrival_eps
            pend = pend_f[stage]
            if pend and pend[0][0] <= thresh:
                rf = ready_f[stage]
                rfm = ready_f_mb[stage]
                while pend and pend[0][0] <= thresh:
                    ent = heappop(pend)[1]
                    heappush(rf, ent)
                    heappush(rfm[ent % total // sc], ent)
            pend = pend_b[stage]
            if pend and pend[0][0] <= thresh:
                rb = ready_b[stage]
                while pend and pend[0][0] <= thresh:
                    heappush(rb, heappop(pend)[1])

            wq = wqs[stage]
            head = wq_head[stage]
            have_w = head < len(wq)
            code = -1
            if have_w and (
                not fill_wgrad or deferred[stage] > allow_plus[stage]
            ):
                # "W immediately after B" (the unoptimized Figure 11
                # behavior), or deferred weight gradients exceed this
                # stage's memory slack (~cap_slope*stage structural
                # slack plus the configured per-sample budget): retire
                # one before advancing the pipeline.
                code = wq[head]
                wq_head[stage] = head + 1
            else:
                # Steady state is one-forward-one-backward alternation,
                # the rhythm of every published interleaved schedule:
                # after an F prefer the next B, after a B refill the
                # freed slot with an F (the cap bounds the warm-up
                # depth).  Whichever kind is not ready yet falls back to
                # the other.
                want_b_first = last_f[stage]
                for _attempt in range(2):
                    if want_b_first:
                        rb = ready_b[stage]
                        if rb:
                            code = heappop(rb) % total
                            break
                    else:
                        # Forward admission under the cap.  The stage's
                        # next backward transitively needs every still-
                        # pending forward of the earliest unfinished
                        # micro-batch (the "front"); an F op may not eat
                        # the cap slots those forwards will need, or the
                        # pipeline wedges.  The strong rule protects the
                        # earliest micro-batch with pending *forwards*
                        # instead, which is strictly safer (see
                        # GreedyPolicy.strong_reserve).
                        rf = ready_f[stage]
                        while rf and done[rf[0] % total]:
                            heappop(rf)
                        if rf:
                            cnt = pf_cnt[stage] if strong else pb_cnt[stage]
                            fr = front_f[stage] if strong else front_b[stage]
                            while fr < n and cnt[fr] == 0:
                                fr += 1
                            if strong:
                                front_f[stage] = fr
                            else:
                                front_b[stage] = fr
                            needed = pf_cnt[stage][fr] if fr < n else 0
                            if (
                                not live_f[stage] + 1.0 + needed
                                > cap_plus[stage]
                            ):
                                code = heappop(rf) % total
                                break
                            if (
                                fr < n
                                and not live_f[stage] + 1.0 + (needed - 1)
                                > cap_plus[stage]
                            ):
                                rfm = ready_f_mb[stage][fr]
                                while rfm and done[rfm[0] % total]:
                                    heappop(rfm)
                                if rfm:
                                    code = heappop(rfm) % total
                                    break
                    want_b_first = not want_b_first
                if code < 0 and have_w:
                    # Gap filling (Section 5) — but only when no F/B is
                    # about to arrive within the GEMM's runtime,
                    # otherwise the non-preemptive W would push the
                    # critical path.
                    wcode = wq[head]
                    horizon = now + 0.5 * dur_by_code[wcode]
                    ma = minarr[stage]
                    while ma and done[ma[0][1]]:
                        heappop(ma)
                    if not (ma and ma[0][0] <= horizon):
                        code = wcode
                        wq_head[stage] = head + 1
            if code < 0:
                continue

            # Commit.
            free = free_at[stage]
            start = now if now > free else free
            end = start + dur_by_code[code]
            free_at[stage] = end
            programs[stage].append(code)
            remaining -= 1
            held = ledger[stage] + delta[code]
            ledger[stage] = held
            if held > peak:
                peak = held
                if ceiling is not None:
                    floor = ceiling.floor_bytes(peak)
                    if floor >= ceiling.limit_bytes:
                        raise BuildPruned(floor, total - remaining)
            if code < cells:
                done[code] = 1
                live_f[stage] += 1.0
                pf_cnt[stage][code // sc] -= 1
                last_f[stage] = True
            elif code < 2 * cells:
                done[code] = 1
                live_f[stage] -= 1.0
                b = code - cells
                pb_cnt[stage][b // sc] -= 1
                last_f[stage] = False
                if split:
                    w0 = 2 * cells + b * gemms
                    wq.extend(range(w0, w0 + gemms))
                    deferred[stage] += w_add
            else:
                deferred[stage] -= w_rel
            last_b = buckets.get(end)
            if last_b is None:
                last_b = buckets[end] = [stage]
                heappush(times, end)
            else:
                last_b.append(stage)
            last_t = end
            lo = sidx[code]
            hi = sidx[code + 1]
            for dc, cm in zip(sflat[lo:hi], scomm[lo:hi]):
                when = end + cm
                if when > arrival[dc]:
                    arrival[dc] = when
                u = unmet[dc] - 1
                unmet[dc] = u
                dst = stage_by_code[dc]
                if u == 0 and dc < 2 * cells:
                    # Publish: the arrival is final here (this was the
                    # last predecessor), so the pend heaps order
                    # correctly.
                    arr = arrival[dc]
                    if dc < cells:
                        heappush(pend_f[dst], (arr, fkeys[dc] * total + dc))
                        pub_f[dst].append(dc)
                    else:
                        heappush(
                            pend_b[dst], (arr, bkeys[dc - cells] * total + dc)
                        )
                        pub_b[dst].append(dc)
                    heappush(minarr[dst], (arr, dc))
                # Wake the consumer's stage at the arrival moment (most
                # edges are same-stage zero-comm, so the commit wake's
                # bucket is cached and re-used).
                if when == last_t:
                    last_b.append(dst)
                else:
                    bkt = buckets.get(when)
                    if bkt is None:
                        bkt = buckets[when] = [dst]
                        heappush(times, when)
                    else:
                        bkt.append(dst)
                    last_t = when
                    last_b = bkt

    # Content fingerprint from the memoized per-code op hashes (equal
    # to hashing the materialized programs' OpIds, see _op_hashes).
    hashes = _op_hashes(n, s, chunks, split, gemms)
    token = hash(
        tuple(
            (st, tuple(map(hashes.__getitem__, codes)))
            for st, codes in enumerate(programs)
        )
    )

    def ops_dense() -> tuple[OpId, ...]:
        ops = build_ops()
        return tuple(ops[code] for codes in programs for code in codes)

    graph = graph_from_codes(problem, programs, token, ops_dense)
    return _DenseSchedule(problem, name, build_ops, programs, token, graph, peak)


def _ledger_deltas(
    act_fn: Callable[[OpId], float],
    f_ops: list[OpId],
    b_ops: list[OpId],
    w_ops: list[OpId],
    problem: PipelineProblem,
    reps: int,
) -> list[float]:
    """Pinned-activation ledger step per op code (each block tiled
    ``reps`` times): :func:`repro.sim.executor._materialize`'s operands
    at the planner's activation-gradient factor 1.0.  Releases are
    stored negated (``a - x`` is ``a + (-x)`` in IEEE-754), so running
    sums are the simulator's bit for bit."""
    actgrad = 1.0
    gemms = problem.wgrad_gemms
    if problem.split_backward:
        b_steps = [act_fn(op) * actgrad for op in b_ops]
    else:
        b_steps = [-act_fn(op) for op in b_ops]
    w_steps = [-(act_fn(op) * (1.0 + actgrad) / gemms) for op in w_ops]
    return [act_fn(op) for op in f_ops] * reps + b_steps * reps + w_steps * reps


def _stuck_witness(
    ops_by_code: list[OpId],
    done: bytearray,
    pub_f: list[list[int]],
    pub_b: list[list[int]],
    wqs: list[list[int]],
    wq_head: list[int],
) -> list[str]:
    """Runnable-but-unscheduled ops in the reference engine's order:
    per stage, available forwards then backwards in publish order, then
    the deferred W queue."""
    stuck: list[str] = []
    for st in range(len(pub_f)):
        for code in pub_f[st]:
            if not done[code]:
                stuck.append(str(ops_by_code[code]))
        for code in pub_b[st]:
            if not done[code]:
                stuck.append(str(ops_by_code[code]))
        stuck.extend(str(ops_by_code[code]) for code in wqs[st][wq_head[st]:])
    return stuck[:8]
