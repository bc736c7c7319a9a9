"""Policy-driven greedy schedule generation.

MEPipe's scheduler (Sections 4.3 and 5) is reproduced here as an
event-driven greedy construction (:func:`_drain` is the event loop):
each stage, whenever it is free, picks its next op in two steps.  The
**skeleton pick** (:func:`_next_fb`) chooses the next F or B op:

* **forward-first under a memory cap** — a stage runs a ready F op
  while its live activation count stays below the cap; each backward
  frees one slot, which yields exactly the one-forward-one-backward
  alternation at slice granularity.  The cap of the first stage is the
  paper's ``f`` parameter (forwards before the first backward), so
  sweeping it yields the Figure 5 variants;
* **front-micro-batch reservation** — an F op may not consume the cap
  slots that the earliest unfinished micro-batch's remaining forwards
  will need (the first backward of a sample depends on *all* of its
  forwards, Section 4.2), which keeps every variant deadlock-free.

**W placement** (:func:`_next_w`) places the deferred weight-gradient
GEMMs (Section 5, Figure 7): a stage retires one as soon as its
deferred state exceeds its memory slack (so later stages postpone
more), and otherwise fills an idle gap with one, unless a published
F/B op — arrived but capped, or in flight — is due within half the
GEMM's runtime.  The same engine generates the zero-bubble (ZB/ZBV)
and Hanayo baselines with micro-batch-granular problems and the
corresponding caps.

The hot loop is **array-native**: ops are canonical integer codes (the
compiled :class:`~repro.schedules.graph.ScheduleGraph` layout), the
policy's selection keys are packed into single integers whose order
matches the original priority tuples, and each stage keeps sorted ready
structures (heaps over packed keys) instead of scanning dicts of
``OpId``.  The result is proven byte-identical to the pre-rewrite
engine — preserved verbatim under ``tests/oracles/`` — by
``tests/test_greedy_golden.py`` across the full acceptance grid.
Generated schedules carry their per-stage code programs: the compiled
graph is built from those codes on first use (see
:func:`repro.schedules.graph.compiled_graph`), and the ``OpId``
programs only if something reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache, partial
from heapq import heapify, heappop, heappush
from itertools import product
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.schedules.base import (
    OpId,
    OpKind,
    PipelineProblem,
    Schedule,
    ScheduleError,
    StageProgram,
)
from repro.schedules.graph import int64_table

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    import numpy as np
    import numpy.typing as npt

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

#: Activation-gradient units a deferred W pins, relative to the
#: activations of one F op.
WGRAD_UNITS: float = 1.0

#: How many *samples'* worth of deferred weight-gradient state
#: (activations + activation gradients) every stage may pin beyond its
#: structural slack of ``cap_slope * k`` units.  Expressed in samples so
#: the slack scales with the slice count (Section 5: later stages hold
#: fewer activations and can postpone more weight gradients).
WGRAD_DEFER_SAMPLES: float = 0.5


@dataclass(frozen=True)
class GreedyPolicy:
    """Knobs of the greedy generator: ``fill_with_wgrad`` shapes W
    placement, the others the skeleton pick (``cap_slope`` also sets
    W placement's structural slack).

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
        fill_with_wgrad: Whether W placement may defer W GEMMs into idle
            gaps (Section 5) within the ``WGRAD_DEFER_SAMPLES`` budget;
            False reproduces "W immediately after B".
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
    fill_with_wgrad: bool = True
    strong_reserve: bool = False

    def __post_init__(self) -> None:
        if self.backward_priority not in ("children", "fifo"):
            raise ValueError(f"unknown backward_priority {self.backward_priority!r}")


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
def _fkeys_round_desc(problem: PipelineProblem) -> memoryview:
    # (-(c // p), mb, sl, c): finish later chunk rounds first (drives
    # each sample toward its first backward); micro-batch order breaks
    # ties.
    import numpy as np

    n, s, chunks = problem.num_microbatches, problem.num_slices, problem.num_chunks
    mb, sl, c = np.ogrid[:n, :s, :chunks]  # broadcasts in cell order
    rnd = problem.virtual_size - 1 - c // problem.num_stages
    return int64_table((((rnd * n + mb) * s + sl) * chunks + c).ravel())


@lru_cache(maxsize=64)
def _bkeys_children(problem: PipelineProblem) -> memoryview:
    # (-children, mb, -sl, -c) with children = (sl+1)*(c+1) - 1, the
    # number of B descendants within the same micro-batch (Section 4.3).
    import numpy as np

    n, s, chunks = problem.num_microbatches, problem.num_slices, problem.num_chunks
    mb, sl, c = np.ogrid[:n, :s, :chunks]
    fewer = s * chunks - (sl + 1) * (c + 1)  # maxch - children
    keys = ((fewer * n + mb) * s + (s - 1 - sl)) * chunks + (chunks - 1 - c)
    return int64_table(keys.ravel())


@lru_cache(maxsize=64)
def _bkeys_fifo(problem: PipelineProblem) -> memoryview:
    # (mb, -sl, -c).
    import numpy as np

    n, s, chunks = problem.num_microbatches, problem.num_slices, problem.num_chunks
    mb, sl, c = np.ogrid[:n, :s, :chunks]
    return int64_table(((mb * s + (s - 1 - sl)) * chunks + (chunks - 1 - c)).ravel())


#: Backward packed-key builders by policy mode.  Module-level (rather
#: than closed over), like ``_fkeys_round_desc``, so the seeded mutation
#: tests can swap one in and assert the golden-equivalence harness
#: catches the perturbed tiebreaks.
_PACKED_BACKWARD_KEYS: dict[str, Callable[[PipelineProblem], memoryview]] = {
    "children": _bkeys_children,
    "fifo": _bkeys_fifo,
}


@lru_cache(maxsize=32)
def _op_hashes(
    n: int, s: int, chunks: int, split: bool, gemms: int
) -> memoryview:
    """Per-code op hashes for the content fingerprint.

    Identical to ``[op._hash for op in ops_by_code]``: ``OpId`` freezes
    ``hash((kind.value, mb, sl, c, gemm))`` at construction, so hashing
    the raw tuples reproduces the per-op values without building an
    object per op.  Pure function of the problem structure, memoized
    across generations as one read-only int64 buffer (a hash is a
    machine word, so it fits).
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
    return int64_table(hashes)


@lru_cache(maxsize=64)
def _structure_tables(
    problem: PipelineProblem,
) -> tuple[memoryview, memoryview, memoryview, memoryview]:
    """Pure-structure tables shared by every generation of ``problem``.

    Everything here depends only on the problem (not the policy or
    cost model), so it is memoized across generations like the cost
    table in :func:`repro.sim.cost.cost_table`.  Returns
    ``(stage_by_code, unmet0, sidx, sflat)``, each one read-only int64
    buffer (:func:`repro.schedules.graph.int64_table`):

    * ``stage_by_code`` — home stage per code;
    * ``unmet0`` — initial unmet-dependency count per code (edges never
      cross micro-batches, so the per-micro-batch pattern tiles);
    * ``sidx`` / ``sflat`` — the flattened successor table:
      ``sflat[sidx[code]:sidx[code+1]]`` are op ``code``'s consumer
      codes in a fixed order (an F cell: next chunk, next slice, own
      B; a B cell: previous slice, previous chunk, own W GEMMs); F/B
      consumers shift per micro-batch by the cell-region offset, W
      consumers by the gemms-times-larger W-region offset.

    The engine copies the one table it mutates (``unmet0``).
    """
    import numpy as np

    n, s, chunks = problem.num_microbatches, problem.num_slices, problem.num_chunks
    gemms = problem.wgrad_gemms if problem.split_backward else 0
    cells = n * s * chunks
    sc = s * chunks
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
        bs.extend(range(2 * cells + b * gemms, 2 * cells + (b + 1) * gemms))
        b_blk.append(bs)
    counts = np.concatenate(
        [
            np.tile([len(blk) for blk in f_blk], n),
            np.tile([len(blk) for blk in b_blk], n),
            np.zeros(cells * gemms, np.int64),
        ]
    )
    sidx = np.concatenate([[0], np.cumsum(counts)])
    offs = np.arange(n, dtype=np.int64)[:, None]
    dst0_f = np.asarray([d for blk in f_blk for d in blk], dtype=np.int64)
    dst0_b = np.asarray([d for blk in b_blk for d in blk], dtype=np.int64)
    shift_b = np.where(dst0_b >= 2 * cells, sc * gemms, sc)
    sflat = np.concatenate(
        [(dst0_f + sc * offs).ravel(), (dst0_b + shift_b * offs).ravel()]
    )
    # Every dependency edge is one successor entry: a code's unmet
    # count is how often it appears in ``sflat``.
    unmet0 = np.bincount(sflat, minlength=sidx.size - 1)
    stage_of_cell = np.tile(np.asarray(problem._placement_tables[0]), n * s)
    w_stages = np.repeat(stage_of_cell, gemms)
    stage_by_code = np.concatenate([stage_of_cell, stage_of_cell, w_stages])
    return (
        int64_table(stage_by_code),
        int64_table(unmet0),
        int64_table(sidx),
        int64_table(sflat),
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


class BuildFacts(NamedTuple):
    """What a greedy build committed while it emitted its programs.

    ``ledger_peak_units`` is the ledger peak its loop booked (bit-equal
    to the compiled graph's, :func:`repro.analysis.evaluate.
    ledger_peak_units`); ``start`` is every op's committed start in
    dense (stage-major program) order, one read-only float64 array,
    under ``cost``, the model the build was planned with.
    The start is the replay's whenever :func:`repro.analysis.evaluate.certify.check`
    passes it against the replay's costs.
    """

    ledger_peak_units: float
    start: npt.NDArray[np.float64]
    cost: CostModel


def build_facts(schedule: Schedule) -> BuildFacts | None:
    """A greedy build's :class:`BuildFacts`; ``None`` for any other
    schedule.  A build is frozen like every schedule, so its facts hold
    for its whole life."""
    if isinstance(schedule, _DenseSchedule):
        return BuildFacts(schedule.ledger_peak_units, schedule._start, schedule._cost)
    return None


def build_claim(
    schedule: Schedule, cost: CostModel
) -> npt.NDArray[np.float64] | None:
    """A greedy build's committed start, as a claim about ``cost``'s
    replay: only while :func:`build_facts` holds and ``cost`` equals the
    model the build was planned with.  Under any other model the build
    committed other durations, so a check of the claim could only fail.
    """
    facts = build_facts(schedule)
    return facts.start if facts is not None and facts.cost == cost else None


class _DenseSchedule(Schedule):
    """A schedule emitted by the array engine.

    Carries the generator's dense tables: the per-stage canonical-code
    programs (``_stage_codes``, one read-only int64 buffer per stage),
    the shared ``ops_by_code`` index (``_build_ops``), the content
    fingerprint taken at generation (``_dense_token``) and the
    committed timeline (``_start``, under the planning cost model
    ``_cost``; read through :func:`build_facts`, and never part of the
    fingerprint or a memo key).
    :func:`repro.schedules.graph.compiled_graph` compiles the codes
    directly on first use, so a build nobody verifies or evaluates is
    never compiled.  The ``OpId``-based ``programs`` are built from the
    codes on first read; nothing else needs them.
    """

    num_ops: int
    ledger_peak_units: float
    _build_ops: Callable[[], list[OpId]]
    _stage_codes: list[memoryview]
    _start: npt.NDArray[np.float64]
    _cost: CostModel
    _dense_token: int

    def __init__(
        self,
        problem: PipelineProblem,
        name: str,
        build_ops: Callable[[], list[OpId]],
        stage_codes: list[memoryview],
        token: int,
        ledger_peak_units: float,
        start: npt.NDArray[np.float64],
        cost: CostModel,
    ) -> None:
        # Frozen like any schedule: the fields are set directly, and
        # ``programs`` is built on first read.
        self.__dict__.update(
            problem=problem,
            num_ops=sum(map(len, stage_codes)),
            ledger_peak_units=ledger_peak_units,
            name=name,
            _build_ops=build_ops,
            _stage_codes=stage_codes,
            _start=start,
            _cost=cost,
            _dense_token=token,
        )

    @cached_property
    def programs(self) -> tuple[StageProgram, ...]:
        ops = self._build_ops()
        return tuple(
            StageProgram(st, tuple(map(ops.__getitem__, codes)))
            for st, codes in enumerate(self._stage_codes)
        )

    def op_count(self) -> int:
        return self.num_ops


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
    deadlock witnesses.  Equivalence rests on five facts,
    each exercised by the golden suite:

    * packed keys order exactly like the priority tuples, and are
      unique per op, so heap minima equal the reference's dict scans;
    * arrivals are final at publish time (an op is published only when
      its last predecessor commits), so the pending→ready transfer at
      ``arr <= now + ARRIVAL_EPS`` admits exactly the ops the
      reference's per-scan arrival filter admits.  The tolerance only
      decides *which* op a stage may pick; the pick then starts at
      ``max(now, free, arr)``, so an op admitted up to ε early starts
      at its arrival, not at the wake — the replay's exact start, off
      the reference's ε clock by less than ε, which moves no decision
      on the golden grid;
    * admitting arrivals at the skeleton pick only (not on a pick that
      retires a W) is exact: ``now`` never decreases, so the ready set
      at every skeleton pick is unchanged;
    * the wake-event queue sees the same ``(time, counter, stage)``
      stream — one push per commit plus one per successor edge,
      W edges included — and drains in the same order: :func:`_drain`
      coalesces same-time events into per-timestamp FIFO buckets under
      a heap of the *distinct* timestamps.  Pushes happen in
      processing order, so each bucket is in push-counter order; a
      same-time push made while its bucket drains opens a *fresh*
      bucket (its entry was popped from ``buckets``), which the times
      heap yields next — again counter order — without a tuple
      allocation and three-way comparison per event.  This relies on
      durations and comm times being non-negative (wake times never
      precede ``now``), true of every cost model here;
    * every float is produced by the same expression over the same
      memoized cost-table values (no reassociation).
    """
    from repro.sim.cost import UniformCost

    # The code -> OpId index, built on first call: the hot loop never
    # touches OpId objects, so for micro-batch-invariant cost models
    # nothing builds it until something materializes programs,
    # ``graph.ops``, or a deadlock witness.
    build_ops = cache(partial(_all_ops, problem))
    planned = cost or UniformCost(problem)
    costs = _code_costs(problem, planned, build_ops)
    wdefer = (
        WGRAD_DEFER_SAMPLES
        * problem.virtual_size
        * problem.num_slices
        * (1.0 + WGRAD_UNITS)
    )
    # Every placement hosts v chunks per stage: v*s cells per micro-batch.
    pending = [problem.virtual_size * problem.num_slices] * problem.num_microbatches
    stages = [
        _Stage(
            stage_cap(problem, policy, st) + _CAP_EPS,
            (policy.cap_slope * st + wdefer) + _CAP_EPS
            if policy.fill_with_wgrad
            else -math.inf,
            pending,
            policy.strong_reserve,
        )
        for st in range(problem.num_stages)
    ]
    peak, starts = _drain(problem, policy, stages, costs, ceiling, build_ops)
    programs = [st.program for st in stages]
    return _emit(problem, name, programs, build_ops, peak, starts, planned)


def _all_ops(problem: PipelineProblem) -> list[OpId]:
    """Every op of ``problem``, indexed by canonical code."""
    n, s, chunks = problem.num_microbatches, problem.num_slices, problem.num_chunks
    cells = list(product(range(n), range(s), range(chunks)))
    ops = [OpId(OpKind.F, *cell) for cell in cells]
    ops += [OpId(OpKind.B, *cell) for cell in cells]
    if problem.split_backward:
        gemms = range(problem.wgrad_gemms)
        ops += [OpId(OpKind.W, *cell, g) for cell in cells for g in gemms]
    return ops


def _code_costs(
    problem: PipelineProblem, cost: CostModel, build_ops: Callable[[], list[OpId]]
) -> tuple[list[float], list[float], list[float]]:
    """Durations and ledger steps per canonical op code (F -> base,
    B -> cells + base, W(g) -> 2*cells + base*gemms + g, with
    base=(mb*s+sl)*chunks+c), and comm times per successor edge,
    parallel to the structure tables' flattened ``sflat``.

    A micro-batch-invariant model's mb-0 cost table (probed once per
    problem and model; any micro-batch would get its floats) is tiled
    ``n`` times; otherwise every op and edge is probed.
    """
    from repro.sim.cost import cost_table

    table = cost_table(problem, cost)
    n, chunks = problem.num_microbatches, problem.num_chunks
    gemms = problem.wgrad_gemms
    sc = problem.num_slices * chunks
    delta = _ledger_deltas(problem)
    if table is not None:
        dur0, w_lo = table.dur, 2 * sc
        durs = dur0[:sc] * n + dur0[sc:w_lo] * n + dur0[w_lo:] * n
        # Successors in ``sflat``'s order (see _structure_tables).
        comm0_f: list[float] = []
        comm0_b: list[float] = []
        for b in range(sc):
            if b % chunks < chunks - 1:
                comm0_f.append(table.f_next_chunk[b])
            if b + chunks < sc:
                comm0_f.append(table.f_next_slice[b])
            comm0_f.append(table.f_to_b[b])
            if b >= chunks:
                comm0_b.append(table.b_prev_slice[b])
            if b % chunks:
                comm0_b.append(table.b_prev_chunk[b])
            comm0_b += table.b_to_w[b * gemms : (b + 1) * gemms]
        return durs, delta, comm0_f * n + comm0_b * n
    # Per-micro-batch probes need every OpId anyway.
    cells = n * sc
    full_ops = build_ops()
    durs = [cost.duration(op) for op in full_ops]
    sidx, sflat = _structure_tables(problem)[2:]
    scomm = [
        cost.comm_time(full_ops[src], full_ops[dc])
        for src in range(2 * cells)
        for dc in sflat[sidx[src] : sidx[src + 1]]
    ]
    return durs, delta, scomm


class _Stage:
    """One stage's state during a build.

    Published-but-not-arrived ops wait in the ``pend_*`` heaps ordered
    by (arrival, packed entry); once the stage's clock reaches an op's
    arrival it moves to the ``ready_*`` heaps, ordered by packed entry
    alone (entry = key*total + code, so entry order is key order and
    the code is recoverable).  ``minarr`` tracks every published unrun
    F/B op's arrival for the gap-filling imminence check.  Committed ops
    are dropped lazily from the heaps (an F sits in both ``ready_f`` and
    its micro-batch's ``ready_f_mb``).  ``pub`` logs publish order for
    deadlock witnesses only: the reference engine reports stuck ops in
    dict-insertion (= publish) order, which the heaps do not preserve.
    """

    __slots__ = (
        "free_at", "ledger", "live_f", "cap", "last_f", "program",
        "pf", "pb", "front", "front_counts",
        "wq", "whead", "deferred", "allow",
        "pend_f", "pend_b", "ready_f", "ready_b", "ready_f_mb", "minarr",
        "pub",
    )

    def __init__(
        self, cap: float, allow: float, pending: list[int], strong: bool
    ) -> None:
        self.free_at = 0.0  # the stage clock
        self.ledger = 0.0  # pinned activation units
        self.live_f = 0.0  # live F ops
        self.cap = cap  # the live-F cap plus _CAP_EPS
        self.last_f = False  # the last committed F/B was an F
        self.program: list[int] = []
        # Pending forwards/backwards per micro-batch, and the reservation
        # front: the earliest micro-batch with any left in
        # ``front_counts`` (forwards under the strong rule, else
        # backwards).
        self.pf = pending.copy()
        self.pb = pending.copy()
        self.front = 0
        self.front_counts = self.pf if strong else self.pb
        # Deferred W queue (popleft() as the index ``whead``), the units
        # it pins, and the budget past which one retires (-inf when W
        # never defers).
        self.wq: list[int] = []
        self.whead = 0
        self.deferred = 0.0
        self.allow = allow
        self.pend_f: list[tuple[float, int]] = []
        self.pend_b: list[tuple[float, int]] = []
        self.ready_f: list[int] = []
        self.ready_b: list[int] = []
        self.ready_f_mb: list[list[int]] = [[] for _ in pending]
        self.minarr: list[tuple[float, int]] = []
        self.pub: list[int] = []


def _next_fb(
    st: _Stage, thresh: float, total: int, sc: int, n: int, done: bytearray
) -> int:
    """The skeleton pick (Sections 4.3-4.4): the F or B op code ``st``
    runs next, or -1.

    Ops that arrived by ``thresh`` move into the ready heaps first.
    Steady state is one-forward-one-backward alternation, the rhythm of
    every published interleaved schedule: after an F prefer the next B,
    after a B refill the freed slot with an F (the cap bounds the
    warm-up depth).  Whichever kind is not ready falls back to the other.
    """
    pend = st.pend_f
    if pend and pend[0][0] <= thresh:
        rf = st.ready_f
        rfm = st.ready_f_mb
        while pend and pend[0][0] <= thresh:
            ent = heappop(pend)[1]
            heappush(rf, ent)
            heappush(rfm[ent % total // sc], ent)
    rb = st.ready_b
    pend = st.pend_b
    while pend and pend[0][0] <= thresh:
        heappush(rb, heappop(pend)[1])
    if rb and st.last_f:
        return heappop(rb) % total
    # Forward admission under the cap.  The stage's next backward
    # transitively needs every still-pending forward of the earliest
    # unfinished micro-batch (the front); an F op may not eat the cap
    # slots those forwards will need, or the pipeline wedges.  The strong
    # rule protects the earliest micro-batch with pending *forwards*
    # instead, which is strictly safer (see GreedyPolicy.strong_reserve).
    rf = st.ready_f
    while rf and done[rf[0] % total]:
        heappop(rf)
    if rf:
        cnt = st.front_counts
        fr = st.front
        while fr < n and cnt[fr] == 0:
            fr += 1
        st.front = fr
        needed = st.pf[fr] if fr < n else 0
        if not st.live_f + 1.0 + needed > st.cap:
            return heappop(rf) % total
        if fr < n and not st.live_f + 1.0 + (needed - 1) > st.cap:
            rfm = st.ready_f_mb[fr]
            while rfm and done[rfm[0] % total]:
                heappop(rfm)
            if rfm:
                return heappop(rfm) % total
    if rb:
        return heappop(rb) % total
    return -1


def _next_w(st: _Stage, now: float, durs: list[float], done: bytearray) -> int:
    """W placement (Section 5): the queued W GEMM code ``st`` runs now,
    or -1.

    Past the deferral budget (``allow``: ~cap_slope*stage structural
    slack plus ``WGRAD_DEFER_SAMPLES``) the queue head retires before
    the skeleton advances.  Otherwise it fills the gap the skeleton
    left — but only when no published F/B op (a capped forward
    included) is due within half the GEMM's runtime, or the
    non-preemptive W would push the critical path.
    """
    head = st.whead
    code = st.wq[head]
    if not st.deferred > st.allow:
        ma = st.minarr
        while ma and done[ma[0][1]]:
            heappop(ma)
        if ma and ma[0][0] <= now + 0.5 * durs[code]:
            return -1
    st.whead = head + 1
    return code


def _drain(
    problem: PipelineProblem,
    policy: GreedyPolicy,
    stages: list[_Stage],
    costs: tuple[list[float], list[float], list[float]],
    ceiling: MemoryCeiling | None,
    build_ops: Callable[[], list[OpId]],
) -> tuple[float, list[float]]:
    """The event loop: wake each stage when it may act, pick its next
    op, and commit it — advance the stage clock, book the ledger
    (:class:`BuildPruned` at ``ceiling``), and publish each successor
    whose last input it was, waking its stage at the arrival moment.
    Returns the ledger peak and every op's start, by code."""
    durs, delta, scomm = costs
    n = problem.num_microbatches
    sc = problem.num_slices * problem.num_chunks
    cells = n * sc
    split = problem.split_backward
    gemms = problem.wgrad_gemms
    total = len(durs)
    arrival_eps = ARRIVAL_EPS
    stage_by_code, unmet0, sidx, sflat = _structure_tables(problem)
    # Packed selection keys, one per cell (W ops are queue-ordered and
    # need none).  Read through the module-level builders so the
    # mutation tests can perturb them.
    fkeys = _fkeys_round_desc(problem)
    bkeys = _PACKED_BACKWARD_KEYS[policy.backward_priority](problem)
    w_add = 1.0 + WGRAD_UNITS
    w_rel = (1.0 + WGRAD_UNITS) / gemms
    push, pop = heappush, heappop
    unmet = unmet0.tolist()  # the one table the loop writes: a real copy
    done = bytearray(total)
    arrival = [0.0] * total
    peak = 0.0

    # Only the F(mb, 0, 0) ops start with no dependencies, all on the
    # stage hosting chunk 0.
    sd = stages[stage_by_code[0]]
    for code in range(0, cells, sc):
        sd.pend_f.append((0.0, fkeys[code] * total + code))
        sd.minarr.append((0.0, code))
        sd.pub.append(code)
    heapify(sd.pend_f)
    heapify(sd.minarr)

    buckets: dict[float, list[int]] = {0.0: list(range(len(stages)))}
    times: list[float] = [0.0]
    remaining = total
    while remaining:
        if not times:
            raise ScheduleError(
                "greedy deadlock; runnable-but-unscheduled: "
                f"{_stuck_witness(build_ops(), done, stages, cells)}"
            )
        now = pop(times)
        thresh = now + arrival_eps
        for stage in buckets.pop(now):
            if not remaining:
                break
            st = stages[stage]
            if thresh < st.free_at:
                continue  # stage busy; its completion wake is queued
            # W placement first once past the deferral budget, else
            # the skeleton pick, else a gap-filling W.
            wq = st.wq
            if st.whead < len(wq) and st.deferred > st.allow:
                code = _next_w(st, now, durs, done)
            else:
                code = _next_fb(st, thresh, total, sc, n, done)
                if code < 0 and st.whead < len(wq):
                    code = _next_w(st, now, durs, done)
            if code < 0:
                continue

            # Commit at the exact clock: the replay recurrence's start
            # (stage free, every input arrived), written over the op's
            # own arrival slot, which nothing reads again.
            free = st.free_at
            start = now if now > free else free
            arr = arrival[code]
            if arr > start:
                start = arr
            arrival[code] = start
            end = start + durs[code]
            st.free_at = end
            st.program.append(code)
            remaining -= 1
            held = st.ledger + delta[code]
            st.ledger = held
            if held > peak:
                peak = held
                if ceiling is not None:
                    floor = ceiling.floor_bytes(peak)
                    if floor >= ceiling.limit_bytes:
                        raise BuildPruned(floor, total - remaining)
            done[code] = 1
            if code < cells:
                st.live_f += 1.0
                st.pf[code // sc] -= 1
                st.last_f = True
            elif code < 2 * cells:
                st.live_f -= 1.0
                b = code - cells
                st.pb[b // sc] -= 1
                st.last_f = False
                if split:
                    w0 = 2 * cells + b * gemms
                    wq.extend(range(w0, w0 + gemms))
                    st.deferred += w_add
            else:
                st.deferred -= w_rel
            last_t, last_b = end, buckets.setdefault(end, [])
            if not last_b:
                push(times, end)
            last_b.append(stage)
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
                    sd = stages[dst]
                    if dc < cells:
                        push(sd.pend_f, (arr, fkeys[dc] * total + dc))
                    else:
                        push(sd.pend_b, (arr, bkeys[dc - cells] * total + dc))
                    push(sd.minarr, (arr, dc))
                    sd.pub.append(dc)
                # Wake the consumer's stage at the arrival moment (most
                # edges are same-stage zero-comm, so the commit wake's
                # bucket is cached and re-used).
                if when != last_t:
                    last_t, last_b = when, buckets.setdefault(when, [])
                    if not last_b:
                        push(times, when)
                last_b.append(dst)
    return peak, arrival


def _emit(
    problem: PipelineProblem,
    name: str,
    programs: list[list[int]],
    build_ops: Callable[[], list[OpId]],
    peak: float,
    starts: list[float],
    cost: CostModel,
) -> _DenseSchedule:
    """The finished build's schedule, its content fingerprint taken
    from the memoized per-code op hashes (equal to hashing the
    materialized programs' OpIds, see _op_hashes).  Each stage's
    program is frozen into one int64 buffer here, and the graph is
    compiled from those on first use; ``starts`` (by code) is gathered
    into dense order, the graph's op order."""
    import numpy as np

    hashes = _op_hashes(
        problem.num_microbatches,
        problem.num_slices,
        problem.num_chunks,
        problem.split_backward,
        problem.wgrad_gemms,
    )
    token = hash(
        tuple(
            (st, tuple(map(hashes.__getitem__, codes)))
            for st, codes in enumerate(programs)
        )
    )
    stage_codes = [int64_table(codes) for codes in programs]
    start = np.asarray(starts)[np.concatenate(stage_codes)]
    start.flags.writeable = False
    return _DenseSchedule(
        problem, name, build_ops, stage_codes, token, peak, start, cost
    )


def _ledger_deltas(problem: PipelineProblem) -> list[float]:
    """Pinned-activation ledger step per canonical op code: the
    problem's F, B and W steps (:attr:`PipelineProblem.ledger_steps`,
    the floats :func:`repro.sim.executor._materialize` adds) tiled over
    the F, B and W code blocks, so running sums are the simulator's
    bit for bit."""
    f, b, w = problem.ledger_steps
    cells = problem.num_microbatches * problem.num_slices * problem.num_chunks
    w_codes = cells * problem.wgrad_gemms if problem.split_backward else 0
    return [f] * cells + [b] * cells + [w] * w_codes


def _stuck_witness(
    ops_by_code: list[OpId], done: bytearray, stages: list[_Stage], cells: int
) -> list[str]:
    """Runnable-but-unscheduled ops in the reference engine's order:
    per stage, available forwards then backwards in publish order, then
    the deferred W queue."""
    stuck: list[str] = []
    for st in stages:
        avail = [code for code in st.pub if not done[code]]
        stuck += [str(ops_by_code[code]) for code in avail if code < cells]
        stuck += [str(ops_by_code[code]) for code in avail if code >= cells]
        stuck += [str(ops_by_code[code]) for code in st.wq[st.whead :]]
    return stuck[:8]
