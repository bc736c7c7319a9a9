"""Golden reference for the greedy policy engine.

This module preserves the dict-of-``OpId`` implementation of the greedy
generator exactly as it stood before the array-native rewrite in
:mod:`repro.schedules.greedy`.  It plays the same role the fixed-point
replay (:mod:`tests.oracles.fixed_point`) plays for the simulator: a
genuinely independent implementation the golden-equivalence suite
(``tests/test_greedy_golden.py``) compares the fast engine against,
byte for byte, across the full acceptance grid.  It is **not** on any
production path — ``greedy_schedule`` always runs the array engine —
which is why it lives beside the tests that call it.

Nothing here may be "improved": the whole value of the file is that it
computes the old answer the old way (same float expression order, same
heap tiebreak stream, same dict-iteration tie behavior).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.schedules.base import (
    OpId,
    OpKind,
    PipelineProblem,
    Schedule,
    ScheduleError,
    StageProgram,
)
from repro.schedules.greedy import GreedyPolicy, stage_cap

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.sim.cost import CostModel


#: Selection keys for ready forward ops (smaller tuple wins): the
#: specification the array engine's packed-integer keys
#: (``greedy._fkeys_round_desc``) must order identically to.
_FORWARD_KEYS = {
    # Finish later chunk rounds first (drives each sample toward its
    # first backward); micro-batch order breaks ties.
    "round_desc": lambda op, p: (-(op.chunk // p), op.microbatch,
                                 op.slice_idx, op.chunk),
}


def _b_children(op: OpId) -> int:
    """Number of B descendants within the same micro-batch (Section 4.3)."""
    return (op.slice_idx + 1) * (op.chunk + 1) - 1


@dataclass
class _StageState:
    stage: int
    cap: int
    free_at: float = 0.0
    live_f: float = 0.0
    deferred_units: float = 0.0
    #: Ops whose dependencies have all been scheduled but which have not
    #: themselves run yet, with their arrival times.
    avail_f: dict[OpId, float] = field(default_factory=dict)
    avail_b: dict[OpId, float] = field(default_factory=dict)
    wgrad_queue: deque[OpId] = field(default_factory=deque)
    #: Remaining (not yet run) F op count per micro-batch, for the
    #: front-micro-batch cap reservation.
    pending_f_by_mb: list[int] = field(default_factory=list)
    pending_b_by_mb: list[int] = field(default_factory=list)
    front_b_mb: int = 0
    front_f_mb: int = 0
    #: Kind of the last committed F/B op, for 1F1B alternation.
    last_main: OpKind = OpKind.B
    program: list[OpId] = field(default_factory=list)

    def front_mb(self) -> int | None:
        """Earliest micro-batch with backwards still pending here."""
        counts = self.pending_b_by_mb
        while self.front_b_mb < len(counts) and counts[self.front_b_mb] == 0:
            self.front_b_mb += 1
        if self.front_b_mb >= len(counts):
            return None
        return self.front_b_mb

    def front_f(self) -> int | None:
        """Earliest micro-batch with forwards still pending here."""
        counts = self.pending_f_by_mb
        while self.front_f_mb < len(counts) and counts[self.front_f_mb] == 0:
            self.front_f_mb += 1
        if self.front_f_mb >= len(counts):
            return None
        return self.front_f_mb


def greedy_reference(
    problem: PipelineProblem,
    policy: GreedyPolicy,
    cost: CostModel | None,
    name: str,
) -> Schedule:
    """One generation attempt with the pre-rewrite engine (no fallback)."""
    from repro.sim.cost import UniformCost

    from tests.oracles.cost_memo import op_cost_fns

    cost = cost or UniformCost(problem)
    # Memoized per-op-shape planning costs (identical values; see
    # op_cost_fns) — the generator probes durations and comm times for
    # every op and edge, which dominates sweep time otherwise.
    dur_fn, comm_fn, _act_fn = op_cost_fns(cost)
    num_stages = problem.num_stages
    n = problem.num_microbatches
    s = problem.num_slices
    chunks = problem.num_chunks
    split = problem.split_backward
    gemms = problem.wgrad_gemms
    cells = n * s * chunks
    total = 2 * cells + (cells * gemms if split else 0)
    stage_of_chunk = problem._placement_tables[0]

    states = [
        _StageState(
            stage=st,
            cap=stage_cap(problem, policy, st),
            pending_f_by_mb=[0] * n,
            pending_b_by_mb=[0] * n,
        )
        for st in range(num_stages)
    ]

    # Dense tables indexed by canonical op code (the compiled
    # ScheduleGraph's layout): F -> base, B -> cells + base,
    # W(g) -> 2*cells + base*gemms + g, with base=(mb*s+sl)*chunks+c.
    # Arithmetic codes keep the hot loop free of OpId hashing; the
    # OpId objects themselves are built once, for programs and cost
    # probes.
    ops_by_code: list[OpId] = [None] * total  # type: ignore[list-item]
    stage_by_code = [0] * total
    unmet = [0] * total
    arrival = [0.0] * total
    succ_by_code: list[list[int]] = [[] for _ in range(total)]

    for mb in range(n):
        for sl in range(s):
            row = (mb * s + sl) * chunks
            for c in range(chunks):
                base = row + c
                stage = stage_of_chunk[c]
                ops_by_code[base] = OpId(OpKind.F, mb, sl, c)
                ops_by_code[cells + base] = OpId(OpKind.B, mb, sl, c)
                stage_by_code[base] = stage
                stage_by_code[cells + base] = stage
                states[stage].pending_f_by_mb[mb] += 1
                states[stage].pending_b_by_mb[mb] += 1
                if split:
                    w0 = 2 * cells + base * gemms
                    for g in range(gemms):
                        ops_by_code[w0 + g] = OpId(OpKind.W, mb, sl, c, g)
                        stage_by_code[w0 + g] = stage

    # Dependency transpose, consumers visited in ascending code order so
    # successor lists (and therefore wake-event tiebreaks) match the
    # order a dict-of-OpId build over ``problem.all_ops()`` produces.
    for base in range(cells):
        c = base % chunks
        sl = (base // chunks) % s
        if c > 0:
            succ_by_code[base - 1].append(base)
            unmet[base] += 1
        if sl > 0:
            succ_by_code[base - chunks].append(base)
            unmet[base] += 1
    for base in range(cells):
        c = base % chunks
        sl = (base // chunks) % s
        code = cells + base
        succ_by_code[base].append(code)
        unmet[code] += 1
        if c < chunks - 1:
            succ_by_code[cells + base + 1].append(code)
            unmet[code] += 1
        if sl < s - 1:
            succ_by_code[cells + base + chunks].append(code)
            unmet[code] += 1
    if split:
        for base in range(cells):
            w0 = 2 * cells + base * gemms
            for g in range(gemms):
                succ_by_code[cells + base].append(w0 + g)
                unmet[w0 + g] = 1

    def publish(code: int, op: OpId) -> None:
        """Move a zero-unmet F/B op into its stage's available set."""
        state = states[stage_by_code[code]]
        if op.kind is OpKind.F:
            state.avail_f[op] = arrival[code]
        elif op.kind is OpKind.B:
            state.avail_b[op] = arrival[code]
        # W ops are managed through the per-stage wgrad queues.

    # Only the F(mb, 0, 0) ops start with no dependencies.
    for mb in range(n):
        code = mb * s * chunks
        publish(code, ops_by_code[code])

    counter = itertools.count()
    # Wake events: (time, tiebreak, stage).
    heap: list[tuple[float, int, int]] = [
        (0.0, next(counter), st) for st in range(num_stages)
    ]
    remaining = total

    def choose_b(state: _StageState, now: float) -> OpId | None:
        best: OpId | None = None
        best_key: tuple | None = None
        for op, arr in state.avail_b.items():
            if arr > now + 1e-12:
                continue
            if policy.backward_priority == "children":
                key = (-_b_children(op), op.microbatch, -op.slice_idx, -op.chunk)
            else:
                key = (op.microbatch, -op.slice_idx, -op.chunk)
            if best_key is None or key < best_key:
                best, best_key = op, key
        return best

    def choose_f(state: _StageState, now: float) -> OpId | None:
        # The stage's next backward transitively needs every still-
        # pending forward of the earliest unfinished micro-batch (the
        # "front").  An F op may not eat the cap slots those forwards
        # will need, or the pipeline wedges: the first backward could no
        # longer fit under the cap.  The strong rule protects the
        # earliest micro-batch with pending *forwards* instead, which is
        # strictly safer (see GreedyPolicy.strong_reserve).
        front = state.front_f() if policy.strong_reserve else state.front_mb()
        needed = state.pending_f_by_mb[front] if front is not None else 0
        p = problem.num_stages
        keyfn = _FORWARD_KEYS["round_desc"]
        best: OpId | None = None
        best_key: tuple | None = None
        for op, arr in state.avail_f.items():
            if arr > now + 1e-12:
                continue
            reserve = needed - (1 if op.microbatch == front else 0)
            if state.live_f + 1.0 + reserve > state.cap + 1e-9:
                continue
            key = keyfn(op, p)
            if best_key is None or key < best_key:
                best, best_key = op, key
        return best

    def commit(state: _StageState, op: OpId, now: float) -> None:
        nonlocal remaining
        start = max(now, state.free_at)
        end = start + dur_fn(op)
        state.free_at = end
        state.program.append(op)
        remaining -= 1
        base = (op.microbatch * s + op.slice_idx) * chunks + op.chunk
        if op.kind is OpKind.F:
            code = base
            del state.avail_f[op]
            state.live_f += 1.0
            state.pending_f_by_mb[op.microbatch] -= 1
            state.last_main = OpKind.F
        elif op.kind is OpKind.B:
            code = cells + base
            del state.avail_b[op]
            state.live_f -= 1.0
            state.pending_b_by_mb[op.microbatch] -= 1
            state.last_main = OpKind.B
            if split:
                w0 = 2 * cells + base * gemms
                state.wgrad_queue.extend(
                    ops_by_code[w0 + g] for g in range(gemms)
                )
                state.deferred_units += 1.0 + policy.wgrad_units
        else:
            code = 2 * cells + base * gemms + op.gemm
            # W ops are only ever committed from the queue head.
            state.wgrad_queue.popleft()
            state.deferred_units -= (1.0 + policy.wgrad_units) / gemms
        heapq.heappush(heap, (end, next(counter), state.stage))
        for dc in succ_by_code[code]:
            dependent = ops_by_code[dc]
            when = end + comm_fn(op, dependent)
            if when > arrival[dc]:
                arrival[dc] = when
            unmet[dc] -= 1
            if unmet[dc] == 0 and dependent.kind is not OpKind.W:
                publish(dc, dependent)
            # Wake the consumer's stage at the arrival moment.
            heapq.heappush(heap, (when, next(counter), stage_by_code[dc]))

    while remaining:
        if not heap:
            stuck = [
                str(op)
                for st in states
                for op in itertools.chain(st.avail_f, st.avail_b, st.wgrad_queue)
            ][:8]
            raise ScheduleError(f"greedy deadlock; runnable-but-unscheduled: {stuck}")
        now, _tie, stage = heapq.heappop(heap)
        state = states[stage]
        if now + 1e-12 < state.free_at:
            continue  # stage busy; its completion wake is already queued
        # Stage k holds ~cap_slope*k fewer live activations than stage
        # 0; that slack, plus the configured per-sample budget, is what
        # it may fill with deferred weight-gradient state.
        allowance = policy.cap_slope * stage + (
            policy.wgrad_defer_samples
            * problem.virtual_size
            * problem.num_slices
            * (1.0 + policy.wgrad_units)
        )
        if not policy.fill_with_wgrad and state.wgrad_queue:
            # "W immediately after B": drain weight gradients before
            # anything else (the unoptimized Figure 11 behavior).
            op: OpId | None = state.wgrad_queue[0]
        elif state.wgrad_queue and state.deferred_units > allowance + 1e-9:
            # Deferred weight gradients exceed this stage's memory
            # slack; retire one before advancing the pipeline.
            op = state.wgrad_queue[0]
        else:
            # Steady state is one-forward-one-backward alternation, the
            # rhythm of every published interleaved schedule: after an F
            # prefer the next B, after a B refill the freed slot with an
            # F (the cap bounds the warm-up depth).  Whichever kind is
            # not ready yet falls back to the other.
            if state.last_main is OpKind.F:
                op = choose_b(state, now) or choose_f(state, now)
            else:
                op = choose_f(state, now) or choose_b(state, now)
            if op is None and state.wgrad_queue:
                # Gap filling (Section 5) — but only when no F/B is
                # about to arrive within the GEMM's runtime, otherwise
                # the non-preemptive W would push the critical path.
                w = state.wgrad_queue[0]
                horizon = now + 0.5 * dur_fn(w)
                imminent = any(
                    arr <= horizon
                    for arr in itertools.chain(
                        state.avail_f.values(), state.avail_b.values())
                )
                if not imminent:
                    op = w
        if op is not None:
            commit(state, op, now)

    return Schedule(
        problem=problem,
        programs=[StageProgram(stage=st.stage, ops=st.program) for st in states],
        name=name,
    )
