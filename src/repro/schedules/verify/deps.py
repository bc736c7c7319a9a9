"""Structure and deadlock analysis of a schedule.

Two layers:

* :func:`check_structure` — placement, coverage, duplicates: is every
  op of the problem scheduled exactly once on the stage that hosts its
  chunk?
* :func:`check_deadlock` — a Kahn ready-queue pass over the combined
  graph (Section 4.1 dependency edges + per-stage program-order edges),
  O(V+E) where the old token-passing validator was O(V^2).  On failure
  it reports the per-stage blocked head positions and extracts a
  *minimal blocking cycle*: the shortest chain of dependency and
  program-order edges that closes on itself, rendered op by op.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.schedules.base import OpId, OpKind, Schedule, ScheduleError
from repro.schedules.graph import ScheduleGraph, toposort_plan
from repro.schedules.verify.diagnostics import Finding

#: BFS-per-node budget for cycle minimization; beyond this SCC size the
#: first discovered shortest cycle through one node is reported.
_MIN_CYCLE_BFS_CAP = 256


@dataclass
class ScheduleIndex:
    """Positions of each op's first occurrence, plus structure flags."""

    #: op -> (stage, index in that stage's program), first occurrence.
    positions: dict[OpId, tuple[int, int]] = field(default_factory=dict)
    has_duplicates: bool = False
    has_foreign: bool = False


def _dense_structure_clean(schedule: Schedule) -> bool | None:
    """ST001-ST004 verdict straight from a dense engine's code tables.

    Schedules emitted by the array-native greedy engine carry their
    per-stage programs as canonical op codes (``_stage_codes``) until
    something materializes ``OpId`` programs.  The ST rules are pure
    code arithmetic — in-range (ST004, and kind/gemm validity, since
    the canonical code space enumerates exactly the problem's ops),
    home-stage placement (ST001), no duplicates (ST003), full coverage
    (ST002) — so this path checks the codes with vectorized NumPy and
    never builds an ``OpId``.  Keeping the programs unmaterialized also
    keeps :func:`~repro.schedules.graph.fingerprint` on its precomputed
    token, so every later verdict/graph cache probe stays O(1).

    Returns ``None`` when not applicable (no code tables, or programs
    already materialized — then nothing is saved by the dense path),
    ``True`` when clean, ``False`` on any anomaly (the caller falls
    through to the detailed diagnostic pass).
    """
    codes_by_stage = getattr(schedule, "_stage_codes", None)
    if codes_by_stage is None or getattr(schedule, "_programs", 0) is not None:
        return None
    problem = schedule.problem
    # The dense programs property emits stages 0..len-1 in order, so
    # ST005 reduces to the stage count.
    if len(codes_by_stage) != problem.num_stages:
        return False
    n, s = problem.num_microbatches, problem.num_slices
    chunks = problem.num_chunks
    split = problem.split_backward
    gemms = problem.wgrad_gemms
    cells = n * s * chunks
    total = cells * 2 + (cells * gemms if split else 0)
    counts = [len(codes) for codes in codes_by_stage]
    if sum(counts) != total:
        return False  # ST002 missing / ST003 duplicate by count
    if total == 0:
        return True
    code = np.concatenate(
        [np.asarray(codes, dtype=np.int64) for codes in codes_by_stage]
    )
    if int(code.min()) < 0 or int(code.max()) >= total:
        return False  # ST004 foreign (out of the canonical code space)
    seen = np.zeros(total, dtype=bool)
    seen[code] = True
    if not seen.all():
        return False  # some code absent => another duplicated (ST002/ST003)
    g_div = gemms if gemms else 1  # np.where evaluates both branches
    base = np.where(
        code < cells,
        code,
        np.where(code < 2 * cells, code - cells, (code - 2 * cells) // g_div),
    )
    stage_of_chunk = np.asarray(problem._placement_tables[0], dtype=np.int64)
    stage = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    if not bool(np.all(stage_of_chunk[base % chunks] == stage)):
        return False  # ST001 misplaced
    return True


def _structure_clean_fast(schedule: Schedule) -> bool:
    """Whether the schedule passes ST001-ST004 — no diagnostics.

    Arithmetic membership over canonical op codes: each in-range op maps
    to a unique integer, a bytearray marks first occurrences, and a
    placement table replaces the per-op stage branch.  No ``OpId`` set
    is materialized and nothing is hashed; the detailed (and allocating)
    pass below runs only when this scan finds an anomaly.
    """
    problem = schedule.problem
    n, s = problem.num_microbatches, problem.num_slices
    chunks = problem.num_chunks
    split = problem.split_backward
    gemms = problem.wgrad_gemms
    cells = n * s * chunks
    total = cells * 2 + (cells * gemms if split else 0)
    stage_of_chunk = problem._placement_tables[0]
    seen = bytearray(total)
    count = 0
    for program in schedule.programs:
        stage = program.stage
        for op in program.ops:
            mb, sl, c, g = op.microbatch, op.slice_idx, op.chunk, op.gemm
            if not (0 <= mb < n and 0 <= sl < s and 0 <= c < chunks):
                return False  # ST004 foreign
            if stage_of_chunk[c] != stage:
                return False  # ST001 misplaced
            base = (mb * s + sl) * chunks + c
            kind = op.kind
            if kind is OpKind.F:
                if g != -1:
                    return False
                code = base
            elif kind is OpKind.B:
                if g != -1:
                    return False
                code = cells + base
            else:
                if not split or not 0 <= g < gemms:
                    return False
                code = 2 * cells + base * gemms + g
            if seen[code]:
                return False  # ST003 duplicate
            seen[code] = 1
            count += 1
    return count == total  # ST002 missing otherwise


def check_structure(schedule: Schedule) -> tuple[list[Finding], ScheduleIndex]:
    """Placement, coverage, and duplication invariants (ST rules).

    Clean schedules (the hot path) are recognized by a single
    allocation-free arithmetic scan and return an *empty*
    :class:`ScheduleIndex` — downstream analyses use the compiled
    :class:`~repro.schedules.graph.ScheduleGraph` instead of the
    positions dict.  Only anomalous schedules take the detailed pass
    that materializes positions and itemized findings.
    """
    problem = schedule.problem
    findings: list[Finding] = []
    index = ScheduleIndex()

    # Dense engines are verified from their code tables without ever
    # materializing OpId programs — materialization would disarm the
    # precomputed fingerprint token and re-hash every later cache probe.
    dense_verdict = _dense_structure_clean(schedule)
    if dense_verdict:
        return findings, index

    stages_seen = [program.stage for program in schedule.programs]
    if stages_seen != list(range(problem.num_stages)):
        findings.append(
            Finding(
                "ST005",
                f"expected one program per stage in order "
                f"0..{problem.num_stages - 1}, got stages {stages_seen}",
            )
        )
        return findings, index

    if dense_verdict is None and _structure_clean_fast(schedule):
        return findings, index

    expected = set(problem.all_ops())
    for program in schedule.programs:
        for idx, op in enumerate(program.ops):
            if op in index.positions:
                dup_stage, dup_idx = index.positions[op]
                index.has_duplicates = True
                findings.append(
                    Finding(
                        "ST003",
                        f"duplicate op {op}: first at stage {dup_stage}#"
                        f"{dup_idx}, again at stage {program.stage}#{idx}",
                        stage=program.stage,
                        op=op,
                    )
                )
                continue
            index.positions[op] = (program.stage, idx)
            if op not in expected:
                index.has_foreign = True
                findings.append(
                    Finding(
                        "ST004",
                        f"op {op} is not part of the problem "
                        f"(p={problem.num_stages}, n={problem.num_microbatches}, "
                        f"s={problem.num_slices}, v={problem.virtual_size}, "
                        f"split={problem.split_backward})",
                        stage=program.stage,
                        op=op,
                    )
                )
                continue
            home = problem.stage_of(op)
            if home != program.stage:
                findings.append(
                    Finding(
                        "ST001",
                        f"op {op} scheduled on stage {program.stage}, "
                        f"belongs to stage {home} (chunk {op.chunk})",
                        stage=program.stage,
                        op=op,
                    )
                )
    missing = expected - set(index.positions)
    if missing:
        sample = ", ".join(str(o) for o in sorted(missing)[:5])
        suffix = ", ..." if len(missing) > 5 else ""
        findings.append(
            Finding(
                "ST002",
                f"op set mismatch: {len(missing)} op(s) missing from the "
                f"schedule (e.g. {sample}{suffix})",
                op=min(missing),
            )
        )
    return findings, index


def _edge_label(problem, src: OpId, dst: OpId) -> str:
    """Human name of the dependency edge ``src -> dst``."""
    hop = " (cross-stage)" if problem.is_cross_stage(src, dst) else ""
    if src.kind is OpKind.F and dst.kind is OpKind.F:
        if dst.chunk == src.chunk + 1:
            return f"chunk input{hop}"
        return f"causal-attention KV of slice {src.slice_idx}{hop}"
    if src.kind is OpKind.F and dst.kind is OpKind.B:
        return "own forward activations"
    if src.kind is OpKind.B and dst.kind is OpKind.B:
        if dst.chunk == src.chunk - 1:
            return f"activation gradient{hop}"
        return f"dK/dV from slice {src.slice_idx}{hop}"
    return "backward output (weight-gradient input)"


def _deadlock_free_fast(graph: ScheduleGraph) -> bool:
    """Deadlock verdict from the graph's cached topological plan.

    :func:`~repro.schedules.graph.toposort_plan` runs one integer Kahn
    pass (no ``OpId`` is touched, nothing is hashed) and memoizes the
    resulting plan on the graph — so the verdict here and the dense
    evaluator's replay order come from the same single pass.
    Deadlocked graphs raise inside the pass and nothing is cached.
    """
    try:
        toposort_plan(graph)
    except ScheduleError:
        return False
    return True


def _positions_of(schedule: Schedule) -> dict[OpId, tuple[int, int]]:
    """First-occurrence positions, for diagnostic paths that skipped the
    detailed structure pass."""
    positions: dict[OpId, tuple[int, int]] = {}
    for program in schedule.programs:
        for idx, op in enumerate(program.ops):
            if op not in positions:
                positions[op] = (program.stage, idx)
    return positions


def check_deadlock(
    schedule: Schedule,
    index: ScheduleIndex,
    graph: ScheduleGraph | None = None,
) -> list[Finding]:
    """Kahn ready-queue deadlock detection with a minimal-cycle witness.

    Operates on the ops present in the schedule (first occurrences);
    dependency edges whose producer is absent are ignored — coverage
    violations are :func:`check_structure`'s findings, and a real
    deployment would block on the *channel*, which
    :mod:`repro.schedules.verify.channels` reports separately.

    With a compiled ``graph`` (structurally clean schedule) the verdict
    comes from an integer Kahn pass; the ``OpId``-level walk below runs
    only to reconstruct blocked heads and the minimal-cycle witness
    after a failed verdict, or when no graph is available.
    """
    if graph is not None and _deadlock_free_fast(graph):
        return []
    problem = schedule.problem
    positions = index.positions or _positions_of(schedule)
    programs = [program.ops for program in schedule.programs]

    # Combined graph: successor lists and in-degrees over present ops.
    succ: dict[OpId, list[OpId]] = {op: [] for op in positions}
    indeg: dict[OpId, int] = {op: 0 for op in positions}
    for op in positions:
        for dep in problem.deps(op):
            if dep in positions:
                succ[dep].append(op)
                indeg[op] += 1
    for ops in programs:
        for prev, nxt in zip(ops, ops[1:]):
            succ[prev].append(nxt)
            indeg[nxt] += 1

    queue = deque(op for op, d in indeg.items() if d == 0)
    processed = 0
    total = len(positions)
    while queue:
        op = queue.popleft()
        processed += 1
        for nxt in succ[op]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    if processed == total:
        return []

    # Blocked: reconstruct per-stage head positions (processed ops form
    # a prefix of each program because of the order edges).
    residual = {op for op, d in indeg.items() if d > 0}
    heads: list[str] = []
    for stage, ops in enumerate(programs):
        head = next(
            (i for i, op in enumerate(ops) if op in residual), None
        )
        if head is None:
            heads.append(f"stage {stage}: drained ({len(ops)} ops)")
        else:
            heads.append(
                f"stage {stage}: blocked at #{head}/{len(ops)} on "
                f"{ops[head]}"
            )

    cycle = _minimal_cycle(residual, succ)
    witness = ["blocked heads:"] + [f"  {line}" for line in heads]
    if cycle:
        witness.append(f"minimal blocking cycle ({len(cycle)} edges):")
        for i, op in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            stage, idx = positions[op]
            if op in problem.deps(nxt):
                # Dependency edge op -> nxt (op must complete first).
                label = _edge_label(problem, op, nxt)
            else:
                label = f"stage {stage} program order"
            witness.append(
                f"  {op} @ stage {stage}#{idx} -> {nxt}  [{label}]"
            )
    blocked = [h for h in heads if "blocked" in h]
    return [
        Finding(
            "DL001",
            f"deadlock: {len(residual)} op(s) can never run; "
            f"{len(blocked)} stage(s) blocked",
            witness=tuple(witness),
        )
    ]


def _minimal_cycle(
    residual: set[OpId], succ: dict[OpId, list[OpId]]
) -> list[OpId]:
    """Shortest cycle inside the blocked subgraph.

    Finds the strongly connected components of the residual graph
    (every Kahn residual contains at least one non-trivial SCC), takes
    the smallest, and BFSes within it for the shortest closed walk.
    """
    sccs = _tarjan_sccs(residual, succ)
    cyclic = [c for c in sccs if len(c) > 1]
    if not cyclic:
        return []
    scc = set(min(cyclic, key=len))
    starts = sorted(scc) if len(scc) <= _MIN_CYCLE_BFS_CAP else [min(scc)]
    best: list[OpId] = []
    for start in starts:
        cycle = _shortest_cycle_through(start, scc, succ)
        if cycle and (not best or len(cycle) < len(best)):
            best = cycle
            if len(best) == 2:
                break
    return best


def _shortest_cycle_through(
    start: OpId, scc: set[OpId], succ: dict[OpId, list[OpId]]
) -> list[OpId]:
    """BFS for the shortest path ``start -> ... -> start`` within ``scc``."""
    parent: dict[OpId, OpId] = {}
    frontier = deque([start])
    seen = {start}
    while frontier:
        op = frontier.popleft()
        for nxt in succ[op]:
            if nxt not in scc:
                continue
            if nxt == start:
                path = [op]
                while op != start:
                    op = parent[op]
                    path.append(op)
                path.reverse()
                return path
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = op
                frontier.append(nxt)
    return []


def _tarjan_sccs(
    nodes: set[OpId], succ: dict[OpId, list[OpId]]
) -> list[list[OpId]]:
    """Iterative Tarjan restricted to ``nodes``."""
    index_of: dict[OpId, int] = {}
    lowlink: dict[OpId, int] = {}
    on_stack: set[OpId] = set()
    stack: list[OpId] = []
    sccs: list[list[OpId]] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        work: list[tuple[OpId, int]] = [(root, 0)]
        while work:
            op, child_i = work[-1]
            if child_i == 0:
                index_of[op] = lowlink[op] = counter
                counter += 1
                stack.append(op)
                on_stack.add(op)
            advanced = False
            children = [w for w in succ[op] if w in nodes]
            while child_i < len(children):
                child = children[child_i]
                child_i += 1
                if child not in index_of:
                    work[-1] = (op, child_i)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[op] = min(lowlink[op], index_of[child])
            if advanced:
                continue
            work.pop()
            if lowlink[op] == index_of[op]:
                scc: list[OpId] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == op:
                        break
                sccs.append(scc)
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[op])
    return sccs
