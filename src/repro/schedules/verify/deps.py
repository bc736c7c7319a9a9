"""Structure and deadlock analysis of a schedule.

Two layers:

* :func:`check_structure` — placement, coverage, duplicates: is every
  op of the problem scheduled exactly once on the stage that hosts its
  chunk?  The verdict is the compile: a schedule that
  :func:`~repro.schedules.graph.compiled_graph` accepts is clean, and
  only a rejected one is walked op by op for itemized findings.
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

from repro.schedules.base import OpId, OpKind, Schedule, ScheduleError
from repro.schedules.graph import ScheduleGraph, compiled_graph, toposort_plan
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


def check_structure(schedule: Schedule) -> tuple[list[Finding], ScheduleIndex]:
    """Placement, coverage, and duplication invariants (ST rules).

    The compiler enforces exactly these invariants, so a schedule that
    compiles (the hot path) is clean: it returns an *empty*
    :class:`ScheduleIndex`, and downstream analyses use the cached
    :class:`~repro.schedules.graph.ScheduleGraph` instead of the
    positions dict.  A greedy emission compiles from its code tables
    without materializing ``OpId`` programs.  Only a schedule the
    compiler rejects takes the detailed pass that materializes
    positions and itemized findings.
    """
    problem = schedule.problem
    findings: list[Finding] = []
    index = ScheduleIndex()
    try:
        compiled_graph(schedule)
    except ScheduleError:
        pass
    else:
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
