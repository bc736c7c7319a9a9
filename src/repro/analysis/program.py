"""The joined (partition × compiled schedule) program the proof passes walk.

:func:`build_program` joins a :class:`~repro.analysis.ir.PartitionSpec`
with the PR 2 compiled :class:`~repro.schedules.graph.ScheduleGraph`
into a :class:`ModelProgram`:

* the per-chunk **weight-gradient task table** — ``(component, param)``
  pairs in the exact order ``PipelineRuntime`` drains them (components
  reversed within the chunk, each component's queue order as declared
  by its ``wgrad_params``), which the runtime splits round-robin into
  ``wgrad_gemms`` groups (``tasks[i::g]``);
* dense op lookup tables (cell → F/B/W indices);
* the **happens-before edge list**: the graph's CSR dependency edges
  plus each stage's program-order edges.

The structure is deliberately mutable: seeded mutation tests corrupt a
field (drop a task, remove an op, delete a happens-before edge) and
assert the passes report the exact rule and witness.  The clean path
always derives it fresh from the schedule's compiled graph, so mutation
never leaks into real runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ir import PartitionSpec
from repro.schedules.graph import KIND_B, KIND_F, KIND_W, ScheduleGraph


@dataclass(frozen=True)
class TaskRef:
    """One deferred weight-gradient GEMM: a (component, param) pair."""

    component: str
    param: str

    def render(self) -> str:
        return f"{self.component}.{self.param}"


@dataclass
class ModelProgram:
    """The analyzer's view of one (partition, schedule) pair."""

    graph: ScheduleGraph
    partition: PartitionSpec
    #: Per chunk: the wgrad task queue of one (mb, slice) backward, in
    #: runtime drain order.
    chunk_tasks: list[tuple[TaskRef, ...]]
    #: cell -> dense op index of its F / B op.
    f_of: dict[int, int]
    b_of: dict[int, int]
    #: cell -> {gemm -> dense op index} of its W ops.
    w_of: dict[int, dict[int, int]]
    #: Happens-before edges: dependency + same-stage program order.
    hb_edges: list[tuple[int, int]]
    _closure: list[int] | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def happens_before_closure(self) -> list[int]:
        """``before[i]`` as a bitmask of every op ordered before op ``i``.

        Computed once per program by a Kahn pass over ``hb_edges`` and
        cached; mutation tests that edit ``hb_edges`` must do so before
        the first query.
        """
        if self._closure is not None:
            return self._closure
        n = self.graph.num_ops
        succs: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in self.hb_edges:
            succs[a].append(b)
            indeg[b] += 1
        before = [0] * n
        ready = [i for i in range(n) if indeg[i] == 0]
        done = 0
        while ready:
            nxt: list[int] = []
            for i in ready:
                done += 1
                mask = before[i] | (1 << i)
                for j in succs[i]:
                    before[j] |= mask
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        nxt.append(j)
            ready = nxt
        if done != n:
            raise ValueError("happens-before edges contain a cycle")
        self._closure = before
        return before

    def happens_before(self, a: int, b: int) -> bool:
        """Whether op ``a`` is ordered before op ``b``."""
        return bool((self.happens_before_closure()[b] >> a) & 1)

    def topo_position(self) -> list[int]:
        """A total order extension: ops sorted by closure popcount then
        stage position — stable and consistent with happens-before."""
        before = self.happens_before_closure()
        order = sorted(
            range(self.graph.num_ops),
            key=lambda i: (before[i].bit_count(), self.graph.stage[i],
                           self.graph.pos[i]),
        )
        position = [0] * self.graph.num_ops
        for rank, i in enumerate(order):
            position[i] = rank
        return position


def build_program(
    partition: PartitionSpec, graph: ScheduleGraph
) -> ModelProgram:
    """Join the partition with the compiled schedule graph."""
    chunk_tasks: list[tuple[TaskRef, ...]] = []
    for chunk in partition.chunks:
        tasks: list[TaskRef] = []
        # PipelineRuntime walks the chunk's components in reverse for
        # the backward and extends one flat task list.
        for comp in reversed(chunk.components):
            tasks.extend(TaskRef(comp.name, p) for p in comp.wgrad_params)
        chunk_tasks.append(tuple(tasks))

    f_of: dict[int, int] = {}
    b_of: dict[int, int] = {}
    w_of: dict[int, dict[int, int]] = {}
    for i in range(graph.num_ops):
        cell = graph.cell[i]
        kind = graph.kind[i]
        if kind == KIND_F:
            f_of[cell] = i
        elif kind == KIND_B:
            b_of[cell] = i
        elif kind == KIND_W:
            w_of.setdefault(cell, {})[graph.gemm[i]] = i

    hb_edges: list[tuple[int, int]] = []
    for i in range(graph.num_ops):
        if graph.pos[i] > 0:
            hb_edges.append((i - 1, i))
        for j in graph.preds_of(i):
            hb_edges.append((j, i))

    return ModelProgram(
        graph=graph,
        partition=partition,
        chunk_tasks=chunk_tasks,
        f_of=f_of,
        b_of=b_of,
        w_of=w_of,
        hb_edges=hb_edges,
    )
