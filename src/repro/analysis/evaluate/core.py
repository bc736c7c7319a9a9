"""Closed-form/tabular evaluation of a compiled schedule.

:func:`evaluate_schedule` derives, without running the discrete-event
replay loop, everything the planner asks the simulator for:

* per-op start/end times and the iteration makespan — via the
  vectorized max-plus wavefront (:mod:`repro.analysis.evaluate.dense`),
  which is *provably* bit-identical to the event engine (float ``max``
  is exact and order-independent; see the dense module docstring), or,
  for a greedy build, the timeline it committed once
  :mod:`repro.analysis.evaluate.certify` has checked it;
* per-stage busy time and peak live ledger units — via strictly
  sequential ``np.add.accumulate`` prefix sums over the same per-op
  cost/delta floats the simulator's program-order loops add up, so the
  partial sums (and hence peaks) match bit for bit;
* the bubble ratio, warmup/steady/cooldown phase boundaries per stage,
  and the communication seconds on the binding critical path.

Every result carries an :class:`EvalCertificate` stating *why* it can
be trusted: results from this module are certified ``"exact"`` (the
max-plus theorem applies to every compilable schedule), while the
build-free closed forms in :mod:`repro.analysis.evaluate.bounds` issue
``"bounded"`` certificates.  :mod:`repro.sim.crossval` replays either
kind against the event simulator and files ``EV001``–``EV004``
diagnostics when an obligation breaks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.evaluate.certify import check
from repro.analysis.evaluate.dense import (
    DenseTimes,
    FloatArray,
    dense_schedule_times,
    op_cost_arrays,
)
from repro.analysis.evaluate.rules import EVALUATOR_VERSION
from repro.obs.events import NULL_SINK, EventSink
from repro.schedules.base import PipelineProblem, Schedule
from repro.schedules.graph import (
    KIND_B,
    KIND_F,
    KIND_W,
    ScheduleGraph,
    compiled_graph,
    toposort_plan,
)
from repro.schedules.greedy import build_claim
from repro.sim.cost import CostModel, stamp_byte_sizes

#: Basis text of every ``"exact"`` certificate.
EXACT_CERTIFICATE_BASIS = (
    "max-plus wavefront over the compiled graph: float max is "
    "exact and order-independent, adds reuse the simulator's "
    "operands, prefix sums are strictly sequential"
)


@dataclass(frozen=True)
class EvalCertificate:
    """Machine-checkable provenance of one analytic evaluation.

    ``kind`` is ``"exact"`` (the value is proven bit-identical to the
    event simulator; ``lower == value == upper``) or ``"bounded"`` (the
    simulated iteration time is certified to lie in
    ``[lower, upper]``).  ``basis`` names the argument; ``version`` is
    the evaluator arithmetic version the certificate was issued under.
    """

    kind: str
    lower: float
    upper: float
    basis: str
    version: int = EVALUATOR_VERSION

    def contains(self, value: float) -> bool:
        """Whether ``value`` satisfies the certificate."""
        return self.lower <= value <= self.upper

    def consistent(self) -> bool:
        """Internal sanity: interval ordered, exact ⇒ degenerate."""
        if not self.lower <= self.upper:
            return False
        if self.kind == "exact" and self.lower != self.upper:
            return False
        return self.kind in ("exact", "bounded")


@dataclass(frozen=True)
class StagePhases:
    """Warmup/steady/cooldown decomposition of one stage's timeline.

    ``[0, warmup_end)`` is the warmup (before the stage's first
    backward starts), ``[warmup_end, steady_end)`` the steady phase
    (forwards and backwards interleave), and ``[steady_end, end]`` the
    cooldown (only backward-side work remains).  The boundaries always
    satisfy ``0 <= warmup_end <= steady_end <= end`` (rule EV004).
    """

    stage: int
    warmup_end: float
    steady_end: float
    end: float

    @property
    def warmup(self) -> float:
        return self.warmup_end

    @property
    def steady(self) -> float:
        return self.steady_end - self.warmup_end

    @property
    def cooldown(self) -> float:
        return self.end - self.steady_end

    def ordered(self) -> bool:
        """The EV004 obligation."""
        return 0.0 <= self.warmup_end <= self.steady_end <= self.end


@dataclass(frozen=True)
class AnalyticEvaluation:
    """Everything the analytic evaluator derives from one schedule."""

    schedule_name: str
    problem: PipelineProblem
    makespan: float
    overhead_time: float
    stage_busy: tuple[float, ...]
    stage_peak_units: tuple[float, ...]
    stage_ends: tuple[float, ...]
    stage_op_counts: tuple[int, ...]
    phases: tuple[StagePhases, ...]
    #: Seconds of communication on the binding critical path, and the
    #: number of ops that path visits.
    comm_on_critical_path_s: float
    critical_path_ops: int
    #: Dependency height of the schedule (Kahn wavefront count).
    levels: int
    certificate: EvalCertificate
    activation_bytes_per_unit: float = 0.0
    comm_bytes_per_message: float = 0.0
    times: DenseTimes | None = field(default=None, repr=False, compare=False)

    @property
    def iteration_time(self) -> float:
        """Makespan plus iteration-level overheads (DP sync, optimizer)."""
        return self.makespan + self.overhead_time

    @property
    def bubble_ratio(self) -> float:
        """Aggregate idle fraction: ``1 - busy / (p * makespan)``."""
        if self.makespan <= 0:
            return 0.0
        busy = sum(self.stage_busy)
        return 1.0 - busy / (len(self.stage_busy) * self.makespan)

    @property
    def peak_activation_units(self) -> float:
        """Maximum over stages of pinned ledger memory, in units of A."""
        return max(self.stage_peak_units)

    @property
    def num_stages(self) -> int:
        return len(self.stage_busy)

    def stage_bubble_ratio(self, stage: int) -> float:
        """Idle fraction of one stage over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return 1.0 - self.stage_busy[stage] / self.makespan

    @property
    def stage_peak_bytes(self) -> tuple[int, ...]:
        """Per-stage peak activation bytes (ledger units × bytes/unit)."""
        bpu = self.activation_bytes_per_unit
        return tuple(int(round(u * bpu)) for u in self.stage_peak_units)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready summary (CLI ``--json`` output)."""
        return {
            "schedule": self.schedule_name,
            "iteration_time": self.iteration_time,
            "makespan": self.makespan,
            "overhead_time": self.overhead_time,
            "bubble_ratio": self.bubble_ratio,
            "peak_activation_units": self.peak_activation_units,
            "comm_on_critical_path_s": self.comm_on_critical_path_s,
            "critical_path_ops": self.critical_path_ops,
            "levels": self.levels,
            "certificate": {
                "kind": self.certificate.kind,
                "lower": self.certificate.lower,
                "upper": self.certificate.upper,
                "basis": self.certificate.basis,
                "version": self.certificate.version,
            },
            "stages": [
                {
                    "stage": s,
                    "busy": self.stage_busy[s],
                    "peak_units": self.stage_peak_units[s],
                    "end": self.stage_ends[s],
                    "ops": self.stage_op_counts[s],
                    "warmup_end": self.phases[s].warmup_end,
                    "steady_end": self.phases[s].steady_end,
                }
                for s in range(self.num_stages)
            ],
        }

    def render_text(self) -> str:
        """Human-readable summary (CLI default output)."""
        cert = self.certificate
        lines = [
            f"schedule {self.schedule_name}: "
            f"iteration {self.iteration_time:.6g}s "
            f"(makespan {self.makespan:.6g}s + overhead "
            f"{self.overhead_time:.6g}s), "
            f"bubble {self.bubble_ratio:.2%}, "
            f"peak {self.peak_activation_units:.4g} units of A",
            f"critical path: {self.critical_path_ops} ops, "
            f"{self.comm_on_critical_path_s:.6g}s comm; "
            f"dependency height {self.levels}",
            f"certificate: {cert.kind} v{cert.version} "
            f"[{cert.lower:.6g}, {cert.upper:.6g}] — {cert.basis}",
        ]
        for s in range(self.num_stages):
            ph = self.phases[s]
            lines.append(
                f"  stage {s}: busy {self.stage_busy[s]:.6g}s "
                f"({self.stage_bubble_ratio(s):.2%} idle), "
                f"peak {self.stage_peak_units[s]:.4g}u, "
                f"warmup {ph.warmup:.6g}s / steady {ph.steady:.6g}s / "
                f"cooldown {ph.cooldown:.6g}s"
            )
        return "\n".join(lines)


def _ledger_deltas(graph: ScheduleGraph) -> FloatArray:
    """Per-op ledger deltas: the problem's F/B/W steps
    (:attr:`PipelineProblem.ledger_steps`) gathered by kind code, the
    floats the simulator's program-order ledger adds."""
    steps = np.empty(3, dtype=np.float64)
    steps[[KIND_F, KIND_B, KIND_W]] = graph.problem.ledger_steps
    return steps[np.asarray(graph.kind)]


def ledger_peak_units(graph: ScheduleGraph) -> float:
    """:attr:`AnalyticEvaluation.peak_activation_units` without pricing:
    the ledger reads only the graph's kind codes."""
    deltas = _ledger_deltas(graph)
    stages = (deltas[lo:hi] for lo, hi in graph.stage_bounds if hi > lo)
    return max([0.0, *(float(np.add.accumulate(d).max()) for d in stages)])


def _stage_phases(
    graph: ScheduleGraph, times: DenseTimes, stage: int
) -> StagePhases:
    """Phase boundaries of one stage from the dense times."""
    lo, hi = graph.stage_bounds[stage]
    stage_end = float(times.end[hi - 1]) if hi > lo else 0.0
    kind = np.asarray(graph.kind[lo:hi])
    b_pos = np.nonzero(kind == KIND_B)[0]
    f_pos = np.nonzero(kind == KIND_F)[0]
    warmup_end = (
        float(times.start[lo + int(b_pos[0])]) if b_pos.size else stage_end
    )
    last_f_end = (
        float(times.end[lo + int(f_pos[-1])]) if f_pos.size else warmup_end
    )
    steady_end = min(max(warmup_end, last_f_end), stage_end)
    return StagePhases(
        stage=stage,
        warmup_end=warmup_end,
        steady_end=steady_end,
        end=stage_end,
    )


def _critical_path(
    graph: ScheduleGraph, times: DenseTimes
) -> tuple[float, int]:
    """Backtrack one binding critical path from the latest-ending op.

    At each op the binding constraint is recovered by re-testing the
    exact float equalities the wavefront's ``max`` resolved — the
    program predecessor first, then dependency edges in ``pred`` order —
    so the walk is deterministic and terminates at a chain origin
    (``start == 0`` with no binding constraint).  Returns the summed
    communication seconds along the path and the op count it visits.
    """
    num_ops = graph.num_ops
    if num_ops == 0:
        return 0.0, 0
    start, end, comm = times.start, times.end, times.comm
    pos = graph.pos
    pred_indptr, pred = graph.pred_indptr, graph.pred
    i = int(np.argmax(end))
    comm_s = 0.0
    visited = 0
    while visited <= num_ops:
        visited += 1
        s_i = start[i]
        if pos[i] > 0 and end[i - 1] == s_i:
            i -= 1
            continue
        for e in range(pred_indptr[i], pred_indptr[i + 1]):
            if end[pred[e]] + comm[e] == s_i:
                comm_s += float(comm[e])
                i = pred[e]
                break
        else:
            break  # chain origin: start == 0 with no binding constraint
    return comm_s, visited


def evaluate_schedule(
    schedule: Schedule,
    cost: CostModel,
    overhead_time: float = 0.0,
    sink: EventSink = NULL_SINK,
) -> AnalyticEvaluation:
    """Statically evaluate ``schedule`` under ``cost``.

    Produces the same iteration time, bubble ratio, per-stage busy
    times, and per-stage peak ledger units as
    ``repro.sim.executor.simulate`` — certified exact (bit-for-bit) by
    the max-plus argument in :mod:`repro.analysis.evaluate.dense` —
    plus the phase decomposition and critical-path communication the
    simulator does not report.  The schedule is statically verified on
    entry exactly like the simulator's entry point (cached verdict, so
    re-verification is free when the builder already checked it).

    A greedy build priced under the cost model it was planned with is
    priced from the timeline it committed
    (:func:`~repro.schedules.greedy.build_claim`) when that passes
    :func:`~repro.analysis.evaluate.certify.check` under ``cost``'s
    tables; any other schedule, a build planned under another cost
    model, or a failed check runs the scalar kernel.
    """
    from repro.schedules.verify import ensure_verified

    wall_start = time.perf_counter()
    ensure_verified(schedule, context="evaluate")
    graph = compiled_graph(schedule)
    claimed = build_claim(schedule, cost)
    times: DenseTimes | None = None
    if claimed is not None:
        times = check(graph, claimed, *op_cost_arrays(graph, cost))
    if times is None:
        times = dense_schedule_times(graph, cost)

    deltas = _ledger_deltas(graph)
    stage_busy: list[float] = []
    stage_peak: list[float] = []
    stage_ends: list[float] = []
    op_counts: list[int] = []
    phases: list[StagePhases] = []
    for s, (lo, hi) in enumerate(graph.stage_bounds):
        if hi > lo:
            # Strictly sequential prefix sums: identical partial-sum
            # floats to the simulator's program-order accumulation.
            stage_busy.append(
                float(np.add.accumulate(times.duration[lo:hi])[-1])
            )
            running = np.add.accumulate(deltas[lo:hi])
            stage_peak.append(max(0.0, float(running.max())))
            stage_ends.append(float(times.end[hi - 1]))
        else:
            stage_busy.append(0.0)
            stage_peak.append(0.0)
            stage_ends.append(0.0)
        op_counts.append(hi - lo)
        phases.append(_stage_phases(graph, times, s))
    makespan = max(stage_ends) if stage_ends else 0.0
    comm_s, path_ops = _critical_path(graph, times)
    # The kernel's own cached plan: its wavefront count is the height.
    levels = toposort_plan(graph).levels

    iteration = makespan + overhead_time
    certificate = EvalCertificate(
        kind="exact",
        lower=iteration,
        upper=iteration,
        basis=EXACT_CERTIFICATE_BASIS,
    )
    result = AnalyticEvaluation(
        schedule_name=schedule.name,
        problem=graph.problem,
        makespan=makespan,
        overhead_time=overhead_time,
        stage_busy=tuple(stage_busy),
        stage_peak_units=tuple(stage_peak),
        stage_ends=tuple(stage_ends),
        stage_op_counts=tuple(op_counts),
        phases=tuple(phases),
        comm_on_critical_path_s=comm_s,
        critical_path_ops=path_ops,
        levels=levels,
        certificate=certificate,
        times=times,
    )
    stamp_byte_sizes(result, cost)

    if sink.enabled:
        wall_end = time.perf_counter()
        sink.span(
            f"evaluate {schedule.name}",
            ts=wall_start,
            dur=wall_end - wall_start,
            cat="evaluate",
            args={
                "ops": graph.num_ops,
                "levels": levels,
                "iteration_time": iteration,
            },
        )
        sink.counter("evaluate_ops", float(graph.num_ops), ts=wall_end)
        sink.counter(
            "evaluate_comm_critical_s", comm_s, ts=wall_end
        )
    return result
