"""Golden reference for the schedule replay: the fixed-point engine.

The simulator's original engine — a round-robin blocked-head scan over
the stage programs, one ``OpId`` dict lookup per dependency, with the
activation ledger as an object per stage.  It never reads the compiled
:class:`~repro.schedules.graph.ScheduleGraph`, its topological plan or
any cost table, so it shares nothing with the replay kernel
(``analysis.evaluate.dense.wavefront_times``) or the heap oracle
(``sim.executor._simulate_heap``) beyond the cost model's own methods.
The golden suites (``tests/test_engine_golden.py``, the capacity and
evaluator mutation suites) hold both to it bit for bit; nothing in
``src/`` calls it, which is why it lives beside those tests.

Nothing here may be "improved": the whole value of the file is that it
computes the old answer the old way.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

from repro.schedules.base import (
    OpId,
    OpKind,
    PipelineProblem,
    Schedule,
    ScheduleError,
)
from repro.schedules.verify import ensure_verified
from repro.sim import crossval
from repro.sim.cost import CostModel, stamp_byte_sizes
from repro.sim.executor import OpRecord, SimResult, StageMetrics


@dataclass
class Ledger:
    """Tracks pinned activation (and activation-gradient) memory.

    An F op pins its activations until they are consumed: at B
    completion for fused backward, or gradually over the op's W GEMMs
    when the backward pass is split (each retired W GEMM releases its
    share of both the activations and the activation gradients that B
    materialized, sized ``actgrad_factor`` relative to the activations).
    """

    problem: PipelineProblem
    actgrad_factor: float = 1.0
    current: float = 0.0
    peak: float = 0.0

    def apply(self, op: OpId, units: float) -> None:
        p = self.problem
        if op.kind is OpKind.F:
            self.current += units
        elif op.kind is OpKind.B:
            if p.split_backward:
                self.current += units * self.actgrad_factor
            else:
                self.current -= units
        else:
            release = units * (1.0 + self.actgrad_factor) / p.wgrad_gemms
            self.current -= release
        self.peak = max(self.peak, self.current)


def simulate_fixed_point(
    schedule: Schedule,
    cost: CostModel,
    overhead_time: float = 0.0,
    actgrad_factor: float = 1.0,
) -> SimResult:
    """What ``simulate(schedule, cost, ...)`` must return, computed by
    the original list-scheduling fixed point."""
    ensure_verified(schedule, context="simulate")
    problem = schedule.problem
    num_stages = problem.num_stages
    programs = [schedule.stage_ops(s) for s in range(num_stages)]
    heads = [0] * num_stages
    stage_time = [0.0] * num_stages
    end_time: dict[OpId, float] = {}
    records: dict[OpId, OpRecord] = {}
    metrics = [StageMetrics(stage=s) for s in range(num_stages)]
    ledgers = [
        Ledger(problem=problem, actgrad_factor=actgrad_factor)
        for _ in range(num_stages)
    ]

    remaining = sum(len(p) for p in programs)
    while remaining:
        progressed = False
        for stage in range(num_stages):
            ops = programs[stage]
            while heads[stage] < len(ops):
                op = ops[heads[stage]]
                deps = problem.deps(op)
                if any(d not in end_time for d in deps):
                    break
                ready = 0.0
                for d in deps:
                    ready = max(ready, end_time[d] + cost.comm_time(d, op))
                start = max(stage_time[stage], ready)
                dur = cost.duration(op)
                end = start + dur
                records[op] = OpRecord(op=op, stage=stage, start=start, end=end)
                end_time[op] = end
                stage_time[stage] = end
                m = metrics[stage]
                m.busy_time += dur
                m.op_count += 1
                ledgers[stage].apply(op, cost.act_units(op))
                heads[stage] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            stuck = [
                str(programs[s][heads[s]])
                for s in range(num_stages)
                if heads[s] < len(programs[s])
            ]
            raise ScheduleError(f"simulation deadlock; blocked heads: {stuck}")

    for stage in range(num_stages):
        metrics[stage].peak_activation_units = ledgers[stage].peak
    makespan = max(stage_time) if stage_time else 0.0
    result = SimResult(
        schedule_name=schedule.name,
        problem=problem,
        records=records,
        stages=metrics,
        makespan=makespan,
        overhead_time=overhead_time,
    )
    stamp_byte_sizes(result, cost)
    return result


@contextmanager
def crossval_on_fixed_point() -> Iterator[None]:
    """Inside the block, ``cross_validate`` replays on this reference
    instead of the heap oracle."""

    def replay(schedule: Schedule, cost: CostModel, *, engine: str,
               **kwargs: float) -> SimResult:
        assert engine == "heap"
        return simulate_fixed_point(schedule, cost, **kwargs)

    with mock.patch.object(crossval, "simulate", replay):
        yield
