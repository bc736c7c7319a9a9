"""Allocation guard for the planner's frontier-confirm path.

``evaluate_config(tier="sim")`` — full ``assert_clean``, the heap
oracle, the materializer and the capacity ledger — runs on the compiled
graph's integer tables.  It decodes one ``OpId`` per distinct cost key
or named op, never one per op: the count of ``OpId`` constructions is
independent of the number of micro-batches, and the graph's ``OpId``
tuple stays unbuilt.  The count is exact and deterministic; this is the
fence against someone re-adding ``graph.ops`` to the hot path.  A
greedy build counts its ops the same way, without building one.
"""

from contextlib import contextmanager

from repro.analysis.core import _interface_findings
from repro.hardware.cluster import RTX4090_CLUSTER
from repro.model.spec import LLAMA_7B
from repro.parallel.strategies import ParallelConfig
from repro.planner.evaluate import _prelude, evaluate_config
from repro.schedules import build_schedule, gencache, mepipe_schedule
from repro.schedules.base import OpId
from repro.schedules.graph import compiled_graph
from repro.schedules.methods import build_problem
from repro.sim.executor import simulate

#: dp=8 x pp=8 on the 64-GPU cluster; no channel of this shape carries
#: a CH001 reorder (whose witness messages would scale with n).
CONFIG = ParallelConfig(dp=8, pp=8, spp=4)


@contextmanager
def counting_op_ids(monkeypatch):
    """Count ``OpId`` constructions inside the block: yields a one-item
    list holding the count."""
    made = [0]
    post_init = OpId.__post_init__

    def counting(self):
        made[0] += 1
        post_init(self)

    with monkeypatch.context() as patch:
        patch.setattr(OpId, "__post_init__", counting)
        yield made


def confirm(num_microbatches, monkeypatch):
    """Sim-tier evaluate one cell from a cold schedule memo; returns
    (OpId constructions, schedule, cost)."""
    gbs = num_microbatches * CONFIG.dp
    # Whatever ran earlier in this process must not have generated the
    # cell (or read its records) already, and both measurements start
    # equally cold: the shape-gate and prelude memos build ``OpId``s on
    # a miss.
    gencache.clear()
    _interface_findings.cache_clear()
    _prelude.cache_clear()
    with counting_op_ids(monkeypatch) as made:
        result = evaluate_config(
            "mepipe", LLAMA_7B, RTX4090_CLUSTER, CONFIG, gbs, tier="sim"
        )
    assert result.tier == "sim"
    pre = _prelude("mepipe", LLAMA_7B, RTX4090_CLUSTER, CONFIG, gbs)
    assert pre.problem.num_microbatches == num_microbatches
    schedule = build_schedule("mepipe", pre.problem, pre.cost, pre.auto_f)
    return made[0], schedule, pre.cost


def test_confirming_a_config_allocates_per_cost_key_not_per_op(monkeypatch):
    made_16, schedule_16, _ = confirm(16, monkeypatch)
    made_32, schedule_32, cost = confirm(32, monkeypatch)
    graph_16, graph_32 = compiled_graph(schedule_16), compiled_graph(schedule_32)
    assert graph_32.num_ops == 2 * graph_16.num_ops
    assert made_16 == made_32
    assert 0 < made_32 < graph_16.num_ops
    assert graph_16._ops is None and graph_32._ops is None

    # The records are still there for whoever reads them.
    result = simulate(schedule_32, cost, engine="heap")
    assert graph_32._ops is None
    assert len(result.records) == schedule_32.op_count() == graph_32.num_ops
    assert graph_32._ops is not None


def test_a_greedy_build_counts_its_ops_without_building_them(monkeypatch):
    problem = build_problem("mepipe", 4, 8, num_slices=2, wgrad_gemms=2)
    schedule = mepipe_schedule(problem)  # fresh: its OpId index unbuilt
    with counting_op_ids(monkeypatch) as made:
        count = schedule.op_count()
    assert made == [0]
    assert count == compiled_graph(schedule).num_ops == len(problem.all_ops())
