"""The warm-plan fence: counts, not timings.

A repeated ``plan`` re-reads every cell from the sweep cache (hit
counts, trail and skip reasons are part of the wire contract) but must
recompute nothing: no certified bound, no interface report, no schedule.
The bounds memo behind that is process-wide, so every test here holds
whatever ran before it — CI runs this file both before and after
``tests/test_planner_parallel.py`` to prove it.
"""

from __future__ import annotations

import gc

import pytest

from repro import api
from repro.hardware.cluster import RTX4090_CLUSTER
from repro.model.spec import LLAMA_13B
from repro.planner import SweepCache, search_method
from repro.planner import evaluate as evaluate_module
from repro.planner.search import pareto_frontier
from repro.schedules import gencache
from repro.schedules.greedy import BuildPruned
from repro.sim.cost import ClusterCost

PLAN = api.PlanRequest(
    model="13b", global_batch_size=32, methods=("mepipe", "zb"), max_spp=4
)

#: The pure recomputations a warm plan used to pay for, as bound in
#: ``repro.planner.evaluate`` (where every planner call site reads them).
RECOMPUTED = ("iteration_time_bounds", "interface_report", "build_schedule")


@pytest.fixture()
def calls(monkeypatch):
    """Call counters patched over :data:`RECOMPUTED`."""
    counts = dict.fromkeys(RECOMPUTED, 0)

    def counting(name):
        real = getattr(evaluate_module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in RECOMPUTED:
        monkeypatch.setattr(evaluate_module, name, counting(name))
    return counts


def test_repeated_plan_recomputes_nothing(tmp_path, calls):
    cache = SweepCache(tmp_path)
    first = api.execute(PLAN, cache=cache)
    assert first.ok and cache.misses > 0
    after_first = (cache.hits, cache.misses)
    calls.update(dict.fromkeys(RECOMPUTED, 0))

    second = api.execute(PLAN, cache=cache)
    after_second = (cache.hits, cache.misses)
    third = api.execute(PLAN, cache=cache)

    assert calls == dict.fromkeys(RECOMPUTED, 0)
    assert cache.misses == after_first[1]
    # Every analytic and frontier cell is still read, each time.
    reads = after_second[0] - after_first[0]
    assert reads > 0
    assert cache.hits - after_second[0] == reads
    assert second.methods == first.methods == third.methods
    assert second.cache == {"hits": after_second[0], "misses": after_first[1]}


def _plan_gbs(gbs: int, root) -> tuple:
    response = api.execute(
        api.PlanRequest(
            model="13b", global_batch_size=gbs, methods=("mepipe",), max_spp=4
        ),
        cache=SweepCache(root),
    )
    return response.methods


def _back_to_back_matches_cold(tmp_path) -> bool:
    """Plan GBS 32 then 64 on one memo; is the second answer the one a
    cold memo gives?"""
    evaluate_module.config_bounds.cache_clear()
    _plan_gbs(32, tmp_path / "a32")
    warm = _plan_gbs(64, tmp_path / "a64")
    evaluate_module.config_bounds.cache_clear()
    return warm == _plan_gbs(64, tmp_path / "b64")


def test_two_batch_sizes_back_to_back(tmp_path):
    assert _back_to_back_matches_cold(tmp_path)


def test_memo_keyed_without_batch_size_is_caught(tmp_path, monkeypatch):
    # Seeded mutation: the same memo, minus ``global_batch_size`` in its
    # key, serves GBS 32's bounds to GBS 64 — the fence above must see it.
    real = evaluate_module.config_bounds.__wrapped__
    memo: dict[tuple, object] = {}

    def mutant(method, spec, cluster, config, global_batch_size):
        key = (method, spec, cluster, config)
        if key not in memo:
            memo[key] = real(method, spec, cluster, config, global_batch_size)
        return memo[key]

    mutant.cache_clear = memo.clear
    monkeypatch.setattr(evaluate_module, "config_bounds", mutant)
    assert not _back_to_back_matches_cold(tmp_path)


# ----------------------------------------------------------------------
# The one schedule memo (repro.schedules.gencache) on planner traffic
# ----------------------------------------------------------------------
def _cold_planner_memos():
    gencache.clear()
    evaluate_module._prelude.cache_clear()
    evaluate_module.config_bounds.cache_clear()


def test_one_search_builds_each_config_once_and_confirms_from_the_memo(
    monkeypatch,
):
    """Within one search every config is generated at most once; the
    frontier's sim confirmation re-builds nothing, and a build its
    memory ceiling aborted is a memo miss that never enters the memo."""
    built, aborted = [], []
    real = evaluate_module.build_schedule

    def recording(
        method, problem, cost=None, forwards_before_first_backward=None, ceiling=None
    ):
        key = (method, problem, cost, forwards_before_first_backward)
        built.append(key)
        try:
            return real(method, problem, cost, forwards_before_first_backward, ceiling)
        except BuildPruned:
            aborted.append(key)
            raise

    monkeypatch.setattr(evaluate_module, "build_schedule", recording)
    _cold_planner_memos()
    result = search_method(
        "mepipe", LLAMA_13B, RTX4090_CLUSTER, 32, max_spp=4, jobs=1, cache=None
    )
    frontier = pareto_frontier(result.evaluated)
    stats = gencache.stats()
    assert aborted and len(set(aborted)) == len(aborted)
    assert 0 < len(frontier) <= len(result.evaluated) == len(set(built) - set(aborted))
    assert stats["misses"] == len(set(built))
    assert stats["hits"] == len(frontier)
    assert len(built) == stats["misses"] + stats["hits"]
    assert stats["size"] == min(stats["misses"] - len(aborted), gencache._MAXSIZE)


SMALL_SHAPE = api.ShapeSpec(stages=4, microbatches=8, slices=4, wgrad_gemms=2)


def test_small_requests_on_one_shape_build_once():
    """verify / evaluate / capacity / simulate / check-model on one
    shape ask for the identical ``(method, problem, None, f)``."""
    requests = [
        request(method="mepipe", shape=SMALL_SHAPE)
        for request in (
            api.VerifyRequest,
            api.EvaluateRequest,
            api.CapacityRequest,
            api.SimulateRequest,
        )
    ] + [api.CheckModelRequest(method="mepipe", model="tiny", shape=SMALL_SHAPE)]
    gencache.clear()
    for request in requests:
        assert api.execute(request).ok
    assert gencache.stats() == {"hits": 4, "misses": 1, "size": 1}


def _live_cluster_costs() -> int:
    gc.collect()
    return sum(isinstance(obj, ClusterCost) for obj in gc.get_objects())


def test_served_plans_do_not_accumulate_cost_models():
    """Every plan builds one ``ClusterCost`` per candidate cell; only
    the bounded memos may keep any alive once the plan is answered."""
    _cold_planner_memos()
    held_elsewhere = _live_cluster_costs()
    for gbs in range(32, 32 + 8 * 27, 8):  # 27 distinct plans
        request = api.PlanRequest(
            model="13b",
            global_batch_size=gbs,
            methods=("dapple", "vpp"),
            use_cache=False,
        )
        assert api.execute(request).ok
    capacity = evaluate_module._prelude.cache_info().maxsize + gencache._MAXSIZE
    built = evaluate_module._prelude.cache_info().misses
    assert built > 2 * capacity  # the plans built far more than may stay
    assert _live_cluster_costs() - held_elsewhere <= capacity
