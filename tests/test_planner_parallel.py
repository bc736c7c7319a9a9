"""Parallel fan-out, on-disk sweep cache, and the skipped-config trail.

The contract under test: a grid search returns the identical best
config, evaluation trail, and skip reasons for every worker count and
cache state — parallelism and caching are pure wall-clock
optimizations.
"""

import dataclasses
import hashlib
import json
import os
import sys
import threading

import pytest

from repro.analysis.capacity.rules import CAPACITY_VERSION
from repro.analysis.evaluate.rules import EVALUATOR_VERSION
from repro.hardware import get_cluster
from repro.hardware.cluster import RTX4090_CLUSTER
from repro.model import get_model
from repro.model.spec import LLAMA_7B, LLAMA_13B
from repro.parallel.strategies import ParallelConfig
from repro.planner import evaluate as evaluate_module
from repro.planner import parallel as parallel_module
from repro.planner.parallel import (
    CACHE_SCHEMA,
    EvalOutcome,
    EvalTask,
    SweepCache,
    eval_fingerprint,
    evaluate_tasks,
    merge_outcomes,
)
from repro.planner.search import pareto_frontier, search_method
from repro.schedules import gencache
from repro.schedules import graph as graph_module

GBS = 64


def _task(config=None, method="mepipe", gbs=GBS, tier="sim"):
    config = config or ParallelConfig(dp=8, pp=8, spp=2)
    return EvalTask(method, LLAMA_13B, RTX4090_CLUSTER, config, gbs, tier=tier)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_is_stable_and_input_sensitive():
    base = _task()
    assert eval_fingerprint(base) == eval_fingerprint(_task())
    assert eval_fingerprint(base) != eval_fingerprint(_task(gbs=128))
    assert eval_fingerprint(base) != eval_fingerprint(_task(method="svpp"))
    assert eval_fingerprint(base) != eval_fingerprint(
        _task(config=ParallelConfig(dp=4, pp=16, spp=2))
    )


def _reference_fingerprint(task):
    """The fingerprint formula on-disk caches were written under: one
    ``json.dumps`` over fresh ``asdict`` payloads, with the one capacity
    mode every evaluation charges."""
    payload = {
        "schema": CACHE_SCHEMA,
        "method": task.method,
        "spec": dataclasses.asdict(task.spec),
        "cluster": dataclasses.asdict(task.cluster),
        "config": dataclasses.asdict(task.config),
        "global_batch_size": task.global_batch_size,
        "tier": task.tier,
        "evaluator": EVALUATOR_VERSION,
        "generator": gencache.GENERATOR_VERSION,
        "capacity_mode": "backpressure-free",
        "capacity": CAPACITY_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_fingerprint_matches_the_on_disk_formula():
    tasks = [
        EvalTask(
            method,
            get_model(model),
            get_cluster(cluster),
            config,
            gbs,
            tier=tier,
        )
        for method in ("mepipe", "zb")
        for model, cluster in (("13b", "rtx4090-64"), ("7b", "a100-32"))
        for config in (
            ParallelConfig(dp=8, pp=8, spp=2),
            ParallelConfig(dp=2, pp=16, cp=2, vp=2, recompute=True),
        )
        for gbs in (32, 128)
        for tier in ("sim", "analytic")
    ]
    assert len({eval_fingerprint(t) for t in tasks}) == len(tasks)
    for task in tasks:
        assert eval_fingerprint(task) == _reference_fingerprint(task)


def test_fingerprint_shares_no_mutable_payload(monkeypatch):
    # Every dict a fingerprint computation builds is the caller's own:
    # scribbling over all of them cannot reach the next computation.
    handed_out = []
    real_asdict = dataclasses.asdict

    def spying_asdict(obj):
        handed_out.append(real_asdict(obj))
        return handed_out[-1]

    monkeypatch.setattr(parallel_module, "asdict", spying_asdict)
    parallel_module._canonical_spec.cache_clear()
    task = _task()
    expected = _reference_fingerprint(task)
    assert eval_fingerprint(task) == expected
    assert len(handed_out) == 3  # spec, cluster, config
    for payload in handed_out:
        payload.clear()
        payload["poisoned"] = True
    assert eval_fingerprint(task) == expected
    # The spec and cluster payloads were not rebuilt for the second task.
    assert len(handed_out) == 4


# ----------------------------------------------------------------------
# SweepCache
# ----------------------------------------------------------------------
def test_cache_round_trips_results_and_errors(tmp_path):
    cache = SweepCache(tmp_path)
    task = _task()
    assert cache.get(task) is None

    outcome = evaluate_tasks([task], cache=cache)[0]
    assert outcome.ok
    hit = cache.get(task)
    assert hit is not None and hit.ok
    assert hit.result == outcome.result

    bad = _task(config=ParallelConfig(dp=8, pp=8, spp=3))  # seq not divisible
    (bad_outcome,) = evaluate_tasks([bad], cache=cache)
    assert not bad_outcome.ok
    cached_bad = cache.get(bad)
    assert cached_bad is not None and not cached_bad.ok
    assert cached_bad.error == bad_outcome.error


def test_cache_tolerates_corrupt_and_stale_entries(tmp_path):
    cache = SweepCache(tmp_path)
    task = _task()
    evaluate_tasks([task], cache=cache)
    path = tmp_path / f"{eval_fingerprint(task)}.json"
    assert path.exists()

    good = json.loads(path.read_text())
    truncated = dict(good, result={"method": good["result"]["method"]})
    bodies = [
        "{ not json",  # corrupt
        json.dumps({"schema": CACHE_SCHEMA - 1, "status": "ok", "result": {}}),
        # Valid JSON that is not a well-formed entry of this schema.
        "[]",
        '"x"',
        json.dumps({"schema": CACHE_SCHEMA, "status": "ok"}),
        json.dumps({"schema": CACHE_SCHEMA, "status": "error"}),
        json.dumps(truncated),
    ]
    for body in bodies:
        path.write_text(body)
        misses = cache.misses
        assert cache.get(task) is None, body  # a miss, never a raise
        assert cache.misses == misses + 1, body
        # And a re-run recomputes and repairs the entry.
        (outcome,) = evaluate_tasks([task], cache=cache)
        assert outcome.ok, body
        assert json.loads(path.read_text()) == good, body
        assert cache.get(task) == outcome, body


def test_concurrent_puts_of_one_cell_never_share_a_temp_file(tmp_path, monkeypatch):
    """The service runs several job threads in one pid; two plans that
    share a cell write it concurrently.  Each writer must stage its own
    temp file, or an interleaved write + rename publishes a torn entry."""
    writers, rounds = 8, 10
    task = _task()
    (outcome,) = evaluate_tasks([task])
    cache = SweepCache(tmp_path)
    sources = []
    real_replace = os.replace

    def recording_replace(src, dst):
        sources.append(str(src))
        real_replace(src, dst)

    monkeypatch.setattr(parallel_module.os, "replace", recording_replace)
    barrier = threading.Barrier(writers + 1, timeout=30)
    per_round, seen = [], []
    reader = SweepCache(tmp_path)

    def write():
        for _ in range(rounds):
            barrier.wait()
            cache.put(task, outcome)
            barrier.wait()

    threads = [threading.Thread(target=write) for _ in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside write + rename
    try:
        for thread in threads:
            thread.start()
        for _ in range(rounds):
            barrier.wait()  # release one round of writers, read beside them
            seen.extend(reader.get(task) for _ in range(20))
            barrier.wait()
            per_round.append(list(sources))
            sources.clear()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # All writers of a round are alive at once (thread ids cannot
    # recycle), so each must have renamed its own temp file.
    assert [len(set(batch)) for batch in per_round] == [writers] * rounds
    assert all(hit is None or hit == outcome for hit in seen)
    assert cache.get(task) == outcome
    assert not list(tmp_path.glob("*.tmp.*"))


def test_cache_kill_switch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_CACHE", "0")
    cache = SweepCache(tmp_path)
    task = _task()
    evaluate_tasks([task], cache=cache)
    assert not list(tmp_path.iterdir())
    assert cache.get(task) is None


def test_cache_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    cache = SweepCache()
    assert cache.root == tmp_path / "elsewhere"


# ----------------------------------------------------------------------
# Deterministic fan-out and merge
# ----------------------------------------------------------------------
def test_jobs_do_not_change_search_outcome(tmp_path):
    """--jobs 1 and --jobs 4 produce identical best, trail, and skips."""
    results = {
        jobs: search_method(
            "mepipe", LLAMA_13B, RTX4090_CLUSTER, GBS, jobs=jobs
        )
        for jobs in (1, 4)
    }
    assert results[1].best == results[4].best
    assert results[1].evaluated == results[4].evaluated
    assert [(s.config, s.reason) for s in results[1].skipped] == [
        (s.config, s.reason) for s in results[4].skipped
    ]


def test_cache_does_not_change_search_outcome(tmp_path):
    cache = SweepCache(tmp_path)
    cold = search_method("zb", LLAMA_13B, RTX4090_CLUSTER, GBS, cache=cache)
    assert cache.misses > 0 and cache.hits == 0
    warm = search_method("zb", LLAMA_13B, RTX4090_CLUSTER, GBS, cache=cache)
    assert cache.hits > 0
    assert warm.best == cold.best
    assert warm.evaluated == cold.evaluated


# ----------------------------------------------------------------------
# One evaluate_config per cell: a count-based fence (no timings)
# ----------------------------------------------------------------------
def _dapple_sweep(jobs=1, evaluator="grid"):
    # 29 survivors (each recompute on/off pair shares one schedule
    # structure), one bound-pruned candidate, a three-config frontier.
    return search_method(
        "dapple", LLAMA_7B, RTX4090_CLUSTER, GBS, jobs=jobs, evaluator=evaluator
    )


def _skips(result):
    return [(s.config, s.reason) for s in result.skipped]


def _assert_same_sweep(got, want):
    assert got.best == want.best
    assert got.evaluated == want.evaluated
    assert _skips(got) == _skips(want)
    assert pareto_frontier(got.evaluated) == pareto_frontier(want.evaluated)


def _cold_memos():
    gencache.clear()
    evaluate_module._prelude.cache_clear()


def test_grid_sweep_prices_each_survivor_once(monkeypatch):
    priced, planned, built = [], [], []

    def counting(module, name, log):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            log.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(evaluate_module, "evaluate_schedule", priced)
    counting(evaluate_module, "build_schedule", built)
    counting(graph_module, "build_topo_plan", planned)
    _cold_memos()
    result = _dapple_sweep()

    configs = {r.config for r in result.evaluated}
    assert any(
        c.recompute and c.with_(recompute=False) in configs for c in configs
    ), "the sweep must contain a recompute on/off pair"
    assert any(s.reason.startswith("analytic:") for s in result.skipped)
    # Every survivor reached the trail, so each was priced exactly once
    # by the scalar kernel (the frontier's confirmation is the heap
    # oracle's, not a second pricing) ...
    assert not any(s.reason.startswith("rejected:") for s in result.skipped)
    assert len(priced) == len(result.evaluated)
    # ... on a plan built at most once per built schedule.
    assert len(planned) <= len(built)
    assert len({id(graph) for graph in planned}) == len(planned)


def test_pair_members_equal_their_solo_evaluation():
    configs = [ParallelConfig(dp=8, pp=8, recompute=rc) for rc in (False, True)]
    tasks = [
        _task(config=c, method="dapple", tier="analytic") for c in configs
    ]
    for jobs in (1, 2):
        outcomes = evaluate_tasks(tasks, jobs=jobs)
        for config, outcome in zip(configs, outcomes):
            _cold_memos()
            alone = evaluate_module.evaluate_config(
                "dapple", LLAMA_13B, RTX4090_CLUSTER, config, GBS, tier="analytic"
            )
            assert outcome.result == alone


def test_grid_sweep_is_jobs_invariant_and_matches_sim():
    grid = _dapple_sweep(jobs=1)
    _assert_same_sweep(_dapple_sweep(jobs=2), grid)
    sim = _dapple_sweep(evaluator="sim")
    # Modulo the tier tag and the bound-pruned candidates (which "sim"
    # evaluates): same optimum, same rows, same skips, same frontier.
    assert grid.best == sim.best
    sim_rows = {r.config: r for r in sim.evaluated}
    assert [dataclasses.replace(r, tier="sim") for r in grid.evaluated] == [
        sim_rows[r.config] for r in grid.evaluated
    ]
    pruned = {c for c, why in _skips(grid) if why.startswith("analytic:")}
    assert {r.config for r in sim.evaluated} == pruned | {
        r.config for r in grid.evaluated
    }
    assert [x for x in _skips(grid) if x[0] not in pruned] == _skips(sim)
    assert pareto_frontier(grid.evaluated) == pareto_frontier(sim.evaluated)


def test_completion_order_merge_is_caught(monkeypatch):
    """Mutation: pool results merged in completion order (here: the last
    task finishes first) instead of by task index."""
    want = _dapple_sweep(jobs=2)
    real = parallel_module.pool.run_map
    monkeypatch.setattr(
        parallel_module.pool,
        "run_map",
        lambda fn, items, jobs: real(fn, items, jobs)[::-1],
    )
    with pytest.raises(AssertionError):
        _assert_same_sweep(_dapple_sweep(jobs=2), want)


def test_merge_tie_breaks_on_config_sort_key():
    def result_for(config, t):
        from repro.planner.evaluate import EvalResult

        return EvalOutcome(
            result=EvalResult(
                method="x",
                config=config,
                iteration_time_s=t,
                bubble_ratio=0.0,
                peak_memory_bytes=0,
                activation_bytes=0,
                oom=False,
                tflops_per_gpu=0.0,
                mfu=0.0,
            )
        )

    small = ParallelConfig(dp=2, pp=2)
    large = ParallelConfig(dp=4, pp=1)
    # Equal times: the smaller sort key must win regardless of order.
    for order in ([small, large], [large, small]):
        best, evaluated = merge_outcomes([result_for(c, 1.0) for c in order])
        assert best is not None and best.config == small
        assert len(evaluated) == 2


# ----------------------------------------------------------------------
# Skip trail
# ----------------------------------------------------------------------
def test_search_records_skips_with_reasons():
    result = search_method("mepipe", LLAMA_13B, RTX4090_CLUSTER, GBS)
    assert result.skipped, "expected statically pruned candidates"
    for skip in result.skipped:
        assert skip.reason
    assert any("static memory" in s.reason for s in result.skipped)
    # Trail + skips cover disjoint configs.
    evaluated = {r.config for r in result.evaluated}
    assert evaluated.isdisjoint({s.config for s in result.skipped})


def test_rejected_configs_carry_rejection_reason(tmp_path):
    """An evaluation-time rejection lands in the trail, cached or not."""
    task = _task(config=ParallelConfig(dp=8, pp=8, spp=3))
    cache = SweepCache(tmp_path)
    (outcome,) = evaluate_tasks([task], cache=cache)
    assert not outcome.ok
    assert outcome.error
    (replayed,) = evaluate_tasks([task], cache=cache)
    assert replayed.error == outcome.error


def test_search_result_backward_compatible_construction():
    from repro.planner.search import SearchResult

    empty = SearchResult(method="x", best=None, evaluated=[])
    assert empty.skipped == []
    assert not empty.all_oom


@pytest.mark.parametrize("jobs", [1, 2])
def test_process_pool_path_smoke(jobs):
    tasks = [
        _task(config=ParallelConfig(dp=8, pp=8, spp=spp)) for spp in (1, 2)
    ]
    outcomes = evaluate_tasks(tasks, jobs=jobs)
    assert len(outcomes) == 2
    assert all(o.ok for o in outcomes)
