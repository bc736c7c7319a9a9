"""The schedule memo behind ``build_schedule``: identity, key safety, bounds.

``repro.schedules.gencache`` holds the one process-wide memo of built
schedules, keyed on ``build_schedule``'s own inputs — ``(method,
problem, cost, f)``.  The contract:

* a hit returns the previously built :class:`Schedule` object, and a
  cold rebuild of the same inputs is byte-identical to it — the memo is
  invisible to every downstream consumer;
* keys differing in any one input never alias, and a cost model that is
  not a hashable value bypasses the memo entirely;
* every return — hit or miss — passes the verifier's safety tier, so a
  shared schedule mutated in place is rejected, never served;
* the memo is bounded and thread-safe, and the planner folds
  ``GENERATOR_VERSION`` into SweepCache fingerprints.
"""

import random
import sys
import threading
from dataclasses import FrozenInstanceError, dataclass

import pytest

from repro.hardware.cluster import RTX4090_CLUSTER
from repro.model.spec import LLAMA_13B
from repro.parallel.strategies import ParallelConfig
from repro.planner.parallel import CACHE_SCHEMA, EvalTask, eval_fingerprint
from repro.schedules import gencache
from repro.schedules.base import PipelineProblem
from repro.schedules.graph import compiled_graph, fingerprint
from repro.schedules.methods import METHODS, build_problem, build_schedule
from repro.sim.cost import UniformCost

GRAPH_FIELDS = (
    "fingerprint", "ops", "kind", "cell", "gemm", "stage", "pos",
    "stage_bounds", "pred_indptr", "pred", "succ_indptr", "succ",
)

#: One buildable (stages, microbatches, slices, virtual) per method.
SHAPES = {
    "gpipe": (3, 5, 1, 1),
    "dapple": (4, 6, 1, 1),
    "terapipe": (3, 4, 2, 1),
    "vpp": (2, 4, 1, 2),
    "hanayo": (2, 4, 1, 2),
    "zb": (3, 5, 1, 1),
    "zbv": (2, 4, 1, 2),
    "svpp": (2, 4, 2, 2),
    "mepipe": (4, 8, 4, 1),
}


@pytest.fixture(autouse=True)
def fresh_memo():
    gencache.clear()
    yield
    gencache.clear()


def problem_for(method, microbatches=None):
    p, n, s, v = SHAPES[method]
    return build_problem(method, p, microbatches or n, s, v, wgrad_gemms=2)


def assert_same_schedule(a, b):
    assert [pr.ops for pr in a.programs] == [pr.ops for pr in b.programs]
    assert fingerprint(a) == fingerprint(b)
    ga, gb = compiled_graph(a), compiled_graph(b)
    for fld in GRAPH_FIELDS:
        assert getattr(ga, fld) == getattr(gb, fld), fld


# ----------------------------------------------------------------------
# Byte-identity of hits
# ----------------------------------------------------------------------
def test_hits_are_byte_identical_to_cold_generation():
    """For every method, under no cost and under a seeded random cost: a
    hit returns the remembered object, and that object is byte-identical
    to a cold build."""
    assert set(SHAPES) == set(METHODS)
    rng = random.Random(20260808)
    for method in METHODS:
        problem = problem_for(method)
        for cost in (None, UniformCost(problem, tf=1 + rng.random(), tw=rng.random())):
            first = build_schedule(method, problem, cost)
            assert build_schedule(method, problem, cost) is first

            gencache.clear()
            cold = build_schedule(method, problem, cost)
            assert cold is not first
            assert_same_schedule(first, cold)


def test_hit_and_miss_counters():
    problem = problem_for("mepipe")
    build_schedule("mepipe", problem)
    assert gencache.stats() == {"hits": 0, "misses": 1, "size": 1}
    build_schedule("MEPipe", problem)  # method names are case-insensitive
    assert gencache.stats() == {"hits": 1, "misses": 1, "size": 1}
    assert gencache.snapshot() == (1, 1)


# ----------------------------------------------------------------------
# Key safety: no aliasing, bypasses, mutation
# ----------------------------------------------------------------------
def test_key_separates_problem_policy_and_cost_tables():
    """Seeded: two builds whose inputs differ in exactly one of problem,
    cost, ``f`` (the policy knob) or method are never served from one
    entry — each is its own object, equal to its own cold build."""
    rng = random.Random(20260809)
    for _ in range(12):
        method = rng.choice(["svpp", "mepipe"])
        problem = problem_for(method)
        cost = UniformCost(problem, tf=1 + rng.random())
        base = (method, problem, cost, 5)
        variants = [
            (method, problem_for(method, rng.randint(5, 7)), cost, 5),
            (method, problem, UniformCost(problem, tf=3 + rng.random()), 5),
            (method, problem, None, 5),
            (method, problem, cost, rng.choice([None, 4, 6])),
        ]
        built = build_schedule(*base)
        for variant in variants:
            other = build_schedule(*variant)
            assert other is not built, variant
            assert build_schedule(*variant) is other
            assert build_schedule(*base) is built
        for variant in variants:
            remembered = build_schedule(*variant)
            gencache.clear()
            assert_same_schedule(remembered, build_schedule(*variant))

    # Method: gpipe and dapple schedule the very same problem.
    problem = problem_for("dapple")
    gpipe, dapple = build_schedule("gpipe", problem), build_schedule("dapple", problem)
    assert gpipe.name != dapple.name
    assert build_schedule("gpipe", problem) is gpipe
    assert build_schedule("dapple", problem) is dapple


class _NonInvariantCost:
    """A cost model that refuses the micro-batch-invariance contract —
    and, like any plain object, hashes by identity."""

    microbatch_invariant = False

    def __init__(self, problem):
        self.problem = problem

    def duration(self, op):
        return UniformCost(self.problem).duration(op) * (1.0 + 0.01 * op.microbatch)

    def comm_time(self, dep, op):
        return 0.0


@dataclass
class _MutableCost(_NonInvariantCost):
    """A mutable dataclass (``__hash__`` is ``None``), the shape of
    ``repro.profiler.ProfiledCost``."""

    problem: PipelineProblem


@dataclass(frozen=True)
class _FrozenAroundADict(_NonInvariantCost):
    """Frozen, so it has a value hash — which raises on the dict."""

    problem: PipelineProblem
    table: dict


def test_non_invariant_cost_bypasses_the_cache():
    problem = problem_for("mepipe")
    for cost in (
        _NonInvariantCost(problem),
        _MutableCost(problem),
        _FrozenAroundADict(problem, table={}),
    ):
        a = build_schedule("mepipe", problem, cost)
        b = build_schedule("mepipe", problem, cost)
        assert b is not a  # never served from the memo
        assert_same_schedule(a, b)
        assert gencache.stats() == {"hits": 0, "misses": 0, "size": 0}


def test_profiled_cost_is_not_a_memo_key():
    from repro.profiler import ProfiledCost

    problem = problem_for("dapple")
    cost = ProfiledCost(problem, measurements={})
    assert build_schedule("dapple", problem, cost) is not build_schedule(
        "dapple", problem, cost
    )
    assert gencache.stats()["size"] == 0


def test_a_shared_schedule_mutated_in_place_is_rejected_not_served():
    """``build_schedule`` returns one shared object per key, for the
    explicit generators too.  A schedule is frozen, so a caller cannot
    reorder it in place and poison later callers: the edit raises, and
    a hit is the object that was built, unchanged."""
    problem = problem_for("dapple")
    shared = build_schedule("dapple", problem)
    programs = shared.programs
    with pytest.raises(AttributeError):
        shared.programs[0].ops.reverse()  # backward-before-forward: deadlock
    with pytest.raises(FrozenInstanceError):
        shared.programs = programs[::-1]
    assert build_schedule("dapple", problem) is shared
    assert shared.programs is programs
    gencache.clear()
    clean = build_schedule("dapple", problem)
    assert clean is not shared
    assert clean.programs == programs


# ----------------------------------------------------------------------
# Bounded, thread-safe, resettable
# ----------------------------------------------------------------------
def test_concurrent_builds_of_one_key_agree():
    """The service's eight job threads asking for one schedule at once
    all get byte-identical answers and leave one resident entry."""
    problem = problem_for("mepipe")
    threads, results, barrier = [], [None] * 8, threading.Barrier(8)

    def build(i):
        barrier.wait(timeout=30)
        results[i] = build_schedule("mepipe", problem)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i in range(8):
            threads.append(threading.Thread(target=build, args=(i,)))
            threads[-1].start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for result in results[1:]:
        assert_same_schedule(results[0], result)
    stats = gencache.stats()
    assert stats["size"] == 1
    assert stats["hits"] + stats["misses"] == 8
    assert build_schedule("mepipe", problem) in results


def test_lru_bound_holds():
    extra = 5
    problems = [
        PipelineProblem(num_stages=2, num_microbatches=n)
        for n in range(1, gencache._MAXSIZE + extra + 1)
    ]
    built = [build_schedule("gpipe", problem) for problem in problems]
    assert gencache.stats() == {
        "hits": 0, "misses": len(problems), "size": gencache._MAXSIZE,
    }
    assert build_schedule("gpipe", problems[-1]) is built[-1]  # resident
    assert build_schedule("gpipe", problems[0]) is not built[0]  # evicted
    assert gencache.stats()["size"] == gencache._MAXSIZE


def test_distinct_problems_occupy_distinct_entries_and_clear_resets():
    problems = [PipelineProblem(2, n, 1, 1) for n in range(2, 6)]
    for problem in problems:
        build_schedule("dapple", problem)
    assert gencache.stats()["size"] == len(problems)
    gencache.clear()
    assert gencache.stats() == {"hits": 0, "misses": 0, "size": 0}
    assert gencache.snapshot() == (0, 0)


# ----------------------------------------------------------------------
# Planner integration: fingerprints
# ----------------------------------------------------------------------
def test_generator_version_is_in_sweep_fingerprints(monkeypatch):
    task = EvalTask(
        "mepipe", LLAMA_13B, RTX4090_CLUSTER,
        ParallelConfig(dp=8, pp=8, spp=2), 64,
    )
    assert CACHE_SCHEMA == 4
    before = eval_fingerprint(task)
    monkeypatch.setattr(gencache, "GENERATOR_VERSION", "greedy-test-bump")
    assert eval_fingerprint(task) != before
