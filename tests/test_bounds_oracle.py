"""The build-free bounds read the cost table and equal the per-``OpId``
derivation bit for bit.

:mod:`repro.analysis.evaluate.bounds` reads a micro-batch-invariant
model's mb-0 :class:`~repro.sim.cost.CostTable` instead of probing the
model op by op.  ``tests/oracles/bounds_reference.py`` keeps the
per-``OpId`` derivation; every candidate the grid sweep bounds in the
Figure 10 cells and in the served cold-plan cells must get ``==``
:class:`TimeBounds` and memory floors from both — the wave order, every
ceiling and every "time lower bound" skip reason hang on those floats.
Two seeded mutations show the comparison has teeth: a table that reads
a chunk of another layer class, and a sum reassociated on an
uneven-split spec.
"""

from __future__ import annotations

import dataclasses
import inspect
import textwrap
from types import SimpleNamespace
from unittest import mock

import pytest

import repro.analysis.evaluate.bounds as bounds_module
import repro.planner.search as search_module
import repro.sim.cost as cost_module
from repro.analysis.evaluate import iteration_time_bounds, peak_units_floor
from repro.hardware import get_cluster
from repro.model import get_model
from repro.parallel.strategies import ParallelConfig
from repro.planner.evaluate import _prelude
from repro.planner.search import search_method
from repro.profiler.core import OpProfile, ProfiledCost
from repro.schedules.base import OpKind
from repro.schedules.methods import build_problem, method_traits
from repro.sim.cost import ClusterCost, UniformCost

from tests.oracles import bounds_reference as reference

METHODS = ("dapple", "vpp", "zb", "zbv", "mepipe")
#: Figure 10 (GBS 128 on the RTX 4090 cluster) and the served cold plans.
CELLS = [(model, "rtx4090-64", 128) for model in ("7b", "13b", "34b")] + [
    (model, cluster, gbs)
    for model, cluster in (
        ("13b", "rtx4090-64"),
        ("13b", "a100-32"),
        ("34b", "rtx4090-64"),
    )
    for gbs in (32, 64, 96, 128)
]


def _swept_tasks():
    """Every task the grid sweep of ``CELLS`` bounds, deduplicated: the
    real candidate enumeration and static pruning, with the sweep
    itself replaced by a recorder."""
    tasks = {}

    def record(batch, **kwargs):
        for task in batch:
            key = (task.method, task.spec, task.cluster, task.config)
            tasks[key + (task.global_batch_size,)] = task
        return None, [], []

    with mock.patch.object(search_module, "_grid_sweep", record):
        for model, cluster, gbs in CELLS:
            for method in METHODS:
                search_method(method, get_model(model), get_cluster(cluster), gbs)
    return list(tasks.values())


@pytest.fixture(scope="module")
def preludes():
    """``(task, prelude)`` of every swept candidate the prelude accepts
    (the others never reach the bounds)."""
    out = []
    for task in _swept_tasks():
        try:
            pre = _prelude(
                task.method,
                task.spec,
                task.cluster,
                task.config,
                task.global_batch_size,
            )
        except ValueError:
            continue
        out.append((task, pre))
    return out


def _uneven_preludes():
    """Uneven splits (``balanced_layer_count() % num_chunks != 0``), so
    the first, leading, trailing and last chunks fall in different
    layer classes.  The planner's grid never yields one (the config
    check rejects it), so these models are built directly."""
    cluster = get_cluster("rtx4090-64")
    out = []
    for model, pp, vp, spp in (
        ("7b", 8, 3, 2),
        ("13b", 16, 1, 2),
        ("13b", 4, 3, 4),
        ("13b", 8, 2, 2),
        ("34b", 16, 2, 1),
        ("34b", 32, 1, 4),
    ):
        spec = get_model(model)
        for method in ("vpp", "mepipe") if vp > 1 else ("dapple", "zb", "mepipe"):
            traits = method_traits(method)
            config = ParallelConfig(
                dp=64 // pp, pp=pp, vp=vp, spp=spp if traits.uses_spp else 1
            )
            problem = build_problem(
                method,
                pp,
                8,
                num_slices=config.spp,
                virtual_size=vp,
                wgrad_gemms=2 if traits.split_backward else 1,
            )
            cost = ClusterCost(
                spec=spec, config=config, cluster=cluster, problem=problem
            )
            overhead = cost.dp_sync_seconds() + cost.optimizer_seconds()
            out.append(
                SimpleNamespace(
                    problem=problem, cost=cost, overhead_time=overhead, auto_f=3
                )
            )
    return out


UNEVEN = _uneven_preludes()


def _bounds(pre, cost=None, time_bounds=iteration_time_bounds):
    """The tabular bounds of a prelude, under its own model or ``cost``."""
    cost = cost or pre.cost
    return (
        time_bounds(pre.problem, cost, overhead_time=pre.overhead_time),
        peak_units_floor(pre.problem, cost, forwards_floor=pre.auto_f),
    )


def _reference(pre):
    # A fresh model: the reference probes it op by op and never sees
    # the table the tabular bounds built.
    fresh = dataclasses.replace(pre.cost)
    return (
        reference.iteration_time_bounds(
            pre.problem, fresh, overhead_time=pre.overhead_time
        ),
        reference.peak_units_floor(pre.problem, fresh, forwards_floor=pre.auto_f),
    )


def test_the_swept_grid_is_covered(preludes):
    assert {task.method for task, _ in preludes} == set(METHODS)
    assert len(preludes) > 500
    assert all(
        pre.cost.spec.balanced_layer_count() % pre.problem.num_chunks != 0
        for pre in UNEVEN
    )


def test_cluster_bounds_equal_the_reference_on_every_candidate(preludes):
    mismatched = [
        (task.method, task.config.describe())
        for task, pre in preludes
        if _bounds(pre) != _reference(pre)
    ]
    assert not mismatched


def test_cluster_bounds_equal_the_reference_on_uneven_splits():
    for pre in UNEVEN:
        assert _bounds(pre) == _reference(pre)


@pytest.mark.parametrize(
    "method,kwargs",
    [
        ("dapple", {}),
        ("vpp", {"virtual_size": 2}),
        ("zb", {"wgrad_gemms": 1}),
        ("zbv", {"virtual_size": 2}),
        ("mepipe", {"num_slices": 4, "virtual_size": 2, "wgrad_gemms": 3}),
        ("svpp", {"num_slices": 2, "virtual_size": 3}),
    ],
)
def test_uniform_bounds_equal_the_reference(method, kwargs):
    problem = build_problem(method, 4, 8, **kwargs)
    s = problem.num_slices
    for cost in (
        UniformCost(problem, tw=0.5),
        UniformCost(
            problem, tw=0.7, imbalance=tuple(1.0 + 0.1 * i for i in range(s))
        ),
    ):
        fresh = dataclasses.replace(cost)
        for forwards in (None, 3):
            assert iteration_time_bounds(problem, cost, 0.25) == (
                reference.iteration_time_bounds(problem, fresh, 0.25)
            )
            assert peak_units_floor(problem, cost, forwards) == (
                reference.peak_units_floor(problem, fresh, forwards)
            )


def test_profiled_bounds_equal_the_reference():
    # A measured model is not micro-batch invariant: both derivations
    # decline, identically.
    problem = build_problem("mepipe", 2, 4, num_slices=2, wgrad_gemms=2)
    measurements = {
        (kind, sl, c): OpProfile(total_seconds=0.001 * (1 + sl + c), samples=1)
        for kind in OpKind
        for sl in range(2)
        for c in range(problem.num_chunks)
    }
    cost = ProfiledCost(problem, measurements, comm_seconds=1e-4)
    assert iteration_time_bounds(problem, cost) is None
    assert reference.iteration_time_bounds(problem, cost) is None
    assert peak_units_floor(problem, cost, 2) == 0.0
    assert reference.peak_units_floor(problem, cost, 2) == 0.0


# ----------------------------------------------------------------------
# Seeded mutations
# ----------------------------------------------------------------------
def test_mutation_table_reads_another_layer_class_is_caught(monkeypatch):
    """Every forward reads chunk 0's entry: wrong wherever the chunk's
    layer class differs from chunk 0's."""
    real = cost_module._probe_table

    def chunk_zero(problem, cost):
        table = real(problem, cost)
        chunks = problem.num_chunks
        dur = list(table.dur)
        for b in range(problem.num_slices * chunks):
            dur[b] = dur[b - b % chunks]
        return dataclasses.replace(table, dur=dur)

    monkeypatch.setattr(cost_module, "_probe_table", chunk_zero)
    # A fresh model builds its table under the mutation.
    caught = sum(
        _bounds(pre, cost=dataclasses.replace(pre.cost)) != _reference(pre)
        for pre in UNEVEN
    )
    assert caught == len(UNEVEN)


def _mutant_bounds(old: str, new: str):
    """``iteration_time_bounds`` with one source line rewritten."""
    source = textwrap.dedent(inspect.getsource(bounds_module.iteration_time_bounds))
    assert source.count(old) == 1, old
    namespace = dict(vars(bounds_module))
    exec(compile(source.replace(old, new), bounds_module.__file__, "exec"), namespace)
    return namespace["iteration_time_bounds"]


def test_mutation_reordered_busy_sum_is_caught():
    """A stage's chunks summed deepest first: the uneven chunks' work
    rounds differently, and the stage-busy floats move."""
    mutant = _mutant_bounds(
        "for c in problem.chunks_of_stage(k):",
        "for c in reversed(problem.chunks_of_stage(k)):",
    )
    caught = sum(_bounds(pre, time_bounds=mutant) != _reference(pre) for pre in UNEVEN)
    assert caught > 0
