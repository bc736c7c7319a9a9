"""The two memos under a candidate's build-free bounds.

* ``ClusterCost`` memoises an op's duration per (kind, slice, layer
  class of the chunk), over one FLOP evaluation per slice: chunks of
  one class share an entry, so every (kind, slice, chunk) duration
  must equal the same model's answer computed with no other chunk's
  entry around (a fresh instance per op).  A memo keyed on the layer
  count alone, dropping the first/last flags, conflates the first and
  the last chunk wherever they hold the same number of layers — the
  even splits below.
* ``interface_report`` memoises its findings per (spec, chunk count,
  stage placement): a failing partition still fails on a memo hit,
  under the asking candidate's own name, and the memo is one
  ``functools.lru_cache`` the benchmark's ``reset_memos`` empties.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.analysis.core as analysis_core
from repro.hardware import get_cluster
from repro.model import get_model
from repro.parallel.strategies import ParallelConfig
from repro.planner.evaluate import _prelude
from repro.schedules.base import OpId, OpKind
from repro.schedules.methods import build_problem
from repro.sim.cost import ClusterCost

CLUSTER = get_cluster("rtx4090-64")

#: (model, pp, vp, spp): uneven splits first (13B has 40 layer slots,
#: 34B 48), then even ones, whose first and last chunks hold the same
#: number of transformer layers.
UNEVEN = [("13b", 16, 1, 2), ("13b", 4, 3, 4), ("34b", 16, 2, 1), ("34b", 32, 1, 4)]
EVEN = [("13b", 8, 1, 2), ("34b", 8, 2, 2)]


def _cost(model, pp, vp, spp, recompute=False):
    spec = get_model(model)
    config = ParallelConfig(dp=64 // pp, pp=pp, vp=vp, spp=spp, recompute=recompute)
    problem = build_problem(
        "mepipe", pp, 8, num_slices=spp, virtual_size=vp, wgrad_gemms=2
    )
    return ClusterCost(spec=spec, config=config, cluster=CLUSTER, problem=problem)


def _ops(cost):
    problem = cost.problem
    for sl in range(problem.num_slices):
        for c in range(problem.num_chunks):
            yield OpId(OpKind.F, 0, sl, c)
            yield OpId(OpKind.B, 0, sl, c)
            for g in range(problem.wgrad_gemms):
                yield OpId(OpKind.W, 0, sl, c, g)


def _mismatches(cost):
    """Ops whose duration differs from a fresh instance's first probe."""
    return [
        op
        for op in _ops(cost)
        if cost.duration(op) != dataclasses.replace(cost).duration(op)
    ]


@pytest.mark.parametrize("shape", UNEVEN, ids=str)
@pytest.mark.parametrize("recompute", [False, True])
def test_class_memo_equals_the_unmemoised_duration(shape, recompute):
    cost = _cost(*shape, recompute=recompute)
    model, _pp, _vp, _spp = shape
    chunks = cost.problem.num_chunks
    assert get_model(model).balanced_layer_count() % chunks != 0
    classes = {cost._chunk_layers(c) for c in range(chunks)}
    # First, leading, trailing and last chunks: four classes.
    assert len(classes) == 4
    assert not _mismatches(cost)


def test_class_memo_holds_one_entry_per_class():
    cost = _cost(*UNEVEN[0])
    for op in _ops(cost):
        cost.duration(op)
    entries = [key[0] for key in cost._tables]
    classes = {cost._chunk_layers(c) for c in range(cost.problem.num_chunks)}
    s = cost.problem.num_slices
    assert entries.count("_op_seconds") == 3 * s * len(classes)
    # The FLOP math itself runs once per slice.
    assert entries.count("_slice_seconds") == s


def test_mutation_memo_keyed_on_layers_alone_is_caught(monkeypatch):
    real = ClusterCost._op_seconds

    def layers_keyed(self, op):
        layer_class = self._chunk_layers(op.chunk)
        key = ("layers only", op.kind, op.slice_idx, layer_class[0])
        if key not in self._tables:
            self._tables[key] = real(self, op.kind, op.slice_idx, layer_class)
        return self._tables[key]

    monkeypatch.setattr(ClusterCost, "duration", layers_keyed)
    caught = {shape: bool(_mismatches(_cost(*shape))) for shape in UNEVEN + EVEN}
    # The embedding adds no FLOPs and an uneven split gives the last
    # chunk a layer count no other chunk has, so only the even splits
    # expose the conflation — and every one of them does.
    assert all(caught[shape] for shape in EVEN)


# ----------------------------------------------------------------------
# The shape-gate memo
# ----------------------------------------------------------------------
@pytest.fixture()
def corrupt_partition(monkeypatch):
    """Every partition the gate checks has one decoder twice as wide."""
    real = analysis_core.partition_from_spec

    def corrupt(spec, num_chunks):
        partition = real(spec, num_chunks)
        first = partition.chunks[0]
        components = list(first.components)
        components[1] = dataclasses.replace(
            components[1], hidden=2 * components[1].hidden
        )
        chunk = dataclasses.replace(first, components=tuple(components))
        return dataclasses.replace(partition, chunks=(chunk,) + partition.chunks[1:])

    monkeypatch.setattr(analysis_core, "partition_from_spec", corrupt)
    analysis_core._interface_findings.cache_clear()
    yield
    analysis_core._interface_findings.cache_clear()


def test_failing_partition_raises_on_the_memo_hit_under_its_own_name(
    corrupt_partition,
):
    spec = get_model("13b")
    first = ParallelConfig(dp=8, pp=8)
    second = ParallelConfig(dp=4, cp=2, pp=8)  # same partition and placement
    info = analysis_core._interface_findings.cache_info
    with pytest.raises(ValueError) as miss:
        _prelude("dapple", spec, CLUSTER, first, 64)
    assert (info().hits, info().misses) == (0, 1)
    with pytest.raises(ValueError) as hit:
        _prelude("dapple", spec, CLUSTER, second, 64)
    assert (info().hits, info().misses) == (1, 1)
    assert f"verify dapple {first.describe()}: " in str(miss.value)
    assert f"verify dapple {second.describe()}: " in str(hit.value)
    assert first.describe() not in str(hit.value)
    # Same findings, each report its own.
    assert str(hit.value).split("\n", 2)[2] == str(miss.value).split("\n", 2)[2]


def test_reports_on_a_memo_hit_are_independent():
    spec = get_model("13b")
    problem = build_problem("vpp", 4, 8, virtual_size=2)
    a = analysis_core.interface_report(spec, problem, name="a")
    b = analysis_core.interface_report(spec, problem, name="b")
    assert (a.schedule_name, b.schedule_name) == ("a", "b")
    assert a.findings == b.findings and a.findings is not b.findings


def test_bench_reset_empties_the_shape_memo():
    import sys
    from pathlib import Path

    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        from ledger import reset_memos
    finally:
        sys.path.remove(bench)
    problem = build_problem("dapple", 8, 8)
    analysis_core.interface_report(get_model("13b"), problem)
    assert analysis_core._interface_findings.cache_info().currsize > 0
    reset_memos()
    assert analysis_core._interface_findings.cache_info().currsize == 0
