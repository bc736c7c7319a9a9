"""Tests for the calibrated cluster cost model."""

import gc
import weakref

import pytest

from repro.hardware import A100_CLUSTER, RTX4090_CLUSTER
from repro.model import LLAMA_13B
from repro.parallel import ParallelConfig
from repro.schedules import OpId, OpKind, PipelineProblem
from repro.schedules.svpp import mepipe_problem, svpp_problem
from repro.sim.cost import ClusterCost


def make_cost(config=None, problem=None, cluster=RTX4090_CLUSTER, spec=LLAMA_13B):
    config = config or ParallelConfig(dp=8, pp=8, spp=4)
    problem = problem or svpp_problem(config.pp, 8, config.spp)
    return ClusterCost(spec=spec, config=config, cluster=cluster, problem=problem)


class TestComputeTimes:
    def test_later_slices_slower(self):
        """Attention-score imbalance: slice 3 outweighs slice 0."""
        cost = make_cost()
        t0 = cost.duration(OpId(OpKind.F, 0, 0, 3))
        t3 = cost.duration(OpId(OpKind.F, 0, 3, 3))
        assert t3 > t0

    def test_backward_roughly_double_forward(self):
        cost = make_cost()
        f = cost.duration(OpId(OpKind.F, 0, 1, 3))
        b = cost.duration(OpId(OpKind.B, 0, 1, 3))
        assert 1.6 < b / f < 2.6

    def test_split_backward_partition(self):
        """With a split backward, B + sum(W) ~= fused B."""
        config = ParallelConfig(dp=8, pp=8, spp=4)
        fused = make_cost(config)
        split_problem = mepipe_problem(8, 8, 4, wgrad_gemms=2)
        split = make_cost(config, split_problem)
        b_fused = fused.duration(OpId(OpKind.B, 0, 1, 3))
        b_split = split.duration(OpId(OpKind.B, 0, 1, 3))
        w_total = sum(
            split.duration(OpId(OpKind.W, 0, 1, 3, g)) for g in range(2))
        assert b_split + w_total == pytest.approx(b_fused, rel=1e-6)

    def test_head_chunk_heavier_than_embedding_chunk(self):
        cost = make_cost()
        first = cost.duration(OpId(OpKind.F, 0, 0, 0))
        last = cost.duration(OpId(OpKind.F, 0, 0, 7))
        assert last > first  # head GEMM outweighs the embedding lookup

    def test_recompute_inflates_backward_only(self):
        base_cfg = ParallelConfig(dp=4, pp=8, cp=2)
        rc_cfg = ParallelConfig(dp=4, pp=8, cp=2, recompute=True)
        problem = PipelineProblem(num_stages=8, num_microbatches=8)
        base = make_cost(base_cfg, problem)
        rc = make_cost(rc_cfg, problem)
        op_f = OpId(OpKind.F, 0, 0, 3)
        op_b = OpId(OpKind.B, 0, 0, 3)
        assert rc.duration(op_f) == pytest.approx(base.duration(op_f))
        assert rc.duration(op_b) > base.duration(op_b)


class TestCommTimes:
    def test_same_stage_edges_free(self):
        cost = make_cost()
        dep = OpId(OpKind.F, 0, 0, 3)
        op = OpId(OpKind.F, 0, 1, 3)
        assert cost.comm_time(dep, op) == 0.0

    def test_cross_stage_edges_cost(self):
        cost = make_cost()
        dep = OpId(OpKind.F, 0, 0, 3)
        op = OpId(OpKind.F, 0, 0, 4)
        assert cost.comm_time(dep, op) > 0.0

    def test_smaller_slices_smaller_messages(self):
        small = make_cost(ParallelConfig(dp=8, pp=8, spp=8),
                          svpp_problem(8, 8, 8))
        big = make_cost(ParallelConfig(dp=8, pp=8, spp=2),
                        svpp_problem(8, 8, 2))
        dep_s = OpId(OpKind.F, 0, 0, 3)
        op_s = OpId(OpKind.F, 0, 0, 4)
        assert small.comm_time(dep_s, op_s) < big.comm_time(dep_s, op_s)

    def test_nvlink_pp_cheaper_than_ib(self):
        problem = PipelineProblem(num_stages=4, num_microbatches=8)
        cfg = ParallelConfig(dp=8, pp=4)
        rtx = ClusterCost(spec=LLAMA_13B, config=cfg,
                          cluster=RTX4090_CLUSTER, problem=problem)
        a100 = ClusterCost(spec=LLAMA_13B, config=cfg,
                           cluster=A100_CLUSTER, problem=problem)
        dep = OpId(OpKind.F, 0, 0, 1)
        op = OpId(OpKind.F, 0, 0, 2)
        assert a100.comm_time(dep, op) < rtx.comm_time(dep, op)


class TestOverheads:
    def test_dp_sync_zero_without_replicas(self):
        cfg = ParallelConfig(dp=1, pp=8, spp=4, micro_batch_size=1)
        cost = make_cost(cfg, svpp_problem(8, 8, 4))
        assert cost.dp_sync_seconds() == 0.0

    def test_dp_sync_grows_with_stage_params(self):
        shallow = make_cost(ParallelConfig(dp=16, pp=4, spp=4),
                            svpp_problem(4, 8, 4))
        deep = make_cost(ParallelConfig(dp=8, pp=8, spp=4),
                         svpp_problem(8, 8, 4))
        assert shallow.dp_sync_seconds() > deep.dp_sync_seconds()

    def test_cp_overhead_exposed_on_pcie(self):
        cp = make_cost(ParallelConfig(dp=4, pp=8, cp=2),
                       PipelineProblem(num_stages=8, num_microbatches=8))
        plain = make_cost(ParallelConfig(dp=8, pp=8),
                          PipelineProblem(num_stages=8, num_microbatches=8))
        op = OpId(OpKind.F, 0, 0, 3)
        # Per-op time: CP halves the FLOPs but pays collectives and
        # kernel-shape penalties; it must not be a free 2x.
        assert cp.duration(op) > 0.6 * plain.duration(op)


class TestEfficiencyTokens:
    def test_cp_chunks_halve_kernel_tokens(self):
        cp = make_cost(ParallelConfig(dp=4, pp=8, cp=2),
                       PipelineProblem(num_stages=8, num_microbatches=8))
        assert cp.efficiency_tokens == cp.tokens_per_op // 2

    def test_spp_keeps_full_tokens(self):
        spp = make_cost()
        assert spp.efficiency_tokens == spp.tokens_per_op


class TestLifetime:
    def test_probed_models_are_freed_with_their_tables(self):
        """The per-op tables live on the instance, so a probed model
        dies with its last reference; as class-level ``lru_cache``
        tables they pinned every model a process ever built."""
        refs, seen = [], set()
        for pp in (2, 4, 8):
            for spp in (1, 2, 4):
                cost = make_cost(ParallelConfig(dp=64 // pp, pp=pp, spp=spp))
                last = cost.problem.num_chunks - 1
                f, b = OpId(OpKind.F, 0, 0, last), OpId(OpKind.B, 0, 0, last)
                seen.add((cost.duration(f), cost.duration(b), cost.comm_time(f, b)))
                seen.add(cost.comm_time(OpId(OpKind.F, 0, 0, 0), OpId(OpKind.F, 0, 0, 1)))
                refs.append(weakref.ref(cost))
        assert len(seen) > len(refs)  # distinct models, really probed
        del cost
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
