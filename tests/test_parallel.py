"""Tests for repro.parallel."""

import time

import pytest

from repro.model import LLAMA_13B
from repro.parallel import (
    COMM_RANKING,
    ParallelConfig,
    cp_layer_comm_bytes,
    dp_grad_sync_bytes,
    enumerate_configs,
    pp_boundary_bytes,
    tp_layer_comm_bytes,
    validate_for_cluster,
)


class TestParallelConfig:
    def test_devices(self):
        cfg = ParallelConfig(dp=2, pp=8, cp=4)
        assert cfg.num_devices == 64

    def test_micro_batches_only_divided_by_dp(self):
        """Table 7 discussion: CP increases n per DP group."""
        a = ParallelConfig(dp=8, pp=8, cp=1)
        b = ParallelConfig(dp=4, pp=8, cp=2)
        assert a.micro_batches(32) == 4
        assert b.micro_batches(32) == 8

    def test_micro_batches_indivisible_raises(self):
        with pytest.raises(ValueError):
            ParallelConfig(dp=3, pp=1).micro_batches(32)

    def test_tokens_per_worker_slice(self):
        cfg = ParallelConfig(dp=2, pp=8, cp=2, spp=2)
        assert cfg.tokens_per_worker_slice(LLAMA_13B) == 1024

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            ParallelConfig(dp=0)
        with pytest.raises(ValueError):
            ParallelConfig(pp=1, vp=2)

    def test_describe_mentions_active_dims(self):
        text = ParallelConfig(dp=2, pp=8, spp=4, recompute=True).describe()
        assert "SPP=4" in text and "recompute" in text and "CP" not in text

    def test_with_returns_modified_copy(self):
        cfg = ParallelConfig(dp=2, pp=8, cp=4)
        cfg2 = cfg.with_(spp=4)
        assert cfg2.spp == 4 and cfg.spp == 1


class TestValidation:
    def test_valid_config_no_problems(self):
        cfg = ParallelConfig(dp=4, pp=8, cp=2)
        assert validate_for_cluster(cfg, 64, LLAMA_13B) == []

    def test_wrong_device_count(self):
        cfg = ParallelConfig(dp=2, pp=8)
        assert any("cluster size" in p for p in validate_for_cluster(cfg, 64, LLAMA_13B))

    def test_uneven_chunking_flagged(self):
        # 40 slots cannot be split into 16 x 2 chunks.
        cfg = ParallelConfig(dp=4, pp=16, vp=2)
        assert any("chunks" in p for p in validate_for_cluster(cfg, 64, LLAMA_13B))

    def test_spp_plus_recompute_rejected(self):
        cfg = ParallelConfig(dp=8, pp=8, spp=4, recompute=True)
        assert any("recomputation" in p for p in validate_for_cluster(cfg, 64, LLAMA_13B))


class TestCommVolumes:
    def test_table2_ordering_tp_heaviest(self):
        """TP > CP > PP per layer at equal group size (Table 2)."""
        tp_cfg = ParallelConfig(dp=8, pp=4, tp=2)
        cp_cfg = ParallelConfig(dp=8, pp=4, cp=2)
        tp = tp_layer_comm_bytes(LLAMA_13B, tp_cfg)
        cp = cp_layer_comm_bytes(LLAMA_13B, cp_cfg)
        pp = pp_boundary_bytes(LLAMA_13B, cp_cfg)
        assert tp > cp > pp
        assert COMM_RANKING[0] == "TP"

    def test_no_cp_no_comm(self):
        cfg = ParallelConfig(dp=8, pp=8)
        assert cp_layer_comm_bytes(LLAMA_13B, cfg) == 0

    def test_spp_adds_no_comm_but_shrinks_pp_messages(self):
        base = ParallelConfig(dp=8, pp=8)
        spp = ParallelConfig(dp=8, pp=8, spp=4)
        assert cp_layer_comm_bytes(LLAMA_13B, spp) == 0
        assert pp_boundary_bytes(LLAMA_13B, spp) == pp_boundary_bytes(LLAMA_13B, base) // 4

    def test_dp_sync_scales_with_stage_params(self):
        small = dp_grad_sync_bytes(LLAMA_13B, ParallelConfig(dp=4, pp=16))
        large = dp_grad_sync_bytes(LLAMA_13B, ParallelConfig(dp=4, pp=8))
        assert large == 2 * small


class TestGrid:
    def test_enumeration_respects_device_count(self):
        configs = list(
            enumerate_configs(LLAMA_13B, 64, 64, use_cp=True, use_recompute=True)
        )
        assert configs
        assert all(c.num_devices == 64 for c in configs)
        assert all(c.dp >= 2 for c in configs)

    def test_spp_and_cp_flags(self):
        spp_configs = list(enumerate_configs(LLAMA_13B, 64, 128, use_spp=True))
        assert any(c.spp > 1 for c in spp_configs)
        assert all(c.cp == 1 for c in spp_configs)

    def test_unbounded_max_vp_yields_the_slot_bounded_grid(self):
        slots = LLAMA_13B.balanced_layer_count()
        start = time.perf_counter()
        unbounded = list(
            enumerate_configs(LLAMA_13B, 64, 128, use_vp=True, max_vp=10**9)
        )
        assert time.perf_counter() - start < 1.0
        assert unbounded == list(
            enumerate_configs(LLAMA_13B, 64, 128, use_vp=True, max_vp=slots)
        )

    def test_dapple_search_space_contains_paper_optimum(self):
        """Table 5: DAPPLE's optimum at GBS 128 is (PP=8, CP=2, VP=1)."""
        configs = list(
            enumerate_configs(LLAMA_13B, 64, 128, use_cp=True, use_recompute=True)
        )
        assert any(c.pp == 8 and c.cp == 2 and c.vp == 1 and not c.recompute
                   for c in configs)
