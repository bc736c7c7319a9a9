"""Enumeration of candidate parallel configurations for grid search.

Section 7.3: the paper finds the optimal strategy per method by grid
search over (PP, DP, CP or SPP, VP, recomputation); TP is excluded on
the 4090 cluster because PCIe cannot sustain its traffic.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.model.spec import ModelSpec
from repro.parallel.strategies import ParallelConfig, validate_for_cluster


def _powers_of_two_up_to(x: int) -> list[int]:
    out = [1]
    while out[-1] * 2 <= x:
        out.append(out[-1] * 2)
    return out


def enumerate_configs(
    spec: ModelSpec,
    num_devices: int,
    global_batch_size: int,
    use_cp: bool = False,
    use_spp: bool = False,
    use_vp: bool = False,
    use_recompute: bool = False,
    use_tp: bool = False,
    min_dp: int = 2,
    max_spp: int = 16,
    max_vp: int = 4,
) -> Iterator[ParallelConfig]:
    """Yield all valid configurations for one scheduling method.

    ``min_dp`` defaults to 2 per Section 7.1 ("We set the minimal data
    parallel size to 2 to simulate realistic training on large
    clusters").
    """
    seq = spec.seq_length
    for pp in _powers_of_two_up_to(num_devices):
        for tp in _powers_of_two_up_to(num_devices) if use_tp else [1]:
            cps = (
                [c for c in _powers_of_two_up_to(num_devices) if seq % c == 0]
                if use_cp
                else [1]
            )
            for cp in cps:
                rest = num_devices // (pp * tp * cp)
                if rest * pp * tp * cp != num_devices or rest < min_dp:
                    continue
                dp = rest
                if global_batch_size % dp != 0:
                    continue
                # A vp above slots // pp fails validate_for_cluster's
                # divisibility, so the clamp yields the same configs.
                vp_cap = min(max_vp, spec.balanced_layer_count() // pp)
                vps = range(1, vp_cap + 1) if (use_vp and pp > 1) else [1]
                for vp in vps:
                    spps = (
                        [s for s in _powers_of_two_up_to(max_spp) if seq % s == 0]
                        if use_spp
                        else [1]
                    )
                    for spp in spps:
                        for recompute in ([False, True] if use_recompute else [False]):
                            if spp > 1 and recompute:
                                continue
                            config = ParallelConfig(
                                dp=dp,
                                pp=pp,
                                cp=cp,
                                tp=tp,
                                vp=vp,
                                spp=spp,
                                recompute=recompute,
                            )
                            if validate_for_cluster(config, num_devices, spec):
                                continue
                            yield config
