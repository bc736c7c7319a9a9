"""Tests for the queued-link network replay."""

import hashlib

import pytest

from repro.schedules import build_problem, build_schedule
from repro.schedules.base import OpId, OpKind, ScheduleError
from repro.sim import UniformCost, simulate
from repro.sim import network as network_module
from repro.sim.network import NetworkModel, simulate_with_network


def setup(method="mepipe", p=4, n=8, **kw):
    problem = build_problem(method, p, n, **kw)
    schedule = build_schedule(method, problem)
    cost = UniformCost(problem, tf=0.1, tb=0.2, tw=0.1)
    return problem, schedule, cost


class TestLink:
    """One link, two transfers: DAPPLE p=2 n=2 sends F0 then F1 over
    link 0 -> 1 (ready at t=1 and t=2; every float below is exact)."""

    @staticmethod
    def replay(bandwidth):
        problem = build_problem("dapple", 2, 2)
        schedule = build_schedule("dapple", problem)
        cost = UniformCost(problem, tf=1.0, tb=2.0)
        net = NetworkModel.uniform(
            2, bandwidth, edge_bytes=4_000_000, latency_s=0.0)
        return simulate_with_network(schedule, cost, net), net

    def test_back_to_back_transfers_serialize(self):
        replay, net = self.replay(1e6)  # 4 s on the wire per tensor
        forward = net.links[(0, 1)]
        # F0's tensor holds the link over [1, 5]; F1's, ready at 2,
        # waits 3 s for it and arrives at 9.
        assert forward.queue_delay == 3.0
        assert replay.records[OpId(OpKind.F, 0, 0, 1)].start == 5.0
        assert replay.records[OpId(OpKind.F, 1, 0, 1)].start == 9.0
        assert (forward.transfers, forward.bytes_carried) == (2, 8_000_000)
        # Stage 1's backwards end at 8 and 12, 4 s apart: no queueing.
        assert net.links[(1, 0)].queue_delay == 0.0
        assert replay.makespan == 18.0

    def test_idle_link_no_queueing(self):
        _replay, net = self.replay(1e12)
        assert [link.transfers for link in net.links.values()] == [2, 2]
        assert net.total_queue_delay == 0.0

    def test_missing_link_is_named(self):
        """VPP wraps stage p-1 -> stage 0; a linear (``ring=False``)
        model has no such link and must say so, not invent one with a
        default latency."""
        _problem, schedule, cost = setup(method="vpp", virtual_size=2)
        net = NetworkModel.uniform(4, 1e9, edge_bytes=1e6, ring=False)
        with pytest.raises(ScheduleError, match=r"no link stage 3 -> stage 0"):
            simulate_with_network(schedule, cost, net)
        with pytest.raises(ScheduleError, match=r"no link stage 0 -> stage 1"):
            NetworkModel(links={}, edge_bytes=1.0).link_for(0, 1)


class TestNetworkReplay:
    def test_infinite_bandwidth_matches_zero_comm_executor(self):
        problem, schedule, cost = setup(num_slices=2, wgrad_gemms=2)
        base = simulate(schedule, cost)
        net = NetworkModel.uniform(4, 1e15, edge_bytes=1e6, latency_s=0.0)
        replay = simulate_with_network(schedule, cost, net)
        assert replay.makespan == pytest.approx(base.makespan, rel=1e-6)
        assert replay.bubble_ratio == pytest.approx(base.bubble_ratio, abs=1e-6)

    def test_slow_links_stretch_makespan(self):
        problem, schedule, cost = setup(num_slices=2, wgrad_gemms=2)
        fast = simulate_with_network(
            schedule, cost, NetworkModel.uniform(4, 1e12, edge_bytes=10e6))
        slow = simulate_with_network(
            schedule, cost, NetworkModel.uniform(4, 1e8, edge_bytes=10e6))
        assert slow.makespan > fast.makespan

    def test_contention_emerges_from_bursts(self):
        """Slicing quadruples message count; on a slow link the queueing
        delay becomes visible."""
        _p, schedule, cost = setup(num_slices=4, wgrad_gemms=2, n=16, p=8)
        net = NetworkModel.uniform(8, 2e8, edge_bytes=10e6)
        simulate_with_network(schedule, cost, net)
        assert net.total_queue_delay > 0.0

    def test_transfer_accounting(self):
        problem, schedule, cost = setup(method="dapple", p=4, n=4)
        net = NetworkModel.uniform(4, 1e9, edge_bytes=1e6)
        simulate_with_network(schedule, cost, net)
        transfers = sum(link.transfers for link in net.links.values())
        # n micro-batches cross p-1 boundaries forward and backward.
        assert transfers == 4 * 3 * 2

    def test_memory_ledger_matches_executor(self):
        problem, schedule, cost = setup(method="svpp", num_slices=2)
        base = simulate(schedule, cost)
        replay = simulate_with_network(
            schedule, cost, NetworkModel.uniform(4, 1e12, edge_bytes=1e6))
        assert replay.peak_activation_units == pytest.approx(
            base.peak_activation_units)

    def test_all_ops_executed(self):
        problem, schedule, cost = setup(num_slices=2, wgrad_gemms=3)
        replay = simulate_with_network(
            schedule, cost, NetworkModel.uniform(4, 1e9, edge_bytes=1e6))
        assert len(replay.records) == len(problem.all_ops())


# ----------------------------------------------------------------------
# Golden: the chronological event loop this replay replaced
# ----------------------------------------------------------------------
# Captured from the FIFO-link event loop (heap of (time, stage) events,
# ``Link.transfer`` queueing) at the commit before it was rewritten as
# transfer nodes on the one replay kernel.  Per case: ``makespan.hex()``;
# SHA-256 over every op's ``start.hex() end.hex()`` in stage-major
# program order; SHA-256 over the bubble ratio and every stage's busy
# time, ledger peak and op count; per link ``src>dst:transfers:
# queue_delay.hex()`` (the delay summed in queue order, so it is
# bit-equal).  38 of the 70 grid cases queue.

GOLDEN_SHAPES = {
    "dapple": {},
    "vpp": {"virtual_size": 2},
    "hanayo": {"virtual_size": 2},
    "zb": {},
    "zbv": {},
    "svpp": {"num_slices": 2, "virtual_size": 2},
    "mepipe": {"num_slices": 4, "wgrad_gemms": 2},
}
GOLDEN_COSTS = {
    "c0": {"tf": 0.1, "tb": 0.2, "tw": 0.1},
    "c1": {"tf": 0.05, "tb": 0.07, "tw": 0.03},
}
#: (bandwidth B/s, edge bytes, latency s)
GOLDEN_LINKS = {
    "wide": (1e15, 1e6, 0.0),
    "nic": (1e9, 1e6, 10e-6),
    "slow": (2e8, 10e6, 10e-6),
    "choked": (2e7, 4e6, 0.0),
    "laggy": (1e9, 3e6, 0.05),
}


def uniform_case(name):
    method, cost_key, link_key = name.split("-")
    problem = build_problem(method, 4, 8, **GOLDEN_SHAPES[method])
    schedule = build_schedule(method, problem)
    cost = UniformCost(problem, **GOLDEN_COSTS[cost_key])
    bandwidth, edge_bytes, latency = GOLDEN_LINKS[link_key]
    network = NetworkModel.uniform(
        4, bandwidth, edge_bytes=edge_bytes, latency_s=latency)
    return schedule, cost, network


def cluster_case(name):
    """One of ``experiments/network.py``'s three configurations."""
    from repro.experiments import network as exp

    method = name.removeprefix("cluster-")
    return exp.queued_case(method, dict(exp.CONFIGS)[method])


def snapshot(name):
    case = cluster_case if name.startswith("cluster-") else uniform_case
    schedule, cost, network = case(name)
    result = simulate_with_network(schedule, cost, network)
    ops = hashlib.sha256()
    for stage in range(schedule.problem.num_stages):
        for op in schedule.stage_ops(stage):
            record = result.records[op]
            ops.update(f"{record.start.hex()} {record.end.hex()}\n".encode())
    stages = hashlib.sha256(result.bubble_ratio.hex().encode())
    for m in result.stages:
        stages.update(
            f" {m.busy_time.hex()} {m.peak_activation_units.hex()} {m.op_count}"
            .encode()
        )
    links = " ".join(
        f"{a}>{b}:{link.transfers}:{link.queue_delay.hex()}"
        for (a, b), link in sorted(network.links.items())
    )
    nbytes = int(network.edge_bytes)
    assert all(
        link.bytes_carried == link.transfers * nbytes
        for link in network.links.values()
    )
    return result.makespan.hex(), ops.hexdigest(), stages.hexdigest(), links


GOLDEN = {
    "dapple-c0-wide": (
        "0x1.a6666688c27e9p+1",
        "b389f850bd09a20a92d8bbbfd68c74e23cf23c40bfc0aa2b74b5007ac8d3671a",
        "c8655965ed4f8ffe456ded7117b2e94bef749a67de135fc1cc031e0e40dee51e",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "dapple-c0-nic": (
        "0x1.a877ee4e26d4ap+1",
        "629b358bde02a3575451621bf4e3610d2bce91e76f69025db1c8ffe2762e06a7",
        "f6da9b89b4d0623810ed83d74d3c4f6c68ab4b4216bf8b71135c89a05aa64f10",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "dapple-c0-slow": (
        "0x1.0669057d1782fp+2",
        "cd319e41f33f49fe435f7a55d7e40aeabf83d4abfb1b25b1aed641551e37a371",
        "b08b83e771fec376ad3faddd7a6ea0ee5fdf2edee408c8c1b3835cc18991ef67",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "dapple-c0-choked": (
        "0x1.a000000000003p+2",
        "b669562db41ba8c95ceffbbbaf42af47019201327200fecf8c900c502269d5ec",
        "46836e28d6d94bbe8b6f33f85bed0732dcd50e48579977769f22d0854d50f51a",
        "0>1:8:0x1.3333333333332p-1 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x1.0000000000000p-52 2>1:8:0x0.0p+0 2>3:8:0x1.0000000000000p-53 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "dapple-c0-laggy": (
        "0x1.0978d4fdf3b65p+2",
        "29e8c907ea8d6e14e4708d4ab9d2838e15c250e7f1642e2fad1980830a73cc49",
        "14412bf76df0502146945d8e90bee86da857fb461347914d363f32dd7632b149",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "dapple-c1-wide": (
        "0x1.51eb85637081cp+0",
        "553f6bc7382361d34a7b64a2510ceb2ca1fb61336d8368b78a864951aa2949e2",
        "42b375a4cc25dde7e1ea6f3d0d567d0227139bb30fbebc32af014f9fb796e98d",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "dapple-c1-nic": (
        "0x1.560e94ee392e3p+0",
        "4485ce4847939e596ee27389c4678bb70ee8bf9acedd5420bea75359c2f5d551",
        "0eedeee569642d5321ed41a4b77ab7f521fac5761494ff6f4fe715d7b6c1aaed",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "dapple-c1-slow": (
        "0x1.0f61672324c86p+1",
        "f9917deb3867cf6ae00d68b8bb637a1353b4f5652c21bb6c5fa70abf80ce523c",
        "91ea5b13b5414a3c48203c04c881f29b63b4b6d91dfd053bdfb2599efdcee9a4",
        "0>1:8:0x1.f75104d552000p-15 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "dapple-c1-choked": (
        "0x1.2147ae147ae15p+2",
        "5f16d3996a0d08a80757a7a5cca2df2eb123a6292922be6cee6ad6340640cd07",
        "64cae975f64db7d526650b36ce1cd10da05b462dd657836e16c6ff9902196d39",
        "0>1:8:0x1.cccccccccccccp-1 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "dapple-c1-laggy": (
        "0x1.15810624dd2f2p+1",
        "23d8ccad8e1817f67aea2523e6af2a41a3b68dc2e0b19543015754ba48acee18",
        "9c91b9b94689566cae4fee638750ee3e4b1c001d4c786394a7fe6b275e864563",
        "0>1:8:0x1.26e978d4fdf40p-6 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "vpp-c0-wide": (
        "0x1.6ccccceadd61fp+1",
        "c58fc4f5b05ff02ba9fc176d798bdfcfaac1c4052a5ea756261a6a497867cfc5",
        "d68ee63e7bf144cd48e2d8543d847fe4d14286f03342412c7508033d8ffe2934",
        "0>1:16:0x0.0p+0 0>3:8:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:8:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "vpp-c0-nic": (
        "0x1.6e9c23b7952d5p+1",
        "7e13023fbada997cebf89c1a82a89f9c4eefcfcc343e9b35ec835855ebc5b474",
        "5ab4ccc9d4f8b0e519c231f48028453329a0bffd1c28744b16198ece6370d767",
        "0>1:16:0x0.0p+0 0>3:8:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:8:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "vpp-c0-slow": (
        "0x1.c66c4c5974e68p+1",
        "42b6a56f45c9d0f7bbcedd25a4e5b17b9dace9de4e1b020ca4f71d71dcaba6fa",
        "707ea346e335de027461a74bf08c844737b2c4783fa68d091fa5c5151ea388c1",
        "0>1:16:0x1.f75104d54d000p-14 0>3:8:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:8:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "vpp-c0-choked": (
        "0x1.c000000000000p+2",
        "e9822ee458b8552d0b5ffd4c881327456d6b551a417913a944494057d74c6c88",
        "0cf6de888ca2662d17c7e2f7be5b5302e9e2db189491d6a021d729c6debbb0d2",
        "0>1:16:0x1.ccccccccccccdp+0 0>3:8:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x1.0000000000000p-50 2>3:16:0x1.0000000000000p-50 3>0:8:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "vpp-c0-laggy": (
        "0x1.cd4fdf3b645a3p+1",
        "5b2325aa294cfba6e5898a840af107addbdb213e43e3a4c8e576ea3cb7881d4e",
        "315efc0e608d255f1fbece42dc289e5505ec1b09bdc875394ee977bf50d7d98e",
        "0>1:16:0x1.26e978d4fdf40p-5 0>3:8:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:8:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "vpp-c1-wide": (
        "0x1.23d70a7991cdap+0",
        "78406548477394de77d6c1f4dd28d62e1f4f9ca5b7354e3ad2e6f59d253e90f7",
        "31bfe906a669bd305d28a5b90e887f4b245419b59e056f62ad16e0a028f47dea",
        "0>1:16:0x0.0p+0 0>3:8:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:8:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "vpp-c1-nic": (
        "0x1.2775b81301648p+0",
        "3c4849e074081bf3b6626370fb722fb5bd08e22f1e4db26e1f56f0d0a263afae",
        "f64bb1fd99b2f6e3e7f3438e4e8677b55a82a13224ddf3d3507607d3ac34dbe1",
        "0>1:16:0x0.0p+0 0>3:8:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:8:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "vpp-c1-slow": (
        "0x1.07b5f1bef49d1p+1",
        "a0738dab1d0df262fac03e0f0443da36cf241857a74c45fa09539d7030b26d86",
        "2025c1fe9132c34d9b10f7fe89c87c09b7101036284f1301a7ce259ecf238911",
        "0>1:16:0x1.3352a84380883p-2 0>3:8:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:8:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "vpp-c1-choked": (
        "0x1.6a3d70a3d70a8p+2",
        "5557e9229dedbe6f9e792008f3c1673a293ab13927dc86395747537661db0b6b",
        "f9f5bf1975c9272a452c6139c3632fecbe82d3c285cbb5105a64b9027bddd1f8",
        "0>1:16:0x1.0cccccccccccep+1 0>3:8:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x1.0000000000000p-52 2>1:16:0x0.0p+0 2>3:16:0x1.8000000000000p-52 3>0:8:0x1.0000000000000p-51 3>2:16:0x1.47ae147ae14c0p-4",
    ),
    "vpp-c1-laggy": (
        "0x1.10e5604189373p+1",
        "7f2de54684678d0447d80dcc89b51ad2f39e897c0a1ea8bdd39d30cec3904cfc",
        "c5a10ba65eec1a0720bef02190fc442138542a90bb9d7141eec7845ee32f3b4e",
        "0>1:16:0x1.5810624dd2f1dp-2 0>3:8:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x1.c000000000000p-52 2>1:16:0x0.0p+0 2>3:16:0x1.0000000000000p-55 3>0:8:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "hanayo-c0-wide": (
        "0x1.80000026a79b1p+1",
        "ff788e5dcdf07796dad361830ea338008134986657d78743788d675ae0b2b0dd",
        "3aa17cce8552a30e01a151b939456ea22bd5e384b252bb2abb03078a2b8f1ff4",
        "0>1:16:0x0.0p+0 0>3:0:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:0:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "hanayo-c0-nic": (
        "0x1.8253b8e4b87c0p+1",
        "03c443fecf0649d553f9721623c8a396568034bb359207b8eba374962c35e1e8",
        "b20f39a1068077d4f45dc5dd7283981857398c2ad2f0d00400c4cab1c90e2b04",
        "0>1:16:0x0.0p+0 0>3:0:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:0:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "hanayo-c0-slow": (
        "0x1.f9a122fad6cb8p+1",
        "283341e6ada08ec8221b7540d7d769253a9dd3e65718e4cb3c58392bf04e1c62",
        "9a29285d098eb70b764d44cc81f94afd8d3ff024f52dc453cd1a26d5c9cf0624",
        "0>1:16:0x1.cd5f99c38d000p-13 0>3:0:0x0.0p+0 1>0:16:0x1.4f8b588e40000p-16 1>2:16:0x1.4f8b588e40000p-17 2>1:16:0x1.4f8b588e40000p-16 2>3:16:0x1.4f8b588e40000p-17 3>0:0:0x0.0p+0 3>2:16:0x1.4f8b588e40000p-15",
    ),
    "hanayo-c0-choked": (
        "0x1.e666666666664p+2",
        "3fdcbb8984c30aff28b93a3e992db541bbfbf1e68922e77022e49b609f498e2b",
        "1017c8fb6a386da224ddf53e0b0ccd5dc3c95526b6fcb428092aba8d9ac43633",
        "0>1:16:0x1.a666666666667p+1 0>3:0:0x0.0p+0 1>0:16:0x1.3333333333340p-2 1>2:16:0x1.3333333333340p-3 2>1:16:0x1.0000000000008p-1 2>3:16:0x1.3333333333340p-3 3>0:0:0x0.0p+0 3>2:16:0x1.99999999999a8p-1",
    ),
    "hanayo-c0-laggy": (
        "0x1.01374bc6a7efbp+2",
        "432d554c3588ebce72a7b34d9745685fd8e86cecf3efb2efbaa87b0aab09828e",
        "21434237301564115a785a1688d40e5cfef4dcc6fe7aa8a7fdb18cafe44b10b5",
        "0>1:16:0x1.0e56041893748p-4 0>3:0:0x0.0p+0 1>0:16:0x1.89374bc6a8000p-8 1>2:16:0x1.89374bc6a7e00p-9 2>1:16:0x1.89374bc6a8000p-8 2>3:16:0x1.89374bc6a7e00p-9 3>0:0:0x0.0p+0 3>2:16:0x1.89374bc6a7f00p-7",
    ),
    "hanayo-c1-wide": (
        "0x1.2b851f05a1213p+0",
        "fdf8d002d4d0c0d6e162f6f7e850ba5fdd0fe9f6c29c9dfde1d36332ea7ff4fb",
        "efb50da5f5039083bd8a50134e6f0405c624e539081aa2e08bcadf8c657df0da",
        "0>1:16:0x0.0p+0 0>3:0:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:0:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "hanayo-c1-nic": (
        "0x1.302c9081c2e33p+0",
        "964faf930741e99d9daa0c7fe3d7ff4dfc69d3d26032a953f4e1c8b258a0e041",
        "04c1435375445cdb281b357fbfea5eb0ae2554e16db318d5b3a8b1332619de85",
        "0>1:16:0x0.0p+0 0>3:0:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:0:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "hanayo-c1-slow": (
        "0x1.20083126e978ep+1",
        "36ee3dcf1c547b60bfe03a7e3d398c5a646de04bb57a8409fdb0614cd7bf42ac",
        "a1b558235d031a901f832b397fcc0f007129991b108401d1753cc86b4b14dfb9",
        "0>1:16:0x1.19b66f9335d26p-1 0>3:0:0x0.0p+0 1>0:16:0x1.99c38b04ab640p-5 1>2:16:0x1.99c38b04ab600p-6 2>1:16:0x1.47d805e5f3100p-4 2>3:16:0x1.99c38b04ab600p-6 3>0:0:0x0.0p+0 3>2:16:0x1.99c38b04ab628p-4",
    ),
    "hanayo-c1-choked": (
        "0x1.8a8f5c28f5c2ep+2",
        "03e149cdc78b99fa90ca62670d43d330630def78444ce336f2d0a46d9b1a2619",
        "ebf013a92b68113182f08d227dcc7d19a5247f4c47c85124a9f9b526a01e1479",
        "0>1:16:0x1.ecccccccccccdp+1 0>3:0:0x0.0p+0 1>0:16:0x1.35c28f5c28f64p-1 1>2:16:0x1.6666666666688p-3 2>1:16:0x1.59999999999a0p-1 2>3:16:0x1.2e147ae147b0ap-2 3>0:0:0x0.0p+0 3>2:16:0x1.ae147ae147ae4p-1",
    ),
    "hanayo-c1-laggy": (
        "0x1.2999999999998p+1",
        "5100dfebc9a9b8baba609103cd2fb9d76edea6f6cb20514ce8eac79a47bf3190",
        "2184d42f767ff8a38bd4922a66ca1d60e75351323bb73308145d9ae6af06b86a",
        "0>1:16:0x1.3b645a1cac082p-1 0>3:0:0x0.0p+0 1>0:16:0x1.cac083126e980p-5 1>2:16:0x1.cac083126e990p-6 2>1:16:0x1.78d4fdf3b6460p-4 2>3:16:0x1.cac083126e988p-6 3>0:0:0x0.0p+0 3>2:16:0x1.cac083126e980p-4",
    ),
    "zb-c0-wide": (
        "0x1.000000067144ap+2",
        "c48c77b2f408ad2b6c1aba85d6fa8461684850e72c1264aee29dc9c0ecbcc31f",
        "db669f3c312475b5fbc410310c3fcc820868114a5b2ccb1bc78f7fc2058dcdf1",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "zb-c0-nic": (
        "0x1.0063497b7414cp+2",
        "ab9e0d3157854297d0984a471a20863c727916016103bc731995d2c943c6c1ee",
        "89be896caca54c320ea1aca7031dad75e9e5b64a5cfcf3b662f17c5945beef1d",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "zb-c0-slow": (
        "0x1.199c38b04ab62p+2",
        "dc733a5441191d613109845a0afde8b02cf9ea900ca3c205713e69f826173b6c",
        "e2d213956b7bf488013bf0661a9835771149bb785e5c1b3eab3a9e3cb2aad6be",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "zb-c0-choked": (
        "0x1.b333333333335p+2",
        "99b4c2ac6281473ca3f5ce2b0a571f122ead54c0627dbdd276c1a86a553797c4",
        "beb485ca759556178d9b381617ca90b485e79eaa676ae531634724f8e977171e",
        "0>1:8:0x1.3333333333332p-1 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x1.0000000000000p-52 2>1:8:0x0.0p+0 2>3:8:0x1.0000000000000p-53 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "zb-c0-laggy": (
        "0x1.1cac083126e98p+2",
        "b3a3e834ab51a1f381fdb781b20f26b39f527c063c27f607a91305d160cd49e4",
        "f27edd518ad932e58fc777f9fb9c5a655a20ef99688772d627f2fb8333f11674",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "zb-c1-wide": (
        "0x1.828f5c42bad4cp+0",
        "00c41a4ef8f9ca87e44577ce4f6411ac77ca0df2ed90d5f3a75fa2150f15e83d",
        "32e8e5cd359dc45ab45f4b827ae8d859685bdb4034d228070bb1a3230dc74904",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "zb-c1-nic": (
        "0x1.841c8216c6156p+0",
        "13890e3f2ab346c58b7ac057a07c91780009f55dfdbe7b6562dfa2b613d53fa6",
        "8af371586e3acc499a611a06a1c317ac75f06108c632fa17763b72271390f331",
        "0>1:8:0x0.0p+0 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "zb-c1-slow": (
        "0x1.1ae685db76b3ep+1",
        "0651b37088099db22872fd55b0652a04523418af23b407f56955b2d1c650abdd",
        "bc36e64f5109747570075a3a8a864a06b0e4817c0f3bf91f7b916ffcd9685535",
        "0>1:8:0x1.f75104d552000p-15 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "zb-c1-choked": (
        "0x1.270a3d70a3d72p+2",
        "4127c032d6fc6a92180676a5d15e0f0e4b452b61817635b97191bed0cec8b1c8",
        "f081da89dea3f05af2ec98193ae3b500b0c1972dede1fe3d0c153a62c3f927d0",
        "0>1:8:0x1.cccccccccccccp-1 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x1.0000000000000p-51 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "zb-c1-laggy": (
        "0x1.210624dd2f1aap+1",
        "86c2f666aed881819f173e5615827edb493625baa3e2f44401b6d58ff5875e91",
        "3a449e370afb13342b8b5419555661f90ad4afc6d7b9fe084089e3d4fc1878b0",
        "0>1:8:0x1.26e978d4fdf40p-6 0>3:0:0x0.0p+0 1>0:8:0x0.0p+0 1>2:8:0x0.0p+0 2>1:8:0x0.0p+0 2>3:8:0x0.0p+0 3>0:0:0x0.0p+0 3>2:8:0x0.0p+0",
    ),
    "zbv-c0-wide": (
        "0x1.e0000019c511ep+1",
        "0b8b1b8bf3fb679d1efc19f3537c757e6df37979d275706e0b7253745ceae87f",
        "b0620c63b4de82a561763a0cfe981900573a792499d27f82eaa7cce1fb19c94d",
        "0>1:16:0x0.0p+0 0>3:0:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:0:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "zbv-c0-nic": (
        "0x1.e18d25edd0528p+1",
        "c6d96a0e9fac4c900f93a3874e812408009df952c4163d4b0555791a4653c999",
        "fa709278e72eed6abf1f5637ae1d47e906216d6c118864e1ce96ae291e023750",
        "0>1:16:0x0.0p+0 0>3:0:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:0:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "zbv-c0-slow": (
        "0x1.1669ad42c3c9fp+2",
        "c856c547730ebdb03331a9203419bdda0d99937ec7770d38dbb0c442b6242157",
        "fb7bd119c143a2d684969a1f063be8fb65d7f3811c6e2a93b8432b95cfbfa3c3",
        "0>1:16:0x1.b866e43aa9000p-13 0>3:0:0x0.0p+0 1>0:16:0x1.4f8b588e40000p-17 1>2:16:0x0.0p+0 2>1:16:0x1.4f8b588e40000p-16 2>3:16:0x0.0p+0 3>0:0:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "zbv-c0-choked": (
        "0x1.f333333333330p+2",
        "e686c7adbb4999301325b1cb13835b1ac657dfd018313f9305db2ffb9501efaa",
        "90d9a9167413323a7428a29095814713e75bea07f2de8884a3b0589f4b9295e5",
        "0>1:16:0x1.a000000000001p+1 0>3:0:0x0.0p+0 1>0:16:0x1.3333333333340p-2 1>2:16:0x1.99999999999c0p-4 2>1:16:0x1.0000000000008p-1 2>3:16:0x1.3333333333340p-3 3>0:0:0x0.0p+0 3>2:16:0x1.99999999999e0p-2",
    ),
    "zbv-c0-laggy": (
        "0x1.1a3d70a3d70a3p+2",
        "74cfccadc4038d7abe21dfd3c89ede623871fc4c6d47ea2020fa56e3ba71f7a5",
        "4c821c627420e0133179c92d5c2659d8fd1b7618d4bd1f76b4026ddea0046b63",
        "0>1:16:0x1.020c49ba5e358p-4 0>3:0:0x0.0p+0 1>0:16:0x1.89374bc6a8000p-9 1>2:16:0x0.0p+0 2>1:16:0x1.89374bc6a8000p-8 2>3:16:0x0.0p+0 3>0:0:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "zbv-c1-wide": (
        "0x1.651eb88575a8cp+0",
        "f340bf33843a4a1c7df15951b86bf70d2956a9006db0b846211d374adc58ad4e",
        "64f9849b9e0c7e789f787a79e8c8ee03402dee0b29165e4612cfa9873c6cc347",
        "0>1:16:0x0.0p+0 0>3:0:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:0:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "zbv-c1-nic": (
        "0x1.6839042d8c2a1p+0",
        "b5814ecb181888b4f3ba1c8233a1cbabb4746684a8add56e29868eab90131204",
        "e833e4a0d92bd6189c58dca40a9bf6a0dabf1665cfecb4f0cdd6eb2ab7f2985c",
        "0>1:16:0x0.0p+0 0>3:0:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>0:0:0x0.0p+0 3>2:16:0x0.0p+0",
    ),
    "zbv-c1-slow": (
        "0x1.27b645a1cac09p+1",
        "fa72968707f1a4f9d98b03be5ac617aff1f3e6657d8f0926942c6daa2ed52bf1",
        "011816f1bafe219065d3b25dcffefaf07613992763a2cf884e704e83f12a55d6",
        "0>1:16:0x1.12085b18548abp-1 0>3:0:0x0.0p+0 1>0:16:0x1.99c38b04ab640p-5 1>2:16:0x1.4801f75104d40p-7 2>1:16:0x1.47d805e5f3110p-4 2>3:16:0x1.99c38b04ab5e0p-6 3>0:0:0x0.0p+0 3>2:16:0x1.4801f75104dd0p-5",
    ),
    "zbv-c1-choked": (
        "0x1.8c7ae147ae14cp+2",
        "1f0bd87584570ecd8c1c7caae5c58c17704c6cc64e2773130f268297ed6cbb24",
        "52c19ae588cb7519cb36d897431f44a4e3625915f12de240ef2cf763acb2bf9f",
        "0>1:16:0x1.eae147ae147aep+1 0>3:0:0x0.0p+0 1>0:16:0x1.1eb851eb851f4p-1 1>2:16:0x1.47ae147ae1498p-3 2>1:16:0x1.51eb851eb8520p-1 2>3:16:0x1.0f5c28f5c291ap-2 3>0:0:0x0.0p+0 3>2:16:0x1.8f5c28f5c28f4p-1",
    ),
    "zbv-c1-laggy": (
        "0x1.3147ae147ae13p+1",
        "ccd472935fb78fa89549d21f2ac35609d81bef4cc8882c3c7cff2d01a9c2e019",
        "cdab3892dfb0909ceb07a1eaf743c5b76b72c7bf611cb882ceb77b1fd8f4ea9e",
        "0>1:16:0x1.33b645a1cac07p-1 0>3:0:0x0.0p+0 1>0:16:0x1.cac083126e980p-5 1>2:16:0x1.a9fbe76c8b460p-7 2>1:16:0x1.78d4fdf3b6460p-4 2>3:16:0x1.cac083126e928p-6 3>0:0:0x0.0p+0 3>2:16:0x1.a9fbe76c8b470p-5",
    ),
    "svpp-c0-wide": (
        "0x1.5000006fab4d7p+1",
        "451fd68b098f2135567497fbe1dbabc4160db775454acb1bc90ef8a299aea0eb",
        "ced305db80339e2e690a29ca539d5e52c64df11dc2863b8e5163596f3b65fdd6",
        "0>1:32:0x0.0p+0 0>3:16:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>0:16:0x0.0p+0 3>2:32:0x0.0p+0",
    ),
    "svpp-c0-nic": (
        "0x1.56b8f9b131654p+1",
        "7ee54dcdded8872a77325729d2d1b95cb2b4e3546c1ceecfe4b8dbb43d38a2f2",
        "7e71981f83c5aaab38257bddc607ca16d32fb534a786bc1ee6947fbb1d9354a3",
        "0>1:32:0x0.0p+0 0>3:16:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>0:16:0x0.0p+0 3>2:32:0x0.0p+0",
    ),
    "svpp-c0-slow": (
        "0x1.533c60029f16cp+2",
        "cc4122029feb6366e47a5c433005cc720416b72256199ddddd9574ebd3752daa",
        "eaee2e28ef40691d3b94d87344062c8af6880a9276a57d467b3886b9ac2c71f6",
        "0>1:32:0x1.668b19a415f46p-3 0>3:16:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>0:16:0x0.0p+0 3>2:32:0x1.f75104d5c0000p-15",
    ),
    "svpp-c0-choked": (
        "0x1.bc00000000003p+3",
        "5efec61089c5d8a295380a1ca26febb281b059479459ca241b4f5fc5a66d93eb",
        "aa9d0b8ef7b4d5724b2b5a35217726d7f36d7c053243503781637e463a7aeb87",
        "0>1:32:0x1.59999999999a0p+0 0>3:16:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x1.0000000000000p-52 2>1:32:0x1.0000000000000p-2 2>3:32:0x1.8000000000000p-52 3>0:16:0x1.0000000000000p-51 3>2:32:0x1.ccccccccccc84p-1",
    ),
    "svpp-c0-laggy": (
        "0x1.5df3b645a1ca7p+2",
        "f5d7e28f617be782253944b40b480df495d81ea51037e72fc090e666342666de",
        "18fbe3010839191925fe9c385a075f499830880ed8de329959fcf26da82eed52",
        "0>1:32:0x1.916872b020c4ap-3 0>3:16:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x1.c000000000000p-52 2>1:32:0x0.0p+0 2>3:32:0x1.0000000000000p-55 3>0:16:0x0.0p+0 3>2:32:0x1.26e978d4fe000p-6",
    ),
    "svpp-c1-wide": (
        "0x1.0eb852c244b35p+0",
        "1e64032b4b8af301fbb172c69d28fa005e7998a5d633cc638df6ae63ac841dbe",
        "7fbbf907739bfe1ca4bc7b163d27baebea5f52b02a544e4bb9152a68b80ca463",
        "0>1:32:0x0.0p+0 0>3:16:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>0:16:0x0.0p+0 3>2:32:0x0.0p+0",
    ),
    "svpp-c1-nic": (
        "0x1.1ba5e353f7ce6p+0",
        "6f01cd1c08197a7906af21d341781753c2ad79c34563ddfaa92f45e5a4753b75",
        "cf6e3910f5e1e80158a2859d23688ec8f5743253a51fe21d4d119a42528d5577",
        "0>1:32:0x0.0p+0 0>3:16:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>0:16:0x0.0p+0 3>2:32:0x0.0p+0",
    ),
    "svpp-c1-slow": (
        "0x1.ea50c5eb313c3p+1",
        "4ec822db52c7119bb2bfa5edac12aeafefb68251c058b1f0bb6fd78d36c1c771",
        "c1861c8baf46a42b43e14d07032c1d9ffff7c5634b38ebc757bfc4f8e38a3337",
        "0>1:32:0x1.172474538ef31p-2 0>3:16:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x1.47d805e5f30e0p-5 2>3:32:0x1.0000000000000p-52 3>0:16:0x0.0p+0 3>2:32:0x1.8f7b9e060fe20p-3",
    ),
    "svpp-c1-choked": (
        "0x1.95c28f5c28f55p+3",
        "0c0ed74357e0c2468f94f9d83d17817fd2c38ce9879d68d06763cb3ba21e4088",
        "7e3688ff80c135b37c48a76efa1759b7108fbab3bf7311b9ee7e4faaeb4e2870",
        "0>1:32:0x1.c5c28f5c28f58p+0 0>3:16:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x1.5c28f5c28f5c8p-2 2>3:32:0x1.4000000000000p-51 3>0:16:0x0.0p+0 3>2:32:0x1.1851eb851eb70p+0",
    ),
    "svpp-c1-laggy": (
        "0x1.0072b020c49bcp+2",
        "16a7b96297288c26c78ba17c7282847981138c22a98ed0414bb8860038379006",
        "a45004e7c6955742830a5bc6b9005b4f19135999c673cc72d29d5d88129d8e95",
        "0>1:32:0x1.35c28f5c28f52p-2 0>3:16:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x1.78d4fdf3b6460p-5 2>3:32:0x1.0000000000000p-52 3>0:16:0x0.0p+0 3>2:32:0x1.b4395810624c0p-3",
    ),
    "mepipe-c0-wide": (
        "0x1.b666667348ef7p+1",
        "72f3f8462ef62aec5a4400b1999c470f01dd094ad52723aec1f8b4d7cf4afb58",
        "146e6926c85174d9a6471d0465b25920e8ddc9ceca810e9d31b8acaa0bf5d4a0",
        "0>1:32:0x0.0p+0 0>3:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>0:0:0x0.0p+0 3>2:32:0x0.0p+0",
    ),
    "mepipe-c0-nic": (
        "0x1.b72cf95d4e8fcp+1",
        "fd9f9eebf07b49c8fd74a2b4b9643f32138d7a38f7e4fa6f3d999ad4fa3e6435",
        "08d2d7bce229e97762b70d165cc308a287a7391c6416a1786351a15cc992a651",
        "0>1:32:0x0.0p+0 0>3:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>0:0:0x0.0p+0 3>2:32:0x0.0p+0",
    ),
    "mepipe-c0-slow": (
        "0x1.59a1f4b1ee247p+2",
        "14446ae7042d868e063f4fb2416c976c8e465b15c9c859fa49526407fd70e610",
        "2fb9e7bb782028dc3bc536ee217d2d2f6d2e49533352a78e40ff4fd4ccbcc2a0",
        "0>1:32:0x1.0ce8533b10776p-1 0>3:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>0:0:0x0.0p+0 3>2:32:0x0.0p+0",
    ),
    "mepipe-c0-choked": (
        "0x1.b199999999997p+3",
        "20023ceb3d0e438ee02a9fde0aabc10b5d82016923814dc4f54c5b02af08aa0d",
        "ab82af3d885cd4c651e38f08e00c1c7bd76859987caba5a1970f200cc7a77d28",
        "0>1:32:0x1.d666666666666p+1 0>3:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x1.0000000000000p-50 2>1:32:0x1.ffffffffffff8p-3 2>3:32:0x1.2000000000000p-50 3>0:0:0x0.0p+0 3>2:32:0x1.8000000000000p-1",
    ),
    "mepipe-c0-laggy": (
        "0x1.63645a1cac082p+2",
        "2d388d3af76fd5c2c1787add9062ad9ba197fe787fc1e7a30840ebd6fdee7a35",
        "792a1581315f013ec6d6f476589cce7affbf65267b640b0b3ef91c5089cff802",
        "0>1:32:0x1.2d0e560418936p-1 0>3:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x1.0000000000000p-54 2>1:32:0x0.0p+0 2>3:32:0x1.0000000000000p-55 3>0:0:0x0.0p+0 3>2:32:0x0.0p+0",
    ),
    "mepipe-c1-wide": (
        "0x1.4a3d70bd9c1bep+0",
        "4c8b1e879b5875f674d4997c59ab94c62c0e4f9a13cf06ade2c67691619a5af5",
        "e4373e2b8070d1ebff3c5c8d1e45a2a4a1acfbc2bcf0f83592f897d3eb7b5b6f",
        "0>1:32:0x0.0p+0 0>3:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>0:0:0x0.0p+0 3>2:32:0x0.0p+0",
    ),
    "mepipe-c1-nic": (
        "0x1.4bca9691a75c7p+0",
        "7b92099f008e5ee24fb465013e9303cf99b8aecd54d11f327bbc43ea8a41dfb6",
        "f404443428c119868230363c71cf3aa8a3cf3fc33e7a7b0fa0678198db6e33c8",
        "0>1:32:0x0.0p+0 0>3:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>0:0:0x0.0p+0 3>2:32:0x0.0p+0",
    ),
    "mepipe-c1-slow": (
        "0x1.dfc01a36e2eb9p+1",
        "b5ffb7c30b9c2247de60f9898f49079bc5284bc3b0b73af971f47b83a59ec7da",
        "aadd2971ec0932f634cbe57a57dd89683f12fcfbf97c030d5522b651341aa1e0",
        "0>1:32:0x1.934eb9a176ddcp-1 0>3:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x1.47d805e5f30e0p-5 2>3:32:0x0.0p+0 3>0:0:0x0.0p+0 3>2:32:0x1.3352a84380824p-3",
    ),
    "mepipe-c1-choked": (
        "0x1.7feb851eb851bp+3",
        "f31f42ec8b3627b1e53b8e70410a80c6d7a5646d35b9eef08cc1650162599a6e",
        "db77a60975b381e242bb34b680eeb5718f0fbce76315554196a3f6d6d7392fa8",
        "0>1:32:0x1.f800000000000p+1 0>3:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x1.5c28f5c28f5b8p-2 2>3:32:0x1.b000000000000p-49 3>0:0:0x0.0p+0 3>2:32:0x1.0ccccccccccb0p+0",
    ),
    "mepipe-c1-laggy": (
        "0x1.f4cccccccccd3p+1",
        "9b8ca4f4664dc86a3d29109e6b2fe97a58d2aadfc1ef83275c152cced4423c0d",
        "8010eb1366394eca48618b4742613e017207ade12da1bbf942d5c832392f9a11",
        "0>1:32:0x1.b374bc6a7ef9ep-1 0>3:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x1.78d4fdf3b6460p-5 2>3:32:0x0.0p+0 3>0:0:0x0.0p+0 3>2:32:0x1.5810624dd2ec4p-3",
    ),
    "cluster-mepipe": (
        "0x1.7a25a1d946bdbp+1",
        "94a4a355d0c39fa4bc93f8cafa8716dfe566f058333ca7465558075a96b7459a",
        "cdeb4f1c182bebf7324bdfe127d96c80bd6e418b15cb2a09520ba81cc880cbc9",
        "0>1:32:0x0.0p+0 0>7:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>2:32:0x0.0p+0 3>4:32:0x0.0p+0 4>3:32:0x0.0p+0 4>5:32:0x0.0p+0 5>4:32:0x0.0p+0 5>6:32:0x0.0p+0 6>5:32:0x0.0p+0 6>7:32:0x0.0p+0 7>0:0:0x0.0p+0 7>6:32:0x0.0p+0",
    ),
    "cluster-dapple": (
        "0x1.3ad417e271057p+2",
        "ba48b13c910b95ddd3613d00c08c0997fbe951bb00c02122f8b04ff3a4a2de7f",
        "0fdb88db7ef509127f78a431b360d3d8ce07f82426c915dd495a5b16eb8f6e12",
        "0>1:16:0x0.0p+0 0>7:0:0x0.0p+0 1>0:16:0x0.0p+0 1>2:16:0x0.0p+0 2>1:16:0x0.0p+0 2>3:16:0x0.0p+0 3>2:16:0x0.0p+0 3>4:16:0x0.0p+0 4>3:16:0x0.0p+0 4>5:16:0x0.0p+0 5>4:16:0x0.0p+0 5>6:16:0x0.0p+0 6>5:16:0x0.0p+0 6>7:16:0x0.0p+0 7>0:0:0x0.0p+0 7>6:16:0x0.0p+0",
    ),
    "cluster-zb": (
        "0x1.5387379afed29p+2",
        "ff93acfa07b7439acee68930a3942f20ef031fbbb5956a8c5c96305865510f6b",
        "7948c3bb37c29fa7b1722b8636a51e585f273d4411606cdd23fecca0d46648af",
        "0>1:32:0x0.0p+0 0>7:0:0x0.0p+0 1>0:32:0x0.0p+0 1>2:32:0x0.0p+0 2>1:32:0x0.0p+0 2>3:32:0x0.0p+0 3>2:32:0x0.0p+0 3>4:32:0x0.0p+0 4>3:32:0x0.0p+0 4>5:32:0x0.0p+0 5>4:32:0x0.0p+0 5>6:32:0x0.0p+0 6>5:32:0x0.0p+0 6>7:32:0x0.0p+0 7>0:0:0x0.0p+0 7>6:32:0x0.0p+0",
    ),
}


def queued(name):
    return any(
        not link.endswith(":0x0.0p+0") for link in GOLDEN[name][3].split()
    )


class TestGolden:
    def test_grid_has_teeth(self):
        uniform = [name for name in GOLDEN if not name.startswith("cluster-")]
        assert len(uniform) == 70 and len(GOLDEN) == 73
        assert sum(map(queued, GOLDEN)) == 38

    @pytest.mark.parametrize("name", GOLDEN)
    def test_replay_matches_the_event_loop(self, name):
        assert snapshot(name) == GOLDEN[name]


class TestQueueOrderMutations:
    """The queue order is the whole model: each seeded mutation of
    ``_link_queues`` must change some golden row."""

    CASES = [name for name in GOLDEN if queued(name)]

    def diverging(self, monkeypatch, mutate):
        real = network_module._link_queues

        def mutated(graph):
            queues = real(graph)
            mutate(queues)
            return queues

        monkeypatch.setattr(network_module, "_link_queues", mutated)
        return [name for name in self.CASES if snapshot(name) != GOLDEN[name]]

    def test_two_transfers_swapped_on_one_link(self, monkeypatch):
        def swap(queues):
            queue = queues[min(queues)]
            queue[0], queue[1] = queue[1], queue[0]

        assert self.diverging(monkeypatch, swap) == self.CASES

    def test_consumer_order_instead_of_producer_order(self, monkeypatch):
        def by_consumer(queues):
            for queue in queues.values():
                queue.sort()  # pred edges are consumer-major

        diverged = self.diverging(monkeypatch, by_consumer)
        # Only links that carry both forward and backward traffic (the
        # V-shaped placements) have a consumer order that differs.
        assert diverged
        assert {name.split("-")[0] for name in diverged} <= {"hanayo", "zbv"}
