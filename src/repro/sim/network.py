"""Pipeline replay with queued link contention.

The default executor charges each cross-stage edge a fixed transfer
time (bandwidth derated by a static sharing factor).  Here links are
resources: every cross-stage tensor is a transfer that queues FIFO on
its link, so bursts of boundary messages — e.g. all slices of a
micro-batch finishing close together — serialize the way a real NIC
serializes them.

A link is one more stage of the schedule table.  On a per-(src, dst)
link the queue order *is* the sender's program order, so a transfer is
a node whose "stage" is its link: it follows the previous transfer on
that link the way an op follows its program predecessor, waits for its
producer over a zero-cost edge, lasts :meth:`Link.occupancy`, and the
consumer depends on it instead of on the producer.  The arrays go
through the one replay kernel (:func:`repro.analysis.evaluate.dense.
wavefront_times`) and the one materializer; link statistics are read
off the transfer nodes.

Used to sanity-check the static model: the experiments' headline
numbers hold under both (see ``tests/test_network_sim.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schedules.base import Schedule, ScheduleError
from repro.schedules.graph import ScheduleGraph, compiled_graph, toposort_plan
from repro.sim.cost import CostModel
from repro.sim.executor import OpTimes, SimResult, _materialize


@dataclass
class Link:
    """A serializing transfer resource between two stages.

    Attributes:
        bandwidth_bytes_per_s: Payload bandwidth available to this
            pipeline's traffic (already divided by any sharing).
        latency_s: Per-message latency.
        bytes_carried, transfers, queue_delay: What the replays run on
            this link so far put through it, and how long its transfers
            waited for the link after their tensors were ready.
    """

    bandwidth_bytes_per_s: float
    latency_s: float = 10e-6
    bytes_carried: int = 0
    transfers: int = 0
    queue_delay: float = 0.0

    def occupancy(self, nbytes: int) -> float:
        """How long one ``nbytes`` transfer holds the link."""
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


@dataclass
class NetworkModel:
    """Links per directed stage pair plus per-edge payload sizes."""

    links: dict[tuple[int, int], Link]
    edge_bytes: float

    @classmethod
    def uniform(
        cls,
        num_stages: int,
        bandwidth_bytes_per_s: float,
        edge_bytes: float,
        latency_s: float = 10e-6,
        ring: bool = True,
    ) -> "NetworkModel":
        """One dedicated link per adjacent stage pair, both directions."""
        links = {}
        for a in range(num_stages):
            for b in (a - 1, a + 1):
                bb = b % num_stages if ring else b
                if 0 <= bb < num_stages and bb != a:
                    links[(a, bb)] = Link(bandwidth_bytes_per_s, latency_s)
        return cls(links=links, edge_bytes=edge_bytes)

    def link_for(self, src: int, dst: int) -> Link:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise ScheduleError(
                f"network model has no link stage {src} -> stage {dst}"
            ) from None

    @property
    def total_queue_delay(self) -> float:
        return sum(link.queue_delay for link in self.links.values())


def _link_queues(graph: ScheduleGraph) -> dict[tuple[int, int], list[int]]:
    """Each link's cross-stage dependency edges (indices into
    ``graph.pred``) in queue order.

    A link's FIFO queue fills in the order its sender executes the
    producers, and dense op indices are stage-major program order, so
    sorting a link's edges by producer index is the queue order.
    """
    stage, pred, indptr = graph.stage, graph.pred, graph.pred_indptr
    queues: dict[tuple[int, int], list[int]] = {}
    for consumer in range(graph.num_ops):
        for e in range(indptr[consumer], indptr[consumer + 1]):
            if stage[pred[e]] != stage[consumer]:
                link = (stage[pred[e]], stage[consumer])
                queues.setdefault(link, []).append(e)
    for queue in queues.values():
        queue.sort(key=pred.__getitem__)
    return queues


def simulate_with_network(
    schedule: Schedule,
    cost: CostModel,
    network: NetworkModel,
    overhead_time: float = 0.0,
    actgrad_factor: float = 1.0,
) -> SimResult:
    """Replay ``schedule`` with queued transfers.

    ``cost.duration`` provides compute times; cross-stage edges are
    carried by ``network``'s links (``cost.comm_time`` is ignored).
    Like the static-cost executor, the schedule is verified (placement,
    coverage, deadlock) on entry.
    """
    # Lazy: ``repro.analysis`` imports sim modules for its own checks.
    from repro.analysis.evaluate.dense import op_cost_arrays, wavefront_times
    from repro.schedules.verify import ensure_verified

    ensure_verified(schedule, context="simulate_with_network")
    graph = compiled_graph(schedule)
    num_ops, num_edges = graph.num_ops, len(graph.pred)
    op_duration, act_units, _static_comm = op_cost_arrays(graph, cost)

    # Ops keep their indices; transfer nodes follow, one link after
    # another in queue order, exactly like the ops of one stage.  The
    # consumer waits on the transfer instead of the producer, the
    # transfer waits on the producer, and every edge is free: the
    # transfer time is the transfer node's duration.
    pos, pred, indptr = list(graph.pos), list(graph.pred), list(graph.pred_indptr)
    duration = op_duration.tolist()
    nbytes = int(network.edge_bytes)
    sent: list[tuple[Link, int, int]] = []  # (link, transfer node, producer)
    transfers_of: dict[int, list[int]] = {}
    for (src, dst), queue in _link_queues(graph).items():
        link = network.link_for(src, dst)
        for position, e in enumerate(queue):
            node, producer = len(pos), pred[e]
            pos.append(position)
            duration.append(link.occupancy(nbytes))
            pred[e] = node
            pred.append(producer)
            indptr.append(len(pred))
            sent.append((link, node, producer))
            transfers_of.setdefault(producer, []).append(node)
    # A transfer goes right after its producer: the previous transfer on
    # its link was produced earlier in the same program, so a
    # topological order of the ops stays one with the transfers in.
    order = [
        j
        for i in toposort_plan(graph).order
        for j in (i, *transfers_of.get(i, ()))
    ]
    start, end = wavefront_times(
        pos, indptr, pred, [0.0] * len(pred), duration, order
    )

    for link, node, producer in sent:
        link.queue_delay += start[node] - end[producer]
        link.transfers += 1
        link.bytes_carried += nbytes
    result = _materialize(
        schedule,
        OpTimes(
            graph,
            start[:num_ops],
            end[:num_ops],
            duration[:num_ops],
            act_units.tolist(),
            [0.0] * num_edges,
        ),
        overhead_time,
        actgrad_factor,
    )
    result.schedule_name += "+network"
    return result
