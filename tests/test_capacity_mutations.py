"""Seeded mutation tests of the capacity analyzer's CP rule family.

Every rule is triggered on purpose and asserted by exact id with its
minimal witness: a hand-built two-stage schedule whose all-forwards
stage-0 program deadlocks under unit rings (CP001), invalid and
incomplete capacity maps (CP002), deliberately starved-but-live rings
(CP003), tampered certificates and a kernel or oracle that drops its
slot-reuse edges (CP004).  Beside the slot-edge mutations sit the
splice checks of both sides, the planner's backpressure flag, and the
mutations of the oracle's integer tables (cost key, array ledger, lazy
record layout).  The CLI round-trip tests
pin the ``repro capacity`` / ``repro verify --capacity`` JSON contract.
"""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from repro.analysis.capacity import (
    CAPACITY_RULES,
    certify_capacities,
    check_capacities,
    cross_validate_capacities,
    infer_capacities,
)
from repro.hardware import RTX4090_CLUSTER
from repro.model import LLAMA_13B
from repro.parallel import ParallelConfig
from repro.planner import evaluate_config
from repro.schedules import (
    PipelineProblem,
    Schedule,
    StageProgram,
    build_problem,
    build_schedule,
)
from repro.schedules.base import OpId, OpKind
from repro.schedules.graph import channel_table, compiled_graph, kahn_order
from repro.schedules.verify.liveness import check_liveness
from repro.sim import UniformCost, simulate
from repro.sim.crossval import cross_validate

from tests.oracles.fixed_point import simulate_fixed_point


def F(mb, c):
    return OpId(OpKind.F, mb, 0, c)


def B(mb, c):
    return OpId(OpKind.B, mb, 0, c)


def two_stage_all_forwards():
    """p=2, n=4, stage 0 runs every forward before any backward.

    Valid (deadlock-free) with unbounded channels, but under unit
    rings on both channels the classic bounded-buffer cycle appears:
    stage 0 cannot send F2 until stage 1 frees the F slot, stage 1
    cannot reach that recv before its next B, whose slot is held until
    stage 0 finishes all forwards.
    """
    problem = PipelineProblem(num_stages=2, num_microbatches=4)
    programs = [
        StageProgram(0, [F(0, 0), F(1, 0), F(2, 0), F(3, 0),
                         B(0, 0), B(1, 0), B(2, 0), B(3, 0)]),
        StageProgram(1, [F(0, 1), B(0, 1), F(1, 1), B(1, 1),
                         F(2, 1), B(2, 1), F(3, 1), B(3, 1)]),
    ]
    return Schedule(problem=problem, programs=programs,
                    name="all-forwards-2x4")


def mepipe_subject():
    problem = build_problem("mepipe", 4, 8, num_slices=4, wgrad_gemms=3)
    schedule = build_schedule("mepipe", problem)
    return schedule, UniformCost(problem, tw=0.5)


FWD = (0, 1, "F")
BWD = (1, 0, "B")


class TestCP001Deadlock:
    def test_unit_rings_deadlock_with_minimal_cycle(self):
        report = check_capacities(
            two_stage_all_forwards(), capacities={FWD: 1, BWD: 1}
        )
        assert not report.ok
        assert report.rule_ids() == {"CP001"}
        (finding,) = report.findings
        assert "bounded-channel deadlock" in finding.message
        assert "saturates at capacity 1" in finding.message
        assert finding.witness[0] == "minimal blocking cycle (4 edges):"
        slot_lines = [w for w in finding.witness if "slot reuse" in w]
        assert len(slot_lines) == 2  # both channels sit on the cycle
        assert any("(capacity 1)" in w for w in slot_lines)

    def test_minimal_capacities_are_incomparable(self):
        """Relaxing either channel alone breaks the cycle — the joint
        minimum is not unique, which is why inference only promises a
        componentwise-local minimum."""
        sched = two_stage_all_forwards()
        assert check_capacities(sched, capacities={FWD: 2, BWD: 1}).ok
        assert check_capacities(sched, capacities={FWD: 1, BWD: 2}).ok

    def test_inferred_vector_is_feasible_and_minimal(self):
        sched = two_stage_all_forwards()
        plan = infer_capacities(sched)
        caps = plan.capacities("deadlock-free")
        assert set(caps) == {FWD, BWD}
        assert check_capacities(sched, capacities=caps).ok
        for key in caps:
            starved = dict(caps)
            starved[key] -= 1
            assert not check_capacities(sched, capacities=starved).ok, key


class TestCP002InvalidCapacity:
    def test_zero_capacity_is_named(self):
        report = check_capacities(
            two_stage_all_forwards(), capacities={FWD: 0, BWD: 1}
        )
        assert report.rule_ids() == {"CP002"}
        (finding,) = report.findings
        assert "capacity 0" in finding.message
        assert "at least 1 slot" in finding.message
        assert finding.stage == FWD[0]
        assert finding.witness == ("messages: 4",)

    def test_missing_channel_is_named(self):
        report = check_capacities(
            two_stage_all_forwards(), capacities={FWD: 2}
        )
        assert report.rule_ids() == {"CP002"}
        (finding,) = report.findings
        assert "stage 1 -> stage 0 (B)" in finding.message
        assert "no configured capacity" in finding.message

    def test_unknown_channel_is_named(self):
        report = check_capacities(
            two_stage_all_forwards(),
            capacities={FWD: 2, BWD: 2, (0, 1, "W"): 1},
        )
        assert report.rule_ids() == {"CP002"}
        (finding,) = report.findings
        assert "unknown channel" in finding.message
        assert "stage 0 -> stage 1 (W)" in finding.message
        assert any("known channel" in w for w in finding.witness)


class TestCP003Backpressure:
    def test_starved_live_rings_warn_with_makespans(self):
        schedule, cost = mepipe_subject()
        plan = infer_capacities(schedule, cost)
        dl = plan.capacities("deadlock-free")
        bp = plan.capacities("backpressure-free")
        assert dl != bp  # the subject genuinely backpressures
        report = check_capacities(schedule, capacities=dl, cost=cost)
        assert report.ok  # CP003 is a warning, not an error
        assert report.rule_ids() == {"CP003"}
        (finding,) = report.findings
        assert finding.severity.name == "WARNING"
        assert "lengthen the critical path" in finding.message
        assert any(w.startswith("unbounded makespan:") for w in finding.witness)
        assert any(w.startswith("bounded makespan:") for w in finding.witness)
        tight = [w for w in finding.witness if "backpressure-free" in w]
        assert tight  # names every under-provisioned channel
        for line in tight:
            assert "capacity" in line and "<" in line

    def test_backpressure_free_vector_is_silent(self):
        schedule, cost = mepipe_subject()
        plan = infer_capacities(schedule, cost)
        report = check_capacities(
            schedule, capacities=plan.capacities("backpressure-free"),
            cost=cost,
        )
        assert report.ok
        assert report.findings == []
        assert report.checked_rules == ("CP001", "CP002", "CP003")


class TestCP004CertificateTamper:
    def test_clean_certificate_cross_validates(self):
        schedule, cost = mepipe_subject()
        cert = certify_capacities(schedule, cost)
        report = cross_validate_capacities(schedule, cost, cert)
        assert report.ok, report.render_text()
        assert report.findings == []
        assert report.checked_rules == CAPACITY_RULES

    def test_tampered_makespan_is_caught(self):
        schedule, cost = mepipe_subject()
        cert = certify_capacities(schedule, cost)
        forged = dataclasses.replace(cert, makespan=cert.makespan + 1.0)
        report = cross_validate_capacities(schedule, cost, forged)
        assert not report.ok
        assert "CP004" in report.rule_ids()
        (finding,) = report.by_rule("CP004")
        assert "bounded makespan does not reproduce" in finding.message
        assert any(w.startswith("certified:") for w in finding.witness)
        assert any(w.startswith("recomputed:") for w in finding.witness)

    def test_tampered_unbounded_makespan_is_caught(self):
        schedule, cost = mepipe_subject()
        cert = certify_capacities(schedule, cost)
        forged = dataclasses.replace(
            cert, unbounded_makespan=cert.unbounded_makespan - 0.5
        )
        report = cross_validate_capacities(schedule, cost, forged)
        assert not report.ok
        (finding,) = report.by_rule("CP004")
        assert "unbounded makespan does not reproduce" in finding.message

    def test_false_backpressure_free_claim_is_caught(self):
        schedule, cost = mepipe_subject()
        cert = certify_capacities(schedule, cost, mode="deadlock-free")
        assert not cert.backpressure_free
        forged = dataclasses.replace(
            cert,
            backpressure_free=True,
            # keep the (correct) makespans so only the claim is false
        )
        report = cross_validate_capacities(schedule, cost, forged)
        assert not report.ok
        hits = report.by_rule("CP004")
        assert any("claims backpressure-free" in f.message for f in hits)

    def test_deadlocking_certificate_is_unsatisfiable(self):
        sched = two_stage_all_forwards()
        cost = UniformCost(sched.problem)
        cert = certify_capacities(sched, cost, capacities={FWD: 2, BWD: 1})
        forged = dataclasses.replace(
            cert, capacities=((0, 1, "F", 1), (1, 0, "B", 1))
        )
        report = cross_validate_capacities(sched, cost, forged)
        assert not report.ok
        assert report.rule_ids() == {"CP001", "CP004"}
        (finding,) = report.by_rule("CP004")
        assert "unsatisfiable" in finding.message


def binding_grid():
    """Cells certified at deadlock-free capacities that genuinely bind
    (the bounded critical path is longer than the unbounded one)."""
    shapes = [
        ("mepipe", dict(num_slices=4, wgrad_gemms=3)),
        ("svpp", dict(num_slices=2, virtual_size=2)),
        ("dapple", {}),
        ("zb", {}),
    ]
    for method, kwargs in shapes:
        problem = build_problem(method, 4, 8, **kwargs)
        schedule = build_schedule(method, problem)
        cost = UniformCost(problem, tw=0.5)
        cert = certify_capacities(schedule, cost, mode="deadlock-free")
        assert cert.makespan > cert.unbounded_makespan, method
        yield schedule, cost, cert


class TestSlotEdgeMutations:
    """The analytic kernel and the heap oracle each append the
    slot-reuse edges to their own edge arrays; if either side drops
    them it silently replays the unbounded schedule, and the other
    side's disagreement must surface as CP004."""

    def test_unmutated_grid_is_clean(self):
        for schedule, cost, cert in binding_grid():
            report = cross_validate_capacities(schedule, cost, cert)
            assert "CP004" not in report.rule_ids(), report.render_text()
            assert report.ok

    def test_kernel_dropping_slot_edges_fires_cp004(self, monkeypatch):
        from repro.analysis.capacity import core

        cells = list(binding_grid())
        monkeypatch.setattr(
            core,
            "_slot_augmented_preds",
            lambda graph, comm, edges: (
                graph.pred_indptr, graph.pred, comm.tolist()
            ),
        )
        for schedule, cost, cert in cells:
            report = cross_validate_capacities(schedule, cost, cert)
            assert not report.ok
            messages = [f.message for f in report.by_rule("CP004")]
            assert any("bounded makespan does not reproduce" in m
                       for m in messages)
            assert any("bounded event simulation disagrees" in m
                       for m in messages)

    def test_oracle_dropping_slot_edges_fires_cp004(self, monkeypatch):
        from repro.sim import executor

        cells = list(binding_grid())
        monkeypatch.setattr(
            executor,
            "_slot_reuse_csr",
            lambda graph, caps, comm: (
                graph.pred_indptr, graph.pred, comm,
                graph.succ_indptr, graph.succ,
            ),
        )
        for schedule, cost, cert in cells:
            report = cross_validate_capacities(schedule, cost, cert)
            assert not report.ok
            (finding,) = report.by_rule("CP004")
            assert "bounded event simulation disagrees" in finding.message
            assert f"analytic:  {cert.makespan!r}" in finding.witness


class TestCP004FirstDivergence:
    """Under binding capacities the bounded heap replay and the analytic
    slot-augmented times must agree op for op, not only in makespan."""

    def test_one_op_moved_by_one_ulp_is_named(self, monkeypatch):
        from repro.sim import executor

        real = executor._simulate_heap
        for schedule, cost, cert in binding_grid():
            clean = simulate(schedule, cost, channel_capacities=cert.caps())
            # An op that does not end last: the makespans still agree.
            inner = np.flatnonzero(clean.times.end < cert.makespan)
            index = int(inner[len(inner) // 2])

            def nudged(*args, index=index):
                result = real(*args)
                start = result.times.start.copy()
                end = result.times.end.copy()
                start[index] = np.nextafter(start[index], np.inf)
                end[index] = np.nextafter(end[index], np.inf)
                result.times = dataclasses.replace(
                    result.times, start=start, end=end
                )
                return result

            monkeypatch.setattr(executor, "_simulate_heap", nudged)
            report = cross_validate_capacities(schedule, cost, cert)
            monkeypatch.setattr(executor, "_simulate_heap", real)
            (finding,) = report.by_rule("CP004")
            assert "diverges from the analytic slot-augmented times" in (
                finding.message
            )
            assert finding.op == compiled_graph(schedule).op_at(index)


class TestSlotSplice:
    """The kernel and the Kahn pass splice every slot edge into its own
    endpoint's run, also where consecutive ops share one insertion
    point.  On svpp (p=8, s=4, v=2) a B channel's slot edge heads the op
    just before an ``F(mb, 0, 0)`` that has no dependency predecessors;
    the kernel once swapped the two ops' slot edges there and certified
    a makespan the heap oracle did not reproduce (CP004 in
    ``tests/test_capacity.py``'s ``svpp-p8-non-fifo`` cell).  On vpp
    (p=2, v=2) the slot edges leave ops with no successors in between,
    out of tail order."""

    SHAPES = [
        ("svpp", dict(num_slices=4, virtual_size=2), 8),
        ("vpp", dict(virtual_size=2), 2),
    ]

    @pytest.mark.parametrize("method,kwargs,p", SHAPES)
    def test_kernel_and_kahn_place_each_edge_on_its_op(self, method, kwargs, p):
        from repro.analysis.capacity import core

        schedule = build_schedule(method, build_problem(method, p, 8, **kwargs))
        graph = compiled_graph(schedule)
        caps = infer_capacities(schedule).capacities("deadlock-free")
        edges = core._slot_edges(channel_table(graph), caps)
        indptr, pred, _comm = core._slot_augmented_preds(
            graph, np.zeros(len(graph.pred)), edges
        )
        slot_tails = {}
        for tail, head, _key in edges:
            slot_tails.setdefault(head, []).append(tail)
        for i in range(graph.num_ops):
            expect = [*graph.preds_of(i), *slot_tails.get(i, ())]
            assert pred[indptr[i] : indptr[i + 1]] == expect, i
        order, _levels, residual = kahn_order(graph, edges)
        rank = {op: r for r, op in enumerate(order)}
        assert not residual
        assert all(rank[tail] < rank[head] for tail, head, _key in edges)


class TestPlannerBackpressureFlag:
    """``EvalResult.backpressure_free`` reads the inference's certificate
    (bounded makespan equal to the unbounded one), so a charged vector
    that backpressures must clear it."""

    CONFIG = ("dapple", LLAMA_13B, RTX4090_CLUSTER,
              ParallelConfig(dp=4, pp=8, cp=2), 64)

    def test_inferred_vector_is_backpressure_free(self):
        assert evaluate_config(*self.CONFIG).backpressure_free

    def test_backpressuring_vector_clears_the_flag(self, monkeypatch):
        from repro.analysis.capacity import core

        monkeypatch.setattr(
            core,
            "_backpressure_free_capacities",
            lambda table, times: dict.fromkeys(table, 1),
        )
        assert not evaluate_config(*self.CONFIG).backpressure_free


@dataclasses.dataclass(frozen=True)
class GemmSkewCost(UniformCost):
    """Micro-batch invariant, but each W GEMM of a cell costs more than
    the last — ``gemm`` is part of the cost identity."""

    def duration(self, op):
        base = super().duration(op)
        return base * (1.0 + 0.25 * op.gemm) if op.kind is OpKind.W else base


def gemm_subject():
    problem = build_problem("mepipe", 4, 8, num_slices=4, wgrad_gemms=3)
    return build_schedule("mepipe", problem), GemmSkewCost(problem, tw=0.5)


def keys_without_gemm(graph):
    """The oracle's cost keys with the ``gemm`` component dropped."""
    problem = graph.problem
    per_mb = problem.num_slices * problem.num_chunks
    return [kc * per_mb + ce % per_mb for kc, ce in zip(graph.kind, graph.cell)]


class TestOracleTableMutations:
    """The heap oracle probes costs through its own integer-key memo,
    the materializer runs the problem's shared ledger steps over the
    kind codes, and records are laid out from the stage bounds on first
    read.  Each is mutated here and must be caught by a certificate
    that predates it: the analytic cross-validation (EV001), the static
    liveness peaks, and the fixed-point engine's records and peaks."""

    def test_unmutated_subject_is_clean(self):
        schedule, cost = gemm_subject()
        assert cross_validate(schedule, cost).ok
        heap = simulate(schedule, cost, engine="heap")
        fixed = simulate_fixed_point(schedule, cost)
        assert heap.records == fixed.records
        _, peaks = check_liveness(schedule, graph=compiled_graph(schedule))
        # The static walk sums in its own order: equal, not bit-equal.
        assert [
            s.peak_activation_units for s in heap.stages
        ] == pytest.approx([pk.peak_units for pk in peaks], abs=1e-9)

    def test_oracle_key_without_gemm_fires_ev001(self, monkeypatch):
        from repro.sim import executor

        schedule, cost = gemm_subject()
        fixed = simulate_fixed_point(schedule, cost)
        monkeypatch.setattr(executor, "_cost_keys", keys_without_gemm)
        report = cross_validate(schedule, cost)
        assert not report.ok
        # EV002 rides along: the exact certificate's degenerate interval
        # no longer contains the (wrong) simulated iteration time.
        assert report.rule_ids() == {"EV001", "EV002"}
        messages = [f.message for f in report.by_rule("EV001")]
        assert any("stage busy time" in m for m in messages)
        assert any("op timing diverges" in m for m in messages)
        heap = simulate(schedule, cost, engine="heap")
        assert heap.makespan != fixed.makespan
        assert heap.records != fixed.records

    def test_oracle_key_without_gemm_reaches_the_confirmation(self, monkeypatch):
        # The planner's confirmation prices its check with the oracle's
        # probes: the mutated keys make it reject the (correct) kernel
        # claim, and the heap it falls back to carries the mutation, so
        # the sim tier disagrees with the analytic one, as when it
        # replayed every claim.
        from repro.analysis.evaluate import evaluate_schedule
        from repro.sim import executor

        schedule, cost = gemm_subject()
        claimed = evaluate_schedule(schedule, cost).times
        clean = executor.confirm(schedule, cost, claimed.start)
        assert clean.times.end.tobytes() == claimed.end.tobytes()
        replays = []
        real = executor._simulate_heap
        monkeypatch.setattr(
            executor, "_simulate_heap", lambda *a: replays.append(a) or real(*a)
        )
        monkeypatch.setattr(executor, "_cost_keys", keys_without_gemm)
        mutant = executor.confirm(schedule, cost, claimed.start)
        assert len(replays) == 1
        assert mutant.makespan != clean.makespan

    def test_swapped_ledger_branches_change_the_peaks(self, monkeypatch):
        from repro.schedules.graph import KIND_B, KIND_W
        from repro.sim import executor

        schedule, cost = gemm_subject()
        fixed = simulate_fixed_point(schedule, cost)
        _, peaks = check_liveness(schedule, graph=compiled_graph(schedule))
        # `_materialize` tests F, then KIND_B, else W: aliasing KIND_B
        # to the W code sends every W down the B branch and every B
        # down the W branch.
        assert executor.KIND_B == KIND_B
        monkeypatch.setattr(executor, "KIND_B", KIND_W)
        for engine in ("heap", "event"):
            mutant = simulate(schedule, cost, engine=engine)
            mutant_peaks = [s.peak_activation_units for s in mutant.stages]
            assert mutant_peaks != [
                s.peak_activation_units for s in fixed.stages
            ]
            assert mutant_peaks != pytest.approx(
                [pk.peak_units for pk in peaks], abs=1e-9
            )
        report = cross_validate(schedule, cost)
        assert report.rule_ids() == {"EV001"}
        assert all(
            "peak ledger units" in f.message for f in report.by_rule("EV001")
        )

    def test_w_step_one_ulp_short_changes_the_peaks(self, monkeypatch):
        schedule, cost = gemm_subject()
        fixed = simulate_fixed_point(schedule, cost)
        real = PipelineProblem.ledger_steps

        def short_w_release(problem):
            f, b, w = real.fget(problem)
            return f, b, math.nextafter(w, 0.0)

        # Both engines and the analytic evaluator read the one shared
        # rule; only the fixed-point engine's own ledger can see it move.
        monkeypatch.setattr(
            PipelineProblem, "ledger_steps", property(short_w_release)
        )
        for engine in ("heap", "event"):
            mutant = simulate(schedule, cost, engine=engine)
            assert [s.peak_activation_units for s in mutant.stages] != [
                s.peak_activation_units for s in fixed.stages
            ]
        assert cross_validate(schedule, cost).ok

    def test_shifted_stage_bounds_put_records_on_the_wrong_stage(self):
        schedule, cost = gemm_subject()
        fixed = simulate_fixed_point(schedule, cost)
        heap = simulate(schedule, cost, engine="heap")
        graph = compiled_graph(schedule)
        shifted = copy.copy(graph)
        (lo0, hi0), (_lo1, hi1), *rest = graph.stage_bounds
        shifted.stage_bounds = ((lo0, hi0 + 1), (hi0 + 1, hi1), *rest)
        heap.times = dataclasses.replace(heap.times, graph=shifted)
        assert heap.records != fixed.records
        stray = graph.op_at(hi0)
        assert fixed.records[stray].stage == 1
        assert heap.records[stray].stage == 0
        assert heap.stage_records(0)[-1].op == stray
        assert len(heap.stage_records(1)) == len(fixed.stage_records(1)) - 1


class TestDeterminism:
    def test_reports_are_deterministic(self):
        sched = two_stage_all_forwards()
        a = check_capacities(sched, capacities={FWD: 1, BWD: 1})
        b = check_capacities(sched, capacities={FWD: 1, BWD: 1})
        assert a.to_dict() == b.to_dict()

    def test_plan_is_deterministic(self):
        schedule, cost = mepipe_subject()
        assert (
            infer_capacities(schedule, cost).to_dict()
            == infer_capacities(schedule, cost).to_dict()
        )


class TestCapacityCLI:
    def test_json_round_trip(self, capsys):
        from repro.cli import main

        assert main(["capacity", "mepipe", "--s", "4", "--wgrad-gemms", "3",
                     "--tw", "0.5", "--check", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "backpressure-free"
        assert data["report"]["ok"] is True
        assert data["report"]["checked_rules"] == list(CAPACITY_RULES)
        cert = data["certificate"]
        assert cert["backpressure_free"] is True
        assert cert["makespan"] == data["unbounded_makespan"]
        for channel in data["channels"]:
            assert channel["deadlock_free"] <= channel["messages"]

    def test_deadlock_free_mode_warns_but_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["capacity", "mepipe", "--s", "4", "--wgrad-gemms", "3",
                     "--tw", "0.5", "--mode", "deadlock-free"]) == 0
        out = capsys.readouterr().out
        assert "capacity plan for" in out
        assert "CP003" in out

    def test_rule_subset_filters_report(self, capsys):
        from repro.cli import main

        assert main(["capacity", "mepipe", "--s", "4", "--wgrad-gemms", "3",
                     "--mode", "deadlock-free", "--rules", "cp001,cp002",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["report"]["checked_rules"] == ["CP001", "CP002"]
        assert data["report"]["findings"] == []

    def test_unknown_rule_exits_two(self, capsys):
        from repro.cli import main

        assert main(["capacity", "mepipe", "--rules", "XX999"]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_verify_capacity_json_round_trip(self, capsys):
        from repro.cli import main
        from repro.schedules.verify import ALL_RULES

        assert main(["verify", "mepipe", "--s", "4", "--wgrad-gemms", "3",
                     "--capacity", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        # The cost-free merge certifies deadlock freedom (CP001/CP002);
        # CP003/CP004 need a cost model and a certificate — that is
        # `repro capacity`'s job.
        assert set(data["checked_rules"]) == set(ALL_RULES) | {
            "CP001", "CP002",
        }

    def test_verify_capacity_rule_subset(self, capsys):
        from repro.cli import main

        assert main(["verify", "mepipe", "--s", "4", "--wgrad-gemms", "3",
                     "--capacity", "--rules", "CP001,CP002"]) == 0
        assert "2 rules" in capsys.readouterr().out

    def test_check_model_capacity_grid(self, capsys):
        from repro.cli import main

        assert main(["check-model", "grid", "--capacity",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for entry in data:
            assert entry["ok"] is True
            assert "CP001" in entry["checked_rules"]
