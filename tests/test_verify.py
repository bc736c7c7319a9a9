"""Tests of the schedule static-analysis subsystem.

Covers the diagnostics framework, every rule in the catalogue with a
hand-seeded defect, the deadlock/channel witnesses, the closed-form
cross-check, the legacy ``validate_schedule`` wrapper, the verified
cache, the CLI, and the golden sweep: every shipped schedule verifies
error-clean across the acceptance grid.
"""

import json

import pytest

from repro.schedules import (
    OpId,
    OpKind,
    PipelineProblem,
    Schedule,
    ScheduleError,
    StageProgram,
    build_problem,
    build_schedule,
    dapple_schedule,
    validate_schedule,
)
from repro.schedules.verify import (
    ALL_RULES,
    RULES,
    SAFETY_RULES,
    Finding,
    Report,
    Severity,
    assert_clean,
    ensure_verified,
    verify_schedule,
)

F, B, W = OpKind.F, OpKind.B, OpKind.W


def clone(schedule: Schedule) -> Schedule:
    """Deep-enough copy for mutation: fresh program lists, no cache."""
    return Schedule(
        problem=schedule.problem,
        programs=[StageProgram(pr.stage, list(pr.ops)) for pr in schedule.programs],
        name=schedule.name,
    )


def small_dapple(p: int = 2, n: int = 4) -> Schedule:
    return dapple_schedule(PipelineProblem(num_stages=p, num_microbatches=n))


# ---------------------------------------------------------------------------
# Diagnostics framework
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_catalogue_covers_all_rules(self):
        # The catalogue is shared with the model-analysis tier
        # (repro.analysis registers its SH/GC/HZ rules into RULES), so
        # the verifier's rules are a proper, disjoint subset.
        from repro.analysis import MODEL_RULES

        assert set(ALL_RULES) <= set(RULES)
        assert set(MODEL_RULES) <= set(RULES)
        assert set(ALL_RULES).isdisjoint(MODEL_RULES)
        assert set(SAFETY_RULES) < set(ALL_RULES)

    def test_finding_defaults_severity_from_catalogue(self):
        assert Finding("DL001", "boom").severity is Severity.ERROR
        assert Finding("CH001", "swap").severity is Severity.WARNING

    def test_finding_severity_override(self):
        f = Finding("CH001", "swap", severity=Severity.ERROR)
        assert f.severity is Severity.ERROR

    def test_finding_render_includes_location_and_witness(self):
        op = OpId(F, 0, 0, 0)
        f = Finding("ST001", "wrong home", stage=1, op=op, witness=("a", "b"))
        text = f.render()
        assert "ST001" in text and "stage 1" in text
        assert str(op) in text
        assert "    a" in text and "    b" in text

    def test_report_verdicts(self):
        rep = Report(schedule_name="x")
        assert rep.ok and "clean" in rep.render_text()
        rep.findings.append(Finding("CH001", "swap"))
        assert rep.ok and "1 warning(s)" in rep.render_text()
        rep.findings.append(Finding("DL001", "stuck"))
        assert not rep.ok
        assert "1 error(s), 1 warning(s)" in rep.render_text()

    def test_report_json_round_trip(self):
        rep = verify_schedule(small_dapple(), method="dapple")
        data = json.loads(rep.render_json())
        assert data["ok"] is True
        assert data["schedule"] == rep.schedule_name
        assert list(data["checked_rules"]) == list(ALL_RULES)

    def test_errors_sort_before_warnings(self):
        rep = Report(schedule_name="x")
        rep.findings.append(Finding("CH001", "swap"))
        rep.findings.append(Finding("DL001", "stuck"))
        text = rep.render_text()
        assert text.index("DL001") < text.index("CH001")


# ---------------------------------------------------------------------------
# Structure rules (ST001-ST005)
# ---------------------------------------------------------------------------


class TestStructure:
    def test_clean_schedule_has_no_findings(self):
        rep = verify_schedule(small_dapple(), method="dapple")
        assert rep.ok and not rep.findings

    def test_misplaced_op_st001(self):
        sched = clone(small_dapple())
        op = sched.programs[1].ops.pop(0)
        sched.programs[0].ops.append(op)
        rep = verify_schedule(sched)
        assert "ST001" in rep.rule_ids()
        (f,) = rep.by_rule("ST001")
        assert f.op == op and f.stage == 0
        assert "belongs to stage 1" in f.message

    def test_missing_op_st002(self):
        sched = clone(small_dapple())
        dropped = sched.programs[1].ops.pop()
        rep = verify_schedule(sched)
        assert "ST002" in rep.rule_ids()
        assert any(f.op == dropped for f in rep.by_rule("ST002"))

    def test_duplicate_op_st003(self):
        sched = clone(small_dapple())
        sched.programs[0].ops.append(sched.programs[0].ops[0])
        rep = verify_schedule(sched)
        assert "ST003" in rep.rule_ids()

    def test_foreign_op_st004(self):
        sched = clone(small_dapple())
        foreign = OpId(F, 99, 0, 0)
        sched.programs[0].ops.append(foreign)
        rep = verify_schedule(sched)
        assert any(f.op == foreign for f in rep.by_rule("ST004"))

    def test_malformed_programs_st005(self):
        sched = clone(small_dapple())
        del sched.programs[1]
        rep = verify_schedule(sched)
        assert rep.rule_ids() == {"ST005"}


# ---------------------------------------------------------------------------
# Deadlock detection and the minimal-cycle witness (DL001)
# ---------------------------------------------------------------------------


def swap_dependent_pair(sched: Schedule) -> tuple[OpId, OpId]:
    """Swap some same-stage (dep, op) pair in place; returns the pair."""
    problem = sched.problem
    for program in sched.programs:
        pos = {op: i for i, op in enumerate(program.ops)}
        for j, op in enumerate(program.ops):
            for dep in problem.deps(op):
                i = pos.get(dep)
                if i is not None and i < j:
                    program.ops[i], program.ops[j] = op, dep
                    return dep, op
    raise AssertionError("no same-stage dependent pair found")


class TestDeadlock:
    def test_swapped_dependents_deadlock_dl001(self):
        sched = clone(small_dapple())
        dep, op = swap_dependent_pair(sched)
        rep = verify_schedule(sched, rules=SAFETY_RULES)
        (f,) = rep.by_rule("DL001")
        text = f.render()
        assert "minimal blocking cycle" in text
        assert str(dep) in text and str(op) in text

    def test_witness_reports_per_stage_blocked_heads(self):
        sched = clone(small_dapple())
        swap_dependent_pair(sched)
        (f,) = verify_schedule(sched, rules=("DL001",)).by_rule("DL001")
        heads = [line for line in f.witness if "blocked at" in line]
        assert heads, f.witness

    def test_cycle_edges_are_labelled(self):
        sched = clone(small_dapple())
        swap_dependent_pair(sched)
        (f,) = verify_schedule(sched, rules=("DL001",)).by_rule("DL001")
        cycle = [line for line in f.witness if "->" in line]
        assert len(cycle) >= 2
        assert any("program order" in line for line in cycle)

    def test_cross_stage_order_inversion_deadlocks(self):
        # Stage 1 waits for F1 first while stage 0 sends F0 first, and
        # stage 0's B0 needs stage 1's B0 which sits behind the wait.
        problem = PipelineProblem(num_stages=2, num_microbatches=2)
        sched = clone(dapple_schedule(problem))
        ops = sched.programs[1].ops
        i0, i1 = ops.index(OpId(F, 0, 0, 1)), ops.index(OpId(B, 0, 0, 1))
        ops[i0], ops[i1] = ops[i1], ops[i0]
        rep = verify_schedule(sched, rules=SAFETY_RULES)
        assert "DL001" in rep.rule_ids()


# ---------------------------------------------------------------------------
# Channel order (CH001-CH003)
# ---------------------------------------------------------------------------


class TestChannels:
    def test_receive_reorder_warns_ch001(self):
        # B0 and B1 arrive at stage 0 from stage 1; different
        # micro-batches are independent, so receiving B1 before B0
        # cannot deadlock — it only inverts the channel order.
        sched = clone(small_dapple(p=2, n=4))
        ops = sched.programs[0].ops
        i0, i1 = ops.index(OpId(B, 0, 0, 0)), ops.index(OpId(B, 1, 0, 0))
        ops[i0], ops[i1] = ops[i1], ops[i0]
        rep = verify_schedule(sched, method="dapple")
        assert rep.ok  # benign under tagged transports -> warning only
        (f,) = rep.by_rule("CH001")
        assert f.severity is Severity.WARNING
        assert any("send order" in line for line in f.witness)
        assert any("recv order" in line for line in f.witness)

    def test_dropped_producer_ch002(self):
        sched = clone(small_dapple(p=2, n=4))
        sched.programs[0].ops.remove(OpId(F, 2, 0, 0))
        rep = verify_schedule(sched)
        assert {"ST002", "CH002"} <= rep.rule_ids()
        assert any(f.op == OpId(F, 2, 0, 1) for f in rep.by_rule("CH002"))

    def test_dropped_consumer_ch003(self):
        sched = clone(small_dapple(p=2, n=4))
        sched.programs[1].ops.remove(OpId(F, 2, 0, 1))
        rep = verify_schedule(sched)
        assert "CH003" in rep.rule_ids()


# ---------------------------------------------------------------------------
# Liveness / memory lint (LV001, LV002, AN001)
# ---------------------------------------------------------------------------


class TestLiveness:
    def test_duplicate_backward_is_use_after_free(self):
        sched = clone(small_dapple())
        ops = sched.programs[1].ops
        ops.append(OpId(B, 0, 0, 1))
        rep = verify_schedule(sched)
        assert {"ST003", "LV001"} <= rep.rule_ids()

    def test_dropped_backward_leaks(self):
        sched = clone(small_dapple())
        sched.programs[1].ops.remove(OpId(B, 3, 0, 1))
        rep = verify_schedule(sched)
        assert "LV002" in rep.rule_ids()
        (f,) = [f for f in rep.by_rule("LV002") if f.stage == 1]
        assert "leaked per iteration" in f.message
        assert any("never fully released" in line for line in f.witness)

    def test_wgrad_before_backward_is_use_after_free(self):
        sched = clone(build_schedule("zb", build_problem("zb", 2, 4)))
        ops = sched.programs[0].ops
        b = next(op for op in ops if op.kind is B)
        w = next(
            op for op in ops
            if op.kind is W
            and (op.microbatch, op.slice_idx, op.chunk)
            == (b.microbatch, b.slice_idx, b.chunk)
        )
        i, j = ops.index(b), ops.index(w)
        ops[i], ops[j] = ops[j], ops[i]
        rep = verify_schedule(sched)
        assert "LV001" in rep.rule_ids() or "DL001" in rep.rule_ids()

    def test_gpipe_order_diverges_from_dapple_closed_form_an001(self):
        # Re-order stage 0 as all-forwards-then-all-backwards: peak n
        # units, while the DAPPLE closed form promises p in-flight.
        sched = clone(small_dapple(p=2, n=6))
        ops = sched.programs[0].ops
        ops.sort(key=lambda op: (op.kind is not F, op.microbatch if op.kind is F else -op.microbatch))
        rep = verify_schedule(sched, method="dapple")
        (f,) = rep.by_rule("AN001")
        assert "exceeds" in f.message
        assert any("first op past the bound" in line for line in f.witness)

    def test_an001_needs_method(self):
        sched = clone(small_dapple(p=2, n=6))
        ops = sched.programs[0].ops
        ops.sort(key=lambda op: (op.kind is not F, op.microbatch if op.kind is F else -op.microbatch))
        rep = verify_schedule(sched)  # no method -> no closed form
        assert "AN001" not in rep.rule_ids()


# ---------------------------------------------------------------------------
# Rule selection, enforcement wrappers, caching
# ---------------------------------------------------------------------------


class TestEnforcement:
    def test_rule_selection_filters_findings(self):
        sched = clone(small_dapple())
        sched.programs[1].ops.remove(OpId(B, 3, 0, 1))
        rep = verify_schedule(sched, rules=("LV002",))
        assert rep.rule_ids() == {"LV002"}

    def test_validate_schedule_wrapper_raises_schedule_error(self):
        sched = clone(small_dapple())
        sched.programs[0].ops.append(sched.programs[0].ops[0])
        with pytest.raises(ScheduleError, match="duplicate"):
            validate_schedule(sched)

    def test_validate_schedule_deadlock_message_has_witness(self):
        sched = clone(small_dapple())
        swap_dependent_pair(sched)
        with pytest.raises(ScheduleError, match="minimal blocking cycle"):
            validate_schedule(sched)

    def test_ensure_verified_caches_then_invalidates(self):
        sched = build_schedule("dapple", build_problem("dapple", 2, 4))
        token = sched._verify_token  # set by the generator
        ensure_verified(sched)  # cache hit, no recheck
        assert sched._verify_token == token
        sched = clone(sched)  # build_schedule's result is shared
        sched._verify_token = token
        swap_dependent_pair(sched)  # in-place corruption, same op count
        with pytest.raises(ScheduleError):
            ensure_verified(sched, context="post-mutation")

    def test_assert_clean_raises_with_full_report(self):
        sched = clone(small_dapple())
        sched.programs[1].ops.remove(OpId(B, 3, 0, 1))
        with pytest.raises(ScheduleError, match="LV002"):
            assert_clean(sched, method="dapple")

    def test_simulator_rejects_corrupted_schedule(self):
        from repro.sim import UniformCost, simulate

        sched = clone(small_dapple())
        swap_dependent_pair(sched)
        with pytest.raises(ScheduleError, match="simulate"):
            simulate(sched, UniformCost(sched.problem))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_verify_clean_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["verify", "mepipe", "--p", "4", "--n", "8", "--s", "2",
                     "--wgrad-gemms", "2"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_verify_json_output(self, capsys):
        from repro.cli import main

        assert main(["verify", "dapple", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_verify_rule_subset(self, capsys):
        from repro.cli import main

        assert main(["verify", "dapple", "--rules", "dl001,st002"]) == 0
        capsys.readouterr()

    def test_verify_unknown_rule_exits_two(self, capsys):
        from repro.cli import main

        assert main(["verify", "dapple", "--rules", "XX999"]) == 2
        assert "unknown rule" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Golden sweep: every shipped schedule verifies error-clean
# ---------------------------------------------------------------------------


def golden_grid():
    """The acceptance grid: p in {2,4,8}, s in {1,4}, v in {1,2}."""
    for p in (2, 4, 8):
        yield ("gpipe", p, 8, 1, 1, 1)
        yield ("dapple", p, 8, 1, 1, 1)
        yield ("vpp", p, 8, 1, 2, 1)
        yield ("hanayo", p, 8, 1, 2, 1)
        for s in (1, 4):
            yield ("terapipe", p, 8, s, 1, 1)
        for g in (1, 2):  # unsplit-ish (fused W) vs split W fragments
            yield ("zb", p, 8, 1, 1, g)
            yield ("zbv", p, 8, 1, 2, g)
        for s in (1, 4):
            for v in (1, 2):
                yield ("svpp", p, 8, s, v, 1)
                yield ("mepipe", p, 8, s, v, 2)


@pytest.mark.parametrize(
    "method,p,n,s,v,g",
    list(golden_grid()),
    ids=lambda val: str(val),
)
def test_shipped_schedules_verify_clean(method, p, n, s, v, g):
    problem = build_problem(method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=g)
    schedule = build_schedule(method, problem)
    report = verify_schedule(schedule, method=method)
    assert report.ok, report.render_text()
    # The only tolerated warning is the documented SVPP/MEPipe wrap
    # channel reorder at s >= p with v >= 2 (docs/verification.md).
    unexpected = [f for f in report.warnings if f.rule_id != "CH001"]
    assert not unexpected, report.render_text()
    if method not in ("svpp", "mepipe"):
        assert not report.warnings, report.render_text()
