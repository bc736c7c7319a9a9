"""Seeded mutation tests for the EV rule family.

Each test corrupts one field of a known-good analytic evaluation (or
its bounds certificate) with :func:`dataclasses.replace` and asserts
that :func:`repro.sim.crossval.cross_validate` files *exactly* the
expected ``EV00x`` rule ids, with the corrupted value visible in the
finding's witness.  Mutation sites are chosen with a seeded RNG so the
suite covers different stages/ops across runs while staying
reproducible — the same idiom as ``tests/test_analysis_mutations.py``.
"""

import dataclasses
import random

import pytest

from repro.analysis.evaluate import (
    EVALUATE_RULES,
    evaluate_schedule,
    iteration_time_bounds,
)
from repro.schedules.graph import compiled_graph
from repro.schedules.methods import build_problem, build_schedule
from repro.sim.cost import UniformCost
from repro.sim.crossval import cross_validate

SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def subject():
    """One schedule, cost, clean evaluation, and clean bounds."""
    problem = build_problem("mepipe", 4, 8, num_slices=4, wgrad_gemms=3)
    schedule = build_schedule("mepipe", problem)
    cost = UniformCost(problem, tw=0.5)
    evaluation = evaluate_schedule(schedule, cost)
    bounds = iteration_time_bounds(problem, cost)
    assert bounds is not None
    return schedule, cost, evaluation, bounds


def validate(subject, evaluation=None, bounds=None):
    schedule, cost, base_eval, base_bounds = subject
    return cross_validate(
        schedule,
        cost,
        evaluation=base_eval if evaluation is None else evaluation,
        bounds=base_bounds if bounds is None else bounds,
    )


def findings_for(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


def test_unmutated_subject_is_clean(subject):
    report = validate(subject)
    assert report.ok
    assert report.rule_ids() == set()
    assert report.checked_rules == EVALUATE_RULES


# ----------------------------------------------------------------------
# EV001 — exactness certificates must be bit-for-bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_corrupt_stage_busy_fires_ev001(subject, seed):
    _, _, evaluation, _ = subject
    stage = random.Random(seed).randrange(evaluation.num_stages)
    busy = list(evaluation.stage_busy)
    busy[stage] += 0.125
    mutant = dataclasses.replace(evaluation, stage_busy=tuple(busy))
    report = validate(subject, evaluation=mutant)
    assert not report.ok
    assert report.rule_ids() == {"EV001"}
    (finding,) = [
        f for f in findings_for(report, "EV001") if "stage busy" in f.message
    ]
    assert finding.stage == stage
    assert f"analytic:  {busy[stage]!r}" in finding.witness
    assert any(w.startswith("delta:") for w in finding.witness)


@pytest.mark.parametrize("seed", SEEDS)
def test_corrupt_stage_peak_fires_ev001(subject, seed):
    _, _, evaluation, _ = subject
    stage = random.Random(seed).randrange(evaluation.num_stages)
    peaks = list(evaluation.stage_peak_units)
    peaks[stage] += 1.0
    mutant = dataclasses.replace(evaluation, stage_peak_units=tuple(peaks))
    report = validate(subject, evaluation=mutant)
    assert report.rule_ids() == {"EV001"}
    (finding,) = findings_for(report, "EV001")
    assert "peak ledger units" in finding.message
    assert finding.stage == stage


@pytest.mark.parametrize("seed", SEEDS)
def test_corrupt_op_time_fires_ev001(subject, seed):
    schedule, _, evaluation, _ = subject
    times = evaluation.times
    assert times is not None
    index = random.Random(seed).randrange(len(times.start))
    start = times.start.copy()
    start[index] += 0.125
    mutant = dataclasses.replace(
        evaluation, times=dataclasses.replace(times, start=start)
    )
    report = validate(subject, evaluation=mutant)
    assert report.rule_ids() == {"EV001"}
    op_findings = [
        f for f in findings_for(report, "EV001") if "op timing" in f.message
    ]
    assert len(op_findings) == 1  # one witness op is enough
    assert op_findings[0].op == compiled_graph(schedule).op_at(index)
    assert any(w.startswith("analytic:") for w in op_findings[0].witness)


def test_served_check_catches_a_wrong_float_in_the_kernel(monkeypatch):
    """``repro evaluate --check`` / ``EvaluateRequest(check=True)`` must
    certify the kernel against something that is not the kernel: one
    wrong float out of ``wavefront_times`` — which prices both
    ``evaluate_schedule`` and ``simulate(engine="event")`` — comes back
    as an EV001 finding, because the check replays on the heap oracle."""
    from repro import api
    from repro.analysis.evaluate import dense

    real = dense.wavefront_times

    def one_wrong_float(*args):
        start, end = real(*args)
        end[len(end) // 2] += 0.125
        return start, end

    request = api.EvaluateRequest(method="zb", tw=0.5, check=True)
    clean = api.execute(request)
    assert clean.ok and clean.report["findings"] == []
    monkeypatch.setattr(dense, "wavefront_times", one_wrong_float)
    response = api.execute(request)
    assert not response.ok
    assert {f["rule_id"] for f in response.report["findings"]} == {"EV001"}
    assert "op timing diverges from the event replay" in response.text


# ----------------------------------------------------------------------
# EV002 — bound certificates must contain the simulated time
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_excluding_bounds_fire_ev002(subject, seed):
    _, _, _, bounds = subject
    shift = random.Random(seed).choice([1.0, 2.5, -100.0])
    if shift > 0:  # interval entirely above the simulated time
        mutant = dataclasses.replace(
            bounds, lower=bounds.upper + shift, upper=bounds.upper + shift + 1
        )
    else:  # entirely below
        mutant = dataclasses.replace(
            bounds, lower=bounds.lower + shift, upper=bounds.lower + shift + 1
        )
    report = validate(subject, bounds=mutant)
    assert report.rule_ids() == {"EV002"}
    (finding,) = findings_for(report, "EV002")
    assert "time bounds" in finding.message
    assert f"certified: [{mutant.lower!r}, {mutant.upper!r}]" in finding.witness


def test_excluding_certificate_fires_ev002(subject):
    _, _, evaluation, _ = subject
    # Double the makespan and issue a bounded certificate around the
    # *wrong* value: internally consistent (EV003 quiet), exempt from
    # the exactness obligations (kind != "exact", EV001 quiet) — but the
    # interval no longer contains the simulated time.
    wrong = evaluation.makespan * 2.0
    cert = dataclasses.replace(
        evaluation.certificate,
        kind="bounded",
        lower=wrong - 0.5,
        upper=wrong + evaluation.overhead_time + 0.5,
    )
    mutant = dataclasses.replace(evaluation, makespan=wrong, certificate=cert)
    report = validate(subject, evaluation=mutant)
    assert report.rule_ids() == {"EV002"}
    (finding,) = findings_for(report, "EV002")
    assert "evaluation certificate" in finding.message


# ----------------------------------------------------------------------
# EV003 — certificates must be internally consistent
# ----------------------------------------------------------------------
def test_unknown_certificate_kind_fires_ev003(subject):
    _, _, evaluation, _ = subject
    cert = dataclasses.replace(evaluation.certificate, kind="vibes")
    mutant = dataclasses.replace(evaluation, certificate=cert)
    report = validate(subject, evaluation=mutant)
    assert report.rule_ids() == {"EV003"}
    (finding,) = findings_for(report, "EV003")
    assert "not internally consistent" in finding.message
    assert f"interval: [{cert.lower!r}, {cert.upper!r}]" in finding.witness


def test_non_degenerate_exact_certificate_fires_ev003(subject):
    _, _, evaluation, _ = subject
    cert = dataclasses.replace(
        evaluation.certificate, upper=evaluation.certificate.upper + 1.0
    )
    assert cert.kind == "exact"  # exact => degenerate is now violated
    mutant = dataclasses.replace(evaluation, certificate=cert)
    report = validate(subject, evaluation=mutant)
    assert report.rule_ids() == {"EV003"}


def test_inverted_bounds_fire_ev003_and_ev002(subject):
    _, _, _, bounds = subject
    mutant = dataclasses.replace(bounds, lower=bounds.upper + 1.0)
    report = validate(subject, bounds=mutant)
    # An empty interval is inconsistent (EV003) and cannot contain the
    # simulated time (EV002) — both obligations fail, exactly.
    assert report.rule_ids() == {"EV002", "EV003"}
    (finding,) = findings_for(report, "EV003")
    assert "lower > upper" in finding.message


# ----------------------------------------------------------------------
# EV004 — phase boundaries must tile each stage window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_disordered_phases_fire_ev004(subject, seed):
    _, _, evaluation, _ = subject
    stage = random.Random(seed).randrange(evaluation.num_stages)
    phases = list(evaluation.phases)
    broken = dataclasses.replace(
        phases[stage], warmup_end=phases[stage].steady_end + 1.0
    )
    assert not broken.ordered()
    phases[stage] = broken
    mutant = dataclasses.replace(evaluation, phases=tuple(phases))
    report = validate(subject, evaluation=mutant)
    assert report.rule_ids() == {"EV004"}
    (finding,) = findings_for(report, "EV004")
    assert finding.stage == stage
    assert f"warmup_end: {broken.warmup_end!r}" in finding.witness


@pytest.mark.parametrize("seed", SEEDS)
def test_phase_end_off_stage_end_fires_ev004(subject, seed):
    _, _, evaluation, _ = subject
    stage = random.Random(seed).randrange(evaluation.num_stages)
    phases = list(evaluation.phases)
    broken = dataclasses.replace(phases[stage], end=phases[stage].end + 1.0)
    assert broken.ordered()  # still ordered — the tiling is what breaks
    phases[stage] = broken
    mutant = dataclasses.replace(evaluation, phases=tuple(phases))
    report = validate(subject, evaluation=mutant)
    assert report.rule_ids() == {"EV004"}
    (finding,) = findings_for(report, "EV004")
    assert finding.stage == stage
