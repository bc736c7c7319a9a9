"""Soundness of the capacity analyzer over the E0 acceptance grid.

For every grid config the inferred deadlock-free capacity vector must
let the bounded-channel simulator complete (or the verifier must emit a
CP witness), the inferred backpressure-free vector must reproduce the
unbounded run bit for bit, and the analytic ``bounded_dense_times``
replay must agree with the bounded event simulator exactly — the
max-plus exactness argument that backs every CP certificate.  The
parallel-runtime half asserts the end-to-end claim: rings sized at the
inferred capacities keep gradients bit-identical to the serial golden
runtime while shrinking the shared-memory footprint.
"""

import numpy as np
import pytest

from repro.analysis.capacity import (
    bounded_dense_times,
    certify_capacities,
    check_capacities,
    cross_validate_capacities,
    infer_capacities,
)
from repro.analysis.evaluate.dense import dense_schedule_times
from repro.data import token_batches
from repro.model import tiny_spec
from repro.nn import build_model
from repro.pipeline import ParallelPipelineRuntime, PipelineRuntime
from repro.schedules import ScheduleError, build_problem, build_schedule
from repro.schedules.graph import compiled_graph
from repro.schedules.verify import verify_schedule
from repro.sim import UniformCost, simulate

#: The E0 acceptance grid: every method at its native shape.
GRID = [
    ("dapple", {}),
    ("terapipe", {"num_slices": 4}),
    ("vpp", {"virtual_size": 2}),
    ("zb", {}),
    ("zbv", {"virtual_size": 2}),
    ("svpp", {"num_slices": 4, "virtual_size": 2}),
    ("mepipe", {"num_slices": 4, "wgrad_gemms": 3}),
]

IDS = [m for m, _ in GRID]

#: The golden shapes whose wrap channel is not FIFO (CH001 reorders):
#: their occupancy peaks along the unbounded plan close a cycle, so the
#: deadlock-free descent starts from the message counts instead.
NON_FIFO = [
    (method, {"p": p, "num_slices": 4, "virtual_size": 2, "wgrad_gemms": g})
    for method, g in (("svpp", 1), ("mepipe", 2))
    for p in (4, 8)
]
NON_FIFO_IDS = [f"{m}-p{kwargs['p']}-non-fifo" for m, kwargs in NON_FIFO]


def build(method, p=4, n=8, **kwargs):
    problem = build_problem(method, p, n, **kwargs)
    return build_schedule(method, problem)


@pytest.fixture(
    scope="module", params=GRID + NON_FIFO, ids=IDS + NON_FIFO_IDS
)
def subject(request):
    method, kwargs = request.param
    schedule = build(method, **kwargs)
    cost = UniformCost(schedule.problem, tw=0.5)
    plan = infer_capacities(schedule, cost)
    return schedule, cost, plan


class TestGridSoundness:
    def test_deadlock_free_caps_certify_clean(self, subject):
        schedule, cost, plan = subject
        report = check_capacities(
            schedule, capacities=plan.capacities("deadlock-free")
        )
        assert report.ok, report.render_text()
        assert report.checked_rules == ("CP001", "CP002")

    def test_deadlock_free_caps_complete_or_witness(self, subject):
        """Acceptance criterion: the bounded sim at the inferred
        deadlock-free capacities completes bit-for-bit with the
        unbounded run, or the verifier names the backpressure."""
        schedule, cost, plan = subject
        caps = plan.capacities("deadlock-free")
        unbounded = simulate(schedule, cost)
        bounded = simulate(schedule, cost, channel_capacities=caps)
        assert set(bounded.records) == set(unbounded.records)
        assert bounded.makespan >= unbounded.makespan
        report = check_capacities(schedule, capacities=caps, cost=cost)
        if bounded.makespan == unbounded.makespan:
            for op, rec in unbounded.records.items():
                brec = bounded.records[op]
                assert (brec.start, brec.end) == (rec.start, rec.end)
            assert report.ok, report.render_text()
        else:
            (finding,) = report.findings
            assert finding.rule_id == "CP003"
            assert any(
                "unbounded makespan" in line for line in finding.witness
            )

    def test_backpressure_free_caps_are_bit_exact(self, subject):
        schedule, cost, plan = subject
        caps = plan.capacities("backpressure-free")
        unbounded = simulate(schedule, cost)
        bounded = simulate(schedule, cost, channel_capacities=caps)
        assert bounded.makespan == unbounded.makespan
        for op, rec in unbounded.records.items():
            brec = bounded.records[op]
            assert (brec.start, brec.end) == (rec.start, rec.end)

    def test_analytic_replay_matches_bounded_sim_exactly(self, subject):
        """``bounded_dense_times`` and the bounded event simulator are
        two evaluation orders of the same max-plus recurrence; IEEE max
        is exact, so they agree bit for bit — at the backpressure-free
        caps AND at the tighter deadlock-free caps."""
        schedule, cost, plan = subject
        graph = compiled_graph(schedule)
        times = dense_schedule_times(graph, cost)
        for mode in ("deadlock-free", "backpressure-free"):
            caps = plan.capacities(mode)
            analytic = bounded_dense_times(graph, caps, times=times)
            sim = simulate(schedule, cost, channel_capacities=caps)
            by_index = {
                (graph.ops[i]): (float(analytic.start[i]), float(analytic.end[i]))
                for i in range(graph.num_ops)
            }
            for op, rec in sim.records.items():
                assert by_index[op] == (rec.start, rec.end), (mode, op)

    def test_certificate_cross_validates(self, subject):
        schedule, cost, plan = subject
        for mode in ("deadlock-free", "backpressure-free"):
            certificate = certify_capacities(schedule, cost, mode=mode)
            report = cross_validate_capacities(schedule, cost, certificate)
            assert report.ok, report.render_text()
            assert report.checked_rules == (
                "CP001", "CP002", "CP003", "CP004",
            )
            if mode == "backpressure-free":
                assert certificate.backpressure_free
                assert certificate.makespan == plan.unbounded_makespan

    def test_deadlock_free_caps_are_componentwise_minimal(self, subject):
        """Lowering any single channel below its inferred capacity must
        deadlock (CP001) or become invalid (CP002) — the documented
        componentwise-local minimality guarantee."""
        schedule, cost, plan = subject
        caps = plan.capacities("deadlock-free")
        for key in caps:
            starved = dict(caps)
            starved[key] -= 1
            report = check_capacities(schedule, capacities=starved)
            assert not report.ok, (key, report.render_text())
            rule = "CP002" if starved[key] < 1 else "CP001"
            assert rule in report.rule_ids(), (key, report.render_text())

    def test_full_caps_carry_every_message(self, subject):
        schedule, cost, plan = subject
        full = plan.capacities("full")
        dl = plan.capacities("deadlock-free")
        bp = plan.capacities("backpressure-free")
        assert set(full) == set(dl) == set(bp)
        for channel in plan.channels:
            assert full[channel.key] == channel.messages
            assert 1 <= dl[channel.key] <= channel.messages
            assert 1 <= bp[channel.key] <= channel.messages

    def test_starved_sim_raises_schedule_error(self, subject):
        schedule, cost, plan = subject
        caps = plan.capacities("deadlock-free")
        key = min(k for k, v in caps.items() if v >= 1)
        starved = dict(caps)
        starved[key] = 0
        with pytest.raises(ScheduleError, match="capacity"):
            simulate(schedule, cost, channel_capacities=starved)


@pytest.mark.parametrize("method,kwargs", NON_FIFO, ids=NON_FIFO_IDS)
def test_occupancy_peaks_deadlock_on_non_fifo_shapes(method, kwargs):
    schedule = build(method, **kwargs)
    assert verify_schedule(schedule).by_rule("CH001")
    plan = infer_capacities(schedule)
    peaks = {c.key: c.occupancy_peak for c in plan.channels}
    report = check_capacities(schedule, capacities=peaks)
    assert report.rule_ids() == {"CP001"}, report.render_text()


# ----------------------------------------------------------------------
# End-to-end: the parallel runtime at inferred capacities
# ----------------------------------------------------------------------
SPEC = tiny_spec(
    hidden_size=32,
    num_layers=6,
    num_heads=4,
    ffn_hidden_size=64,
    vocab_size=31,
    seq_length=16,
)
N, B = 4, 2


@pytest.fixture(scope="module")
def data():
    return token_batches(SPEC.vocab_size, N, B, SPEC.seq_length, seed=5)


def run_serial(schedule, data):
    tokens, targets = data
    model = build_model(SPEC, seed=11)
    result = PipelineRuntime(model, tokens, targets).run(schedule)
    return model, result


def parallel_runtime(data, timeout=60.0):
    tokens, targets = data
    model = build_model(SPEC, seed=11)
    return model, ParallelPipelineRuntime(model, tokens, targets,
                                          timeout=timeout)


class TestParallelRuntimeAtInferredCaps:
    def test_explicit_inferred_caps_match_serial_golden(self, data):
        schedule = build("mepipe", n=N, num_slices=4, wgrad_gemms=3)
        serial_model, golden = run_serial(schedule, data)
        parallel_model, runtime = parallel_runtime(data)
        plan = infer_capacities(schedule)
        result = runtime.run(
            schedule, capacity_mode=plan.capacities("deadlock-free")
        )
        assert result.loss == golden.loss
        serial_grads = serial_model.named_grads()
        grads = parallel_model.named_grads()
        assert set(grads) == set(serial_grads)
        for key, grad in grads.items():
            assert np.array_equal(grad, serial_grads[key]), key

    def test_stats_carry_ring_ledger(self, data):
        from repro.analysis.capacity import ring_bytes_per_stage
        from repro.pipeline.channels import _HEADER_BYTES

        schedule = build("mepipe", n=N, num_slices=4, wgrad_gemms=3)
        _, runtime = parallel_runtime(data)
        slots, total = runtime.plan_channels(schedule, capacity_mode="auto")
        result = runtime.run(schedule, capacity_mode="auto")
        slot_bytes = _HEADER_BYTES + runtime._payload_bytes(schedule.problem)
        expected = ring_bytes_per_stage(
            {(k.src_stage, k.dst_stage, k.kind): n for k, n in slots.items()},
            schedule.problem.num_stages,
            slot_bytes,
        )
        stamped = [s.channel_buffer_bytes for s in result.stage_stats]
        assert stamped == list(expected)
        assert sum(stamped) == total
        assert total > 0

    def test_serial_runtime_ledger_stays_zero(self, data):
        schedule = build("dapple", n=N)
        _, result = run_serial(schedule, data)
        assert all(s.channel_buffer_bytes == 0 for s in result.stage_stats)

    def test_auto_footprint_beats_full(self, data):
        _, runtime = parallel_runtime(data)
        total_auto = total_full = 0
        for method, kwargs in GRID:
            schedule = build(method, n=N, **kwargs)
            _, auto_bytes = runtime.plan_channels(
                schedule, capacity_mode="auto"
            )
            _, full_bytes = runtime.plan_channels(
                schedule, capacity_mode="full"
            )
            assert 0 < auto_bytes < full_bytes, schedule.name
            total_auto += auto_bytes
            total_full += full_bytes
        # Structural, not a measurement: ring slots drop from one per
        # message to the small inferred bound.
        assert 1.0 - total_auto / total_full > 0.5

    def test_ledger_matches_memory_analyzer(self, data):
        from repro.analysis.capacity import ring_bytes_per_stage
        from repro.pipeline.channels import _HEADER_BYTES

        schedule = build("mepipe", n=N, num_slices=4, wgrad_gemms=3)
        _, runtime = parallel_runtime(data)
        slots, total = runtime.plan_channels(schedule, capacity_mode="auto")
        per_stage = ring_bytes_per_stage(
            slots,
            schedule.problem.num_stages,
            _HEADER_BYTES + runtime._payload_bytes(schedule.problem),
        )
        assert sum(per_stage) == total

    def test_refuses_to_spawn_on_starved_caps(self, data):
        schedule = build("mepipe", n=N, num_slices=4, wgrad_gemms=3)
        _, runtime = parallel_runtime(data)
        plan = infer_capacities(schedule)
        starved = plan.capacities("deadlock-free")
        key = min(starved)
        starved[key] = 0
        with pytest.raises(ScheduleError, match="refused to spawn"):
            runtime.run(schedule, capacity_mode=starved)

    def test_unknown_mode_is_rejected(self, data):
        schedule = build("dapple", n=N)
        _, runtime = parallel_runtime(data)
        with pytest.raises(ScheduleError, match="capacity_mode"):
            runtime.resolve_capacities(schedule, "bogus")


class TestTimeoutKnob:
    def test_default_without_env(self, monkeypatch):
        from repro.pipeline.channels import (
            DEFAULT_CHANNEL_TIMEOUT,
            default_channel_timeout,
        )

        monkeypatch.delenv("REPRO_CHANNEL_TIMEOUT", raising=False)
        assert default_channel_timeout() == DEFAULT_CHANNEL_TIMEOUT

    def test_env_override_reaches_runtime(self, monkeypatch, data):
        from repro.pipeline.channels import default_channel_timeout

        monkeypatch.setenv("REPRO_CHANNEL_TIMEOUT", "12.5")
        assert default_channel_timeout() == 12.5
        tokens, targets = data
        runtime = ParallelPipelineRuntime(
            build_model(SPEC, seed=11), tokens, targets
        )
        assert runtime.timeout == 12.5

    def test_explicit_timeout_wins(self, monkeypatch, data):
        monkeypatch.setenv("REPRO_CHANNEL_TIMEOUT", "12.5")
        tokens, targets = data
        runtime = ParallelPipelineRuntime(
            build_model(SPEC, seed=11), tokens, targets, timeout=3.0
        )
        assert runtime.timeout == 3.0

    @pytest.mark.parametrize("raw", ["nope", "0", "-1"])
    def test_bad_values_are_rejected(self, monkeypatch, raw):
        from repro.pipeline.channels import default_channel_timeout

        monkeypatch.setenv("REPRO_CHANNEL_TIMEOUT", raw)
        with pytest.raises(ScheduleError, match="REPRO_CHANNEL_TIMEOUT"):
            default_channel_timeout()
