"""The multi-process pipeline executor (repro.pipeline.parallel_runtime).

The contract under test: :class:`ParallelPipelineRuntime` is the serial
:class:`PipelineRuntime` with real concurrency — gradients, loss, op
counts, and per-stage memory peaks are **bit-for-bit identical** across
the full E0 schedule grid; comm/wgrad overlap becomes a measured
wall-clock quantity; and a failing worker surfaces as a diagnosable
:class:`ScheduleError` with no orphan processes or leaked shared-memory
segments.

Stage workers are forked and bring gradients home through an anonymous
shared mapping, so the hazards of forking (locks held by other parent
threads, inherited signal handlers and ``atexit`` hooks) and the
transport's failure semantics (a failed run leaves the model's
gradients untouched, nothing stays mapped) are under test too.
"""

import atexit
import glob
import multiprocessing as mp
import os
import pickle
import signal
import sys
import threading

import numpy as np
import pytest

import repro.analysis.evaluate.core as evaluate_core
import repro.pipeline.parallel_runtime as parallel_runtime
from repro.analysis.evaluate import evaluate_schedule
from repro.data import token_batches
from repro.model import tiny_spec
from repro.nn import Adam, build_model
from repro.pipeline import FaultSpec, ParallelPipelineRuntime, PipelineRuntime
from repro.pipeline.channels import ChannelKey, create_channel
from repro.schedules import (
    ScheduleError,
    build_problem,
    build_schedule,
    mepipe_schedule,
)
from repro.schedules.base import OpKind
from repro.schedules.greedy import build_facts
from repro.schedules.verify import assert_clean
from repro.sim import UniformCost

from tests.test_pipeline_runtime import ALL_METHODS

SPEC = tiny_spec(hidden_size=32, num_layers=6, num_heads=4,
                 ffn_hidden_size=64, vocab_size=31, seq_length=16)
N, B = 4, 2

@pytest.fixture(scope="module")
def data():
    return token_batches(SPEC.vocab_size, N, B, SPEC.seq_length, seed=5)


def build(method, p=4, **kwargs):
    problem = build_problem(method, p, N, **kwargs)
    return build_schedule(method, problem)


def run_serial(schedule, data):
    tokens, targets = data
    model = build_model(SPEC, seed=11)
    result = PipelineRuntime(model, tokens, targets).run(schedule)
    return model, result


def run_parallel(schedule, data, timeout=60.0, **kwargs):
    tokens, targets = data
    model = build_model(SPEC, seed=11)
    runtime = ParallelPipelineRuntime(model, tokens, targets, timeout=timeout)
    result = runtime.run(schedule, **kwargs)
    return model, result


def shm_leftovers():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return glob.glob("/dev/shm/repro*")


def stage_workers():
    return [p for p in mp.active_children() if p.name.startswith("repro-stage")]


def grad_bytes(model):
    return {key: grad.tobytes() for key, grad in model.named_grads().items()}


def changed_grads(model, before):
    return [key for key, raw in grad_bytes(model).items() if raw != before[key]]


def shared_anonymous_mappings():
    """Live ``mmap(-1, …)`` shared mappings of this process."""
    with open("/proc/self/maps") as maps:
        return sum("/dev/zero (deleted)" in line for line in maps)


def assert_same_grads(model, reference):
    expected = reference.named_grads()
    for key, grad in model.named_grads().items():
        assert np.array_equal(grad, expected[key]), key


class TestBitExactness:
    """Parallel == serial, bit for bit, across the E0 grid."""

    @pytest.mark.parametrize("method,kwargs", ALL_METHODS,
                             ids=[f"{m}-{k}" for m, k in ALL_METHODS])
    def test_matches_serial_golden(self, data, method, kwargs):
        schedule = build(method, **kwargs)
        serial_model, serial = run_serial(schedule, data)
        parallel_model, parallel = run_parallel(schedule, data)

        assert parallel.loss == serial.loss  # bit-identical, not approx
        serial_grads = serial_model.named_grads()
        for key, grad in parallel_model.named_grads().items():
            assert np.array_equal(grad, serial_grads[key]), key
        assert parallel.ops_executed == serial.ops_executed
        assert parallel.stage_peak_bytes == serial.stage_peak_bytes
        assert parallel.peak_live_contexts == serial.peak_live_contexts
        assert parallel.executor == "parallel"
        assert serial.executor == "serial"

    def test_comm_volume_matches_serial(self, data):
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        _m, serial = run_serial(schedule, data)
        _m, parallel = run_parallel(schedule, data)
        assert parallel.comms.messages == serial.comms.messages
        assert parallel.comms.bytes_total == serial.comms.bytes_total

    def test_accumulates_across_iterations_without_init_grads(self, data):
        """The staged buffers start from the model's current gradients:
        two runs back to back add up exactly as two serial ones do."""
        tokens, targets = data
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        models = {}
        for cls in (PipelineRuntime, ParallelPipelineRuntime):
            model = models[cls] = build_model(SPEC, seed=11)
            runtime = cls(model, tokens, targets)
            runtime.run(schedule)
            runtime.run(schedule)
        assert_same_grads(models[ParallelPipelineRuntime], models[PipelineRuntime])
        once = run_serial(schedule, data)[0].named_grads()
        twice = models[PipelineRuntime].named_grads()
        assert any(not np.array_equal(twice[key], once[key]) for key in once)

    def test_training_loop_matches_serial(self, data):
        """Gradient merge composes with Adam across iterations."""
        tokens, targets = data
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)

        losses = {}
        for cls in (PipelineRuntime, ParallelPipelineRuntime):
            model = build_model(SPEC, seed=11)
            runtime = cls(model, tokens, targets)
            optimizer = Adam(model, lr=3e-3)
            trail = []
            for _step in range(3):
                trail.append(runtime.run(schedule).loss)
                optimizer.step()
            losses[cls.__name__] = trail
        assert losses["ParallelPipelineRuntime"] == losses["PipelineRuntime"]


class TestBuildFactsSurviveARun:
    def test_a_run_leaves_a_greedy_build_priced_from_its_timeline(
        self, data, monkeypatch
    ):
        """A greedy build is frozen, so no reader — of its ``OpId``
        programs, its op count, the full verifier, either runtime —
        disowns its build facts: its committed timeline still prices
        it."""
        problem = build_problem("mepipe", 2, N, num_slices=2, wgrad_gemms=2)
        schedule = mepipe_schedule(problem)  # fresh: not the memo's object
        assert build_facts(schedule) is not None
        assert schedule.programs
        assert schedule.op_count() == len(problem.all_ops())
        assert_clean(schedule, method="mepipe")
        run_serial(schedule, data)
        run_parallel(schedule, data)
        assert build_facts(schedule) is not None
        replays = []
        monkeypatch.setattr(
            evaluate_core, "dense_schedule_times",
            lambda *args: replays.append(args),
        )
        evaluate_schedule(schedule, UniformCost(problem))
        assert replays == []


class TestMeasuredOverlap:
    def test_wgrad_overlap_is_nonzero(self, data):
        """On a split-backward schedule with >= 2 stages, deferred W ops
        measurably execute while channel receives are pending."""
        schedule = build("mepipe", p=2, num_slices=4, wgrad_gemms=3)
        _m, result = run_parallel(schedule, data)
        assert result.overlap_w_seconds > 0.0
        assert any(s.wait_seconds > 0.0 for s in result.stage_stats)
        # Overlapped W time is part of busy time, never double-counted.
        for s in result.stage_stats:
            assert s.overlap_w_seconds <= s.busy_seconds + 1e-9

    def test_wall_clock_and_bubble_are_measured(self, data):
        schedule = build("mepipe", p=2, num_slices=4, wgrad_gemms=3)
        _m, result = run_parallel(schedule, data)
        assert result.wall_seconds > 0.0
        assert 0.0 <= result.bubble_ratio < 1.0
        for s in result.stage_stats:
            assert 0.0 < s.busy_seconds <= result.wall_seconds
        # Per-stage records stay within the iteration window, in order.
        for stage in range(2):
            records = result.stage_records(stage)
            starts = [r.start for r in records]
            assert starts == sorted(starts)
            assert all(r.end <= result.wall_seconds + 1e-6 for r in records)


class TestFailureHandling:
    def test_worker_exception_surfaces_with_traceback(self, data):
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        tokens, targets = data
        model = build_model(SPEC, seed=11)
        runtime = ParallelPipelineRuntime(model, tokens, targets, timeout=20.0)
        with pytest.raises(ScheduleError, match="injected fault"):
            runtime.run(schedule, fault=FaultSpec(stage=1, op_index=0))
        assert not any(
            p.name.startswith("repro-stage") for p in mp.active_children()
        )
        assert shm_leftovers() == []

    def test_killed_worker_surfaces_without_hang(self, data):
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        tokens, targets = data
        model = build_model(SPEC, seed=11)
        runtime = ParallelPipelineRuntime(model, tokens, targets, timeout=20.0)
        with pytest.raises(ScheduleError, match="died without reporting"):
            runtime.run(
                schedule, fault=FaultSpec(stage=1, op_index=2, mode="exit")
            )
        assert not any(
            p.name.startswith("repro-stage") for p in mp.active_children()
        )
        assert shm_leftovers() == []

    @pytest.mark.parametrize("mode", ["raise", "exit", "hang"])
    def test_failed_run_leaves_gradients_untouched(self, data, mode):
        """Workers had already accumulated into the staged buffers when
        the fault fired; the model adopts them only after every stage
        reported ok, so its own gradients are byte-for-byte unchanged."""
        tokens, targets = data
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        model = build_model(SPEC, seed=11)
        PipelineRuntime(model, tokens, targets).run(schedule)  # nonzero grads
        before = grad_bytes(model)
        program = schedule.programs[1].ops
        first_w = next(i for i, op in enumerate(program) if op.kind is OpKind.W)
        # An F/B op (a run-ahead W is skipped at its program position,
        # and the fault with it) after the stage's first weight update.
        after_first_w = next(
            i for i in range(first_w + 1, len(program))
            if program[i].kind is not OpKind.W
        )
        runtime = ParallelPipelineRuntime(model, tokens, targets, timeout=2.0)
        staged_before = shared_anonymous_mappings()
        with pytest.raises(ScheduleError) as failure:
            runtime.run(
                schedule,
                fault=FaultSpec(stage=1, op_index=after_first_w, mode=mode),
            )
        assert changed_grads(model, before) == []
        # Released by the run itself, not by the traceback going away.
        assert failure.traceback and shared_anonymous_mappings() == staged_before
        assert stage_workers() == []
        assert shm_leftovers() == []

    def test_inherited_sigterm_handler_does_not_shield_a_hung_worker(
        self, data, tmp_path
    ):
        """An embedding process's SIGTERM handler is inherited through
        fork; workers reset it, so the parent's terminate() lands."""
        tokens, targets = data
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        parent, marker = os.getpid(), tmp_path / "handled-in-worker"

        def handler(signum, frame):
            if os.getpid() != parent:
                marker.write_text(str(os.getpid()))

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            runtime = ParallelPipelineRuntime(
                build_model(SPEC, seed=11), tokens, targets, timeout=2.0)
            with pytest.raises(ScheduleError, match="timed out"):
                runtime.run(
                    schedule, fault=FaultSpec(stage=0, op_index=1, mode="hang"))
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert not marker.exists()
        assert stage_workers() == []
        assert shm_leftovers() == []

    def test_channel_construction_failure_leaks_no_segment(
        self, data, monkeypatch
    ):
        """The rings made before the failing one are unlinked."""
        tokens, targets = data
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        calls = []

        def second_call_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return create_channel(*args)

        monkeypatch.setattr(parallel_runtime, "create_channel", second_call_fails)
        model = build_model(SPEC, seed=11)
        before = grad_bytes(model)
        with pytest.raises(OSError, match="No space left"):
            ParallelPipelineRuntime(model, tokens, targets).run(schedule)
        assert len(calls) == 2
        assert shm_leftovers() == []
        assert changed_grads(model, before) == []

    def test_semaphore_failure_unlinks_the_segment_it_follows(self):
        class NoSemaphores:
            def Semaphore(self, value):
                raise OSError(24, "Too many open files")

        with pytest.raises(OSError, match="Too many open files"):
            create_channel(
                ChannelKey(0, 1, "F"), 2, 64, NoSemaphores(), "reprotest", 0)
        assert shm_leftovers() == []

    def test_platform_without_fork_is_told_to_use_the_serial_runtime(
        self, data, monkeypatch
    ):
        tokens, targets = data

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(parallel_runtime.mp, "get_context", no_fork)
        runtime = ParallelPipelineRuntime(build_model(SPEC, seed=11), tokens, targets)
        with pytest.raises(ScheduleError, match="PipelineRuntime"):
            runtime.run(build("dapple"))
        assert shm_leftovers() == []

    def test_shape_mismatch_raises_before_spawn(self, data):
        tokens, targets = data
        problem = build_problem("dapple", 4, N + 1)
        schedule = build_schedule("dapple", problem)
        runtime = ParallelPipelineRuntime(
            build_model(SPEC, seed=11), tokens, targets)
        with pytest.raises(ScheduleError, match="micro-batches"):
            runtime.run(schedule)


class TestForkSafety:
    def test_runs_beside_a_held_lock_a_live_pool_and_atexit_hooks(
        self, data, tmp_path
    ):
        """A worker is a fork of a threaded parent: it must not need a
        lock another thread holds, must leave the planner pool alone,
        and must exit without running the parent's atexit hooks."""
        from repro.planner import pool

        schedule = build("mepipe", p=2, num_slices=4, wgrad_gemms=3)
        lock, held, done = threading.Lock(), threading.Event(), threading.Event()

        def hold():
            with lock:
                held.set()
                done.wait()

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(5.0)
        parent, marker = os.getpid(), tmp_path / "atexit-ran-in-worker"

        def hook():
            if os.getpid() != parent:
                marker.write_text(str(os.getpid()))

        atexit.register(hook)
        try:
            assert pool.run_map(abs, [-1, -2, -3], jobs=2) == [1, 2, 3]
            # An earlier test may have left a larger shared pool behind;
            # what matters is that the fork leaves this one as it was.
            workers = pool.stats()["pool_workers"]
            if sys.version_info >= (3, 12):
                with pytest.warns(DeprecationWarning, match="fork"):
                    model, result = run_parallel(schedule, data)
            else:
                model, result = run_parallel(schedule, data)
            # The pool the workers were forked beside still serves.
            assert pool.stats()["pool_workers"] == workers
            assert pool.run_map(abs, [-4, -5], jobs=2) == [4, 5]
        finally:
            atexit.unregister(hook)
            done.set()
            holder.join(5.0)
            pool.shutdown()
        assert not holder.is_alive()
        serial_model, serial = run_serial(schedule, data)
        assert result.loss == serial.loss
        assert_same_grads(model, serial_model)
        assert not marker.exists()
        assert stage_workers() == []

    def test_twenty_iterations_leave_nothing_mapped(self, data):
        """The gradient staging is an anonymous mapping released every
        run: the process's map count and /dev/shm do not grow."""
        tokens, targets = data
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        runtime = ParallelPipelineRuntime(
            build_model(SPEC, seed=11), tokens, targets)

        def mappings():
            with open("/proc/self/maps") as maps:
                return len(maps.readlines())

        for _warm in range(2):
            runtime.run(schedule)
        maps_before, shm_before = mappings(), sorted(os.listdir("/dev/shm"))
        for _iteration in range(20):
            runtime.run(schedule)
        assert mappings() == maps_before
        assert sorted(os.listdir("/dev/shm")) == shm_before


class TestReportTransport:
    def test_report_carries_no_arrays_and_does_not_grow_with_the_model(
        self, monkeypatch
    ):
        """Gradients travel through shared pages; what a worker pickles
        back is the same number of bytes whatever the hidden size."""
        collected = []
        collect = ParallelPipelineRuntime._collect

        def spy(self, *args):
            reports = collect(self, *args)
            collected.append([pickle.dumps(report) for report in reports])
            return reports

        monkeypatch.setattr(ParallelPipelineRuntime, "_collect", spy)
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        for hidden in (64, 128):
            spec = tiny_spec(hidden_size=hidden, num_layers=6, num_heads=4,
                             ffn_hidden_size=2 * hidden, vocab_size=31,
                             seq_length=16)
            tokens, targets = token_batches(
                spec.vocab_size, N, B, spec.seq_length, seed=5)
            model = build_model(spec, seed=11)
            ParallelPipelineRuntime(model, tokens, targets).run(schedule)
        small, large = collected
        assert [len(blob) for blob in small] == [len(blob) for blob in large]
        for blob in small + large:
            assert b"numpy" not in blob
            assert not hasattr(pickle.loads(blob), "grads")


class TestTelemetry:
    def test_records_one_track_per_worker(self, data):
        from repro.obs.sinks import MemorySink

        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        tokens, targets = data
        model = build_model(SPEC, seed=11)
        sink = MemorySink()
        result = ParallelPipelineRuntime(model, tokens, targets).run(
            schedule, sink)

        spans = [e for e in sink.events if e.kind == "span"]
        assert {e.tid for e in spans} == {0, 1}  # one tid per worker
        assert len(spans) == result.ops_executed
        names = {e.name for e in sink.events if e.kind == "meta"}
        assert "thread_name" in names
        # The parallel executor emits its overlap/wait counter series.
        assert sink.counters("overlap_w_seconds")
        assert sink.counters("wait_seconds")

    def test_metrics_protocol_unchanged(self, data):
        schedule = build("mepipe", p=2, num_slices=2, wgrad_gemms=2)
        _m, result = run_parallel(schedule, data)
        metrics = result.metrics()
        assert metrics.source == "runtime"
        assert metrics.time_unit == "seconds"
        assert metrics.ops_executed == result.ops_executed
        assert len(metrics.span_table) == result.ops_executed


class TestTraceCLI:
    def test_trace_renders_parallel_next_to_sim(self, tmp_path, capsys):
        """`repro trace --substrate parallel` lays the measured parallel
        iteration alongside the simulated one, same viewer schema."""
        import json

        from repro.cli import main

        out = tmp_path / "trace.json"
        status = main([
            "trace", "mepipe", "--p", "2", "--n", "2", "--s", "2",
            "--wgrad-gemms", "2", "--substrate", "parallel",
            "--out", str(out),
        ])
        assert status == 0
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {0, 2}  # simulated + parallel-executed
        names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"simulated", "parallel"}
        # One op-span row per stage inside the parallel process group.
        parallel_tids = {
            e["tid"] for e in events if e["pid"] == 2 and e["ph"] == "X"
        }
        assert parallel_tids == {0, 1}
