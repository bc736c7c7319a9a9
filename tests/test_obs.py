"""The unified telemetry bus (``repro.obs``) and the result/metrics API.

Covers the event primitives and span-nesting invariants, the concrete
sinks (memory, JSONL round-trip, Chrome trace), golden compatibility of
the Chrome export with the pre-``repro.obs`` exporter's output over the
whole E0 method grid, sim-vs-runtime trace alignment (the two
substrates emit the same op rows), and the instrumentation hooks of all
four substrates (simulator, runtime, profiler, planner).
"""

import io
import json

import pytest

from repro.data import token_batches
from repro.model import tiny_spec
from repro.nn import build_model
from repro.obs import (
    NULL_SINK,
    ChromeTraceSink,
    Event,
    IterationMetrics,
    JsonlSink,
    MemorySink,
    ObsError,
    PipelineResult,
    TeeSink,
    chrome_trace,
    read_jsonl,
    record_iteration,
    schedule_comm_log,
    sim_chrome_trace,
    write_sim_trace,
)
from repro.pipeline import PipelineRuntime
from repro.schedules import build_problem, build_schedule
from repro.sim import UniformCost, simulate

from tests.test_verify import golden_grid

SPEC = tiny_spec(hidden_size=32, num_layers=6, num_heads=4,
                 ffn_hidden_size=64, vocab_size=31, seq_length=16)
N, B, P = 4, 2, 4


def _mepipe_schedule(p=2):
    problem = build_problem("mepipe", p, N, num_slices=2, wgrad_gemms=3)
    return build_schedule("mepipe", problem)


def _run_runtime(schedule, sink=NULL_SINK, seed=11):
    tokens, targets = token_batches(
        SPEC.vocab_size, N, B, SPEC.seq_length, seed=5)
    model = build_model(SPEC, seed=seed)
    return PipelineRuntime(model, tokens, targets).run(schedule, sink=sink)


def last_counter(sink, name, tid=0):
    """Last sample of one counter series on one track."""
    return [e.value for e in sink.counters(name) if e.tid == tid][-1]


# ----------------------------------------------------------------------
# Event primitives
# ----------------------------------------------------------------------
class TestEvent:
    def test_round_trip(self):
        event = Event(kind="span", name="F0.1", ts=1.5, dur=0.5, tid=2,
                      pid=1, cat="F", args={"microbatch": 0, "slice": 1})
        assert Event.from_dict(event.to_dict()) == event

    def test_round_trip_defaults(self):
        event = Event(kind="instant", name="x")
        assert Event.from_dict(event.to_dict()) == event

    def test_arg_and_end(self):
        event = Event(kind="span", name="op", ts=2.0, dur=3.0,
                      args={"chunk": 7})
        assert event.arg("chunk") == 7
        assert event.arg("missing") is None
        assert event.end == 5.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObsError):
            Event(kind="bogus", name="x")

    def test_events_are_hashable(self):
        assert len({Event(kind="meta", name="a", args={"k": 1})} |
                   {Event(kind="meta", name="a", args={"k": 1})}) == 1


# ----------------------------------------------------------------------
# Span begin/end invariants
# ----------------------------------------------------------------------
class TestSpanNesting:
    def test_nested_spans_are_contained(self):
        sink = MemorySink()
        sink.begin("outer", ts=0.0, tid=1)
        sink.begin("inner", ts=1.0, tid=1)
        sink.end(ts=2.0, tid=1)
        sink.end(ts=5.0, tid=1)
        inner, outer = sink.spans()
        assert (inner.name, outer.name) == ("inner", "outer")
        assert outer.ts <= inner.ts and inner.end <= outer.end

    def test_tracks_are_independent(self):
        sink = MemorySink()
        sink.begin("a", ts=0.0, tid=0)
        sink.begin("b", ts=0.0, tid=1)
        sink.end(ts=1.0, tid=1)
        sink.end(ts=2.0, tid=0)
        assert [s.name for s in sink.spans()] == ["b", "a"]

    def test_unbalanced_end_raises(self):
        with pytest.raises(ObsError, match="end without begin"):
            MemorySink().end(ts=1.0)

    def test_backwards_time_raises(self):
        sink = MemorySink()
        sink.begin("x", ts=5.0)
        with pytest.raises(ObsError, match="before it begins"):
            sink.end(ts=1.0)

    def test_close_with_open_span_raises(self):
        sink = MemorySink()
        sink.begin("x", ts=0.0)
        with pytest.raises(ObsError, match="still open"):
            sink.close()

    def test_context_manager_closes_cleanly(self):
        with MemorySink() as sink:
            sink.begin("x", ts=0.0)
            sink.end(ts=1.0)
        assert len(sink.spans()) == 1


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestMemorySink:
    def test_orders_and_filters(self):
        sink = MemorySink()
        sink.span("s", ts=0.0, dur=1.0)
        sink.instant("i", ts=0.5)
        sink.counter("c", 3.0, ts=1.0, tid=2)
        sink.counter("c", 4.0, ts=2.0, tid=2)
        assert [e.kind for e in sink.events] == ["span", "instant",
                                                 "counter", "counter"]
        assert len(sink.spans()) == 1
        assert len(sink.counters("c")) == 2
        assert last_counter(sink, "c", tid=2) == 4.0
        assert {e.tid for e in sink.counters("c")} == {2}
        sink.clear()
        assert sink.events == []


class TestJsonlRoundTrip:
    def test_stream_and_read_back(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.span("op", ts=1.0, dur=2.0, tid=1, cat="F",
                  args={"microbatch": 3})
        sink.instant("send", ts=2.5, tid=0, cat="channel")
        sink.counter("bytes", 42.0, ts=3.0)
        sink.thread_name(1, "stage 1")
        sink.close()
        before = [json.loads(line) for line in path.read_text().splitlines()]
        events = read_jsonl(path)
        assert [e.kind for e in events] == ["span", "instant", "counter",
                                            "meta"]
        assert [e.to_dict() for e in events] == before

    def test_accepts_file_object(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.span("x", ts=0.0, dur=1.0)
        events = read_jsonl(buf.getvalue().splitlines())
        assert events[0].name == "x"

    def test_full_iteration_round_trips(self, tmp_path):
        schedule = _mepipe_schedule()
        result = simulate(schedule, UniformCost(schedule.problem))
        memory = MemorySink()
        path = tmp_path / "iter.jsonl"
        jsonl = JsonlSink(path)
        record_iteration(result, TeeSink(memory, jsonl))
        jsonl.close()
        assert read_jsonl(path) == memory.events


# ----------------------------------------------------------------------
# Chrome trace: golden compatibility with the legacy exporter
# ----------------------------------------------------------------------
def _legacy_chrome_trace(result, time_unit_us=1e6):
    """The exact pre-``repro.obs`` ``viz.trace.to_chrome_trace`` logic."""
    colors = {"F": "thread_state_running", "B": "thread_state_iowait",
              "W": "thread_state_runnable"}
    events = []
    for stage in range(result.problem.num_stages):
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": stage, "args": {"name": f"stage {stage}"}})
        for record in result.stage_records(stage):
            op = record.op
            events.append({
                "name": str(op),
                "cat": op.kind.value,
                "ph": "X",
                "pid": 0,
                "tid": stage,
                "ts": record.start * time_unit_us,
                "dur": max(record.duration * time_unit_us, 0.01),
                "cname": colors[op.kind.value],
                "args": {"microbatch": op.microbatch, "slice": op.slice_idx,
                         "chunk": op.chunk},
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schedule": result.schedule_name,
            "bubble_ratio": round(result.bubble_ratio, 6),
            "peak_activation_units": round(result.peak_activation_units, 6),
        },
    }


class TestChromeGolden:
    def test_matches_legacy_output_on_e0_grid(self):
        from repro.experiments.e0 import METHOD_SETUPS

        for method, kwargs in METHOD_SETUPS:
            problem = build_problem(method, P, N, **kwargs)
            schedule = build_schedule(method, problem)
            result = simulate(schedule, UniformCost(problem, tw=1.0))
            assert sim_chrome_trace(result) == _legacy_chrome_trace(result), \
                method

    def test_write_sim_trace_round_trips(self, tmp_path):
        schedule = _mepipe_schedule()
        result = simulate(schedule, UniformCost(schedule.problem))
        path = write_sim_trace(result, tmp_path / "t.json")
        assert json.loads(path.read_text()) == sim_chrome_trace(result)

    def test_chrome_trace_renders_all_kinds(self):
        events = [
            Event(kind="meta", name="process_name", pid=1,
                  args={"name": "sim"}),
            Event(kind="span", name="op", ts=1.0, dur=0.0, cat="F"),
            Event(kind="instant", name="send", ts=1.0, cat="channel"),
            Event(kind="counter", name="bytes", ts=2.0, value=7.0),
        ]
        trace = chrome_trace(events, colors={"F": "blue"})
        meta, span, instant, counter = trace["traceEvents"]
        assert meta["ph"] == "M"
        assert span["ph"] == "X" and span["dur"] == 0.01  # floored
        assert span["cname"] == "blue"
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert counter["ph"] == "C" and counter["args"] == {"value": 7.0}

    def test_chrome_trace_sink_writes_on_close(self, tmp_path):
        path = tmp_path / "trace.json"
        with ChromeTraceSink(path, other_data={"k": 1}) as sink:
            sink.span("op", ts=0.0, dur=1.0, cat="F")
        trace = json.loads(path.read_text())
        assert trace["otherData"] == {"k": 1}
        assert trace["traceEvents"][0]["cname"] == "thread_state_running"


# ----------------------------------------------------------------------
# Sim vs runtime: one bus, aligned traces, one metrics API
# ----------------------------------------------------------------------
class TestSubstrateAlignment:
    @pytest.fixture(scope="class")
    def both(self):
        schedule = _mepipe_schedule(p=P)
        sim_result = simulate(schedule, UniformCost(schedule.problem))
        run_result = _run_runtime(schedule)
        return schedule, sim_result, run_result

    def test_results_satisfy_protocol(self, both):
        _, sim_result, run_result = both
        assert isinstance(sim_result, PipelineResult)
        assert isinstance(run_result, PipelineResult)

    def test_same_ops_per_stage(self, both):
        _, sim_result, run_result = both
        for stage in range(P):
            sim_ops = sorted(str(r.op) for r in sim_result.stage_records(stage))
            run_ops = sorted(str(r.op) for r in run_result.stage_records(stage))
            assert sim_ops == run_ops

    def test_traces_align_row_for_row(self, both):
        _, sim_result, run_result = both
        sim_sink, run_sink = MemorySink(), MemorySink()
        record_iteration(sim_result, sim_sink)
        record_iteration(run_result, run_sink)

        def layout(sink):
            return {
                (e.tid, e.name, e.cat)
                for e in sink.events if e.kind in ("span", "instant")
            }

        assert layout(sim_sink) == layout(run_sink)

    def test_comm_volume_agrees(self, both):
        schedule, sim_result, run_result = both
        sim_comms = sim_result.comm_volume
        run_comms = run_result.comm_volume
        assert sim_comms.message_count == run_comms.message_count
        assert sim_comms.messages == run_comms.messages
        derived = schedule_comm_log(schedule.problem)
        assert derived.messages == run_comms.messages

    def test_comm_bytes_match_when_stamped(self, both):
        schedule, sim_result, run_result = both
        per_message = run_result.comms.bytes_total / run_result.comms.message_count
        sim_result.comm_bytes_per_message = per_message
        sim_result._comm_volume = None  # invalidate the lazy log
        assert sim_result.comm_volume.bytes_total == run_result.comms.bytes_total

    def test_metrics_are_uniform(self, both):
        _, sim_result, run_result = both
        sim_metrics = sim_result.metrics()
        run_metrics = run_result.metrics()
        assert isinstance(sim_metrics, IterationMetrics)
        assert (sim_metrics.source, sim_metrics.time_unit) == ("sim", "model")
        assert (run_metrics.source, run_metrics.time_unit) == ("runtime",
                                                              "seconds")
        assert sim_metrics.schedule_name == run_metrics.schedule_name
        assert sim_metrics.ops_executed == run_metrics.ops_executed
        assert sim_metrics.stage_op_counts == run_metrics.stage_op_counts
        assert sim_metrics.comm_messages == run_metrics.comm_messages
        assert {r.name for r in sim_metrics.span_table} == \
               {r.name for r in run_metrics.span_table}

    def test_metrics_to_dict_and_text(self, both):
        _, sim_result, _ = both
        metrics = sim_result.metrics()
        data = metrics.to_dict()
        assert data["peak_live_bytes"] == metrics.peak_live_bytes
        assert "span_table" not in data
        assert len(metrics.to_dict(spans=True)["span_table"]) == \
               metrics.ops_executed
        text = metrics.render_text()
        assert "bubble ratio" in text and "mepipe" in text

    def test_runtime_busy_and_bubble(self, both):
        _, _, run_result = both
        assert 0.0 < run_result.bubble_ratio < 1.0
        for stat in run_result.stage_stats:
            assert 0.0 < stat.busy_seconds <= run_result.wall_seconds


# ----------------------------------------------------------------------
# Instrumentation hooks, per substrate
# ----------------------------------------------------------------------
class TestSimulatorInstrumentation:
    def test_simulate_emits_spans_and_counters(self):
        schedule = _mepipe_schedule()
        sink = MemorySink()
        result = simulate(schedule, UniformCost(schedule.problem), sink=sink)
        assert len(sink.spans()) == schedule.op_count()
        assert last_counter(sink, "busy_time", tid=0) == \
               result.stages[0].busy_time
        assert last_counter(sink, "comm_messages") == \
               result.comm_volume.message_count
        # comm/overlap counters from record_sim_comm
        assert sink.counters("comm_time") and sink.counters("comm_overlap_time")

    def test_null_sink_emits_nothing(self):
        schedule = _mepipe_schedule()
        result = simulate(schedule, UniformCost(schedule.problem),
                          sink=NULL_SINK)
        assert result.makespan > 0

    def test_cluster_cost_stamps_byte_conversions(self):
        from repro.hardware import RTX4090_CLUSTER
        from repro.model import LLAMA_13B
        from repro.parallel import ParallelConfig
        from repro.sim import ClusterCost

        problem = build_problem("mepipe", 8, 8, num_slices=2, wgrad_gemms=3)
        cost = ClusterCost(
            spec=LLAMA_13B, cluster=RTX4090_CLUSTER, problem=problem,
            config=ParallelConfig(dp=8, pp=8, spp=2),
        )
        result = simulate(build_schedule("mepipe", problem), cost)
        assert result.activation_bytes_per_unit > 0
        assert result.comm_bytes_per_message == cost.boundary_message_bytes()
        assert result.peak_live_bytes > 0
        assert result.comm_volume.bytes_total > 0


class _ChargedComm(UniformCost):
    """Uniform compute, and a transfer time per edge that varies with the
    producer's slice and chunk (still micro-batch invariant)."""

    def comm_time(self, dep, op):
        return 0.125 * (1 + dep.slice_idx) + 0.03125 * dep.chunk


def _comm_counters_by_deps_walk(result, cost):
    """``(comm_time, comm_overlap_time)`` per stage the slow way: every
    record's dependencies, one ``cost.comm_time`` probe per cross-stage
    edge, added in record order."""
    problem = result.problem
    comm_in = [0.0] * problem.num_stages
    for op in result.records:
        for dep in problem.deps(op):
            if problem.is_cross_stage(dep, op):
                comm_in[problem.stage_of(op)] += cost.comm_time(dep, op)
    overlap = [
        max(c - max(result.makespan - m.busy_time, 0.0), 0.0)
        for c, m in zip(comm_in, result.stages)
    ]
    return comm_in, overlap


def _assert_comm_counters_match(schedule, cost):
    for engine in ("event", "heap"):
        sink = MemorySink()
        result = simulate(schedule, cost, engine=engine, sink=sink)
        stages = range(schedule.problem.num_stages)
        assert (
            [last_counter(sink, "comm_time", tid=s) for s in stages],
            [last_counter(sink, "comm_overlap_time", tid=s) for s in stages],
        ) == _comm_counters_by_deps_walk(result, cost), engine


@pytest.mark.parametrize(
    "method,p,n,s,v,g", list(golden_grid()), ids=lambda val: str(val)
)
def test_comm_counters_on_the_golden_grid(method, p, n, s, v, g):
    problem = build_problem(
        method, p, n, num_slices=s, virtual_size=v, wgrad_gemms=g
    )
    schedule = build_schedule(method, problem)
    for cost in (UniformCost(problem, tw=0.5), _ChargedComm(problem, tw=0.5)):
        _assert_comm_counters_match(schedule, cost)


def test_comm_counters_under_cluster_cost():
    from repro.hardware import RTX4090_CLUSTER
    from repro.model import LLAMA_13B
    from repro.parallel import ParallelConfig
    from repro.sim import ClusterCost

    problem = build_problem("mepipe", 8, 16, num_slices=4, wgrad_gemms=2)
    cost = ClusterCost(
        spec=LLAMA_13B, config=ParallelConfig(dp=8, pp=8, spp=4),
        cluster=RTX4090_CLUSTER, problem=problem,
    )
    schedule = build_schedule("mepipe", problem, cost=cost)
    comm_in, _ = _comm_counters_by_deps_walk(simulate(schedule, cost), cost)
    assert all(c > 0.0 for c in comm_in[1:])  # the cell does move tensors
    _assert_comm_counters_match(schedule, cost)


class TestRuntimeInstrumentation:
    def test_run_emits_iteration(self):
        schedule = _mepipe_schedule()
        sink = MemorySink()
        result = _run_runtime(schedule, sink=sink)
        assert len(sink.spans()) == schedule.op_count()
        assert last_counter(sink, "peak_live_bytes", tid=0) == \
               result.stage_stats[0].peak_live_bytes


class TestProfilerInstrumentation:
    def test_profile_spans_feed_measurements(self):
        from repro.profiler import Profiler

        problem = build_problem("mepipe", 2, N, num_slices=2, wgrad_gemms=3)
        sink = MemorySink()
        profiler = Profiler(spec=SPEC, problem=problem, warmup=1, repeats=2)
        cost = profiler.profile(sink=sink)
        warm = [e for e in sink.spans() if e.arg("warmup")]
        timed = [e for e in sink.spans() if not e.arg("warmup")]
        per_round = len(sink.spans()) // (profiler.warmup + profiler.repeats)
        assert len(warm) == per_round and len(timed) == 2 * per_round
        for profile in cost.measurements.values():
            assert profile.samples == profiler.repeats
        # aggregate equals the span stream it came from
        key = next(iter(cost.measurements))
        total = sum(
            e.dur for e in timed
            if (e.cat, e.arg("slice"), e.arg("chunk")) ==
               (key[0].value, key[1], key[2])
        )
        assert cost.measurements[key].total_seconds == pytest.approx(total)

    def test_profile_without_sink_unchanged(self):
        from repro.profiler import Profiler

        problem = build_problem("dapple", 2, N)
        cost = Profiler(spec=SPEC, problem=problem).profile()
        assert all(p.samples == 3 for p in cost.measurements.values())


class TestPlannerInstrumentation:
    def test_sweep_emits_eval_spans_and_counters(self, tmp_path):
        from repro.hardware import RTX4090_CLUSTER
        from repro.model import LLAMA_13B
        from repro.parallel import ParallelConfig
        from repro.planner.parallel import EvalTask, SweepCache, evaluate_tasks

        task = EvalTask("mepipe", LLAMA_13B, RTX4090_CLUSTER,
                        ParallelConfig(dp=8, pp=8, spp=2), 64)
        cache = SweepCache(tmp_path)
        sink = MemorySink()
        evaluate_tasks([task], cache=cache, sink=sink)
        (span,) = sink.spans()
        assert span.cat == "eval"
        assert span.name == f"eval mepipe {task.config.describe()}"
        assert dict(span.args) == {
            "method": "mepipe",
            "configs": [task.config.describe()],
        }
        assert last_counter(sink, "evaluated") == 1.0
        assert last_counter(sink, "cache_hits") == 0.0
        assert {e.name for e in sink.counters()} == {
            "cache_hits",
            "evaluated",
            "errors",
            "worker_reuse",
        }

        sink = MemorySink()
        outcomes = evaluate_tasks([task], cache=cache, sink=sink)
        assert outcomes[0].ok
        assert not sink.spans()
        (hit,) = [e for e in sink.events if e.kind == "instant"]
        assert hit.cat == "cache"
        assert last_counter(sink, "cache_hits") == 1.0

    def test_search_emits_skip_instants(self):
        from repro.hardware import RTX4090_CLUSTER
        from repro.model import LLAMA_34B
        from repro.planner.search import search_method

        sink = MemorySink()
        # GBS far below the device count: every candidate prunes or
        # rejects, so the sweep is fast and skip-heavy.
        result = search_method("dapple", LLAMA_34B, RTX4090_CLUSTER, 8,
                               sink=sink)
        skips = [e for e in sink.events if (e.kind, e.cat) == ("instant", "skip")]
        assert last_counter(sink, "skipped") == len(result.skipped)
        assert len(skips) <= len(result.skipped)


class TestExperimentInstrumentation:
    def test_e0_records_one_process_per_method(self):
        from repro.experiments import e0

        sink = MemorySink()
        report = e0.run(sink=sink)
        assert all(row[-1] == "PASS" for row in report.rows)
        process_names = {
            e.arg("name")
            for e in sink.events
            if e.kind == "meta" and e.name == "process_name"
        }
        assert process_names == {m for m, _ in e0.METHOD_SETUPS}
        pids = {e.pid for e in sink.spans()}
        assert pids == set(range(len(e0.METHOD_SETUPS)))
