"""Work that must happen in a fresh interpreter, one role per process.

Run as ``python bench/child.py <role> '<json args>'``.  Every role
prints ``{"event": "ready"}`` when its imports and fixtures are done and
``{"event": "result", ...}`` when its work is; with ``ready_only`` it
exits after the first.  Module level stays stdlib-only: the pipeline
runtime's ``spawn`` workers re-import ``__main__``, and anything heavy
up here would be charged to every ``train_iter`` op.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from typing import Any

import harness
from harness import Spans, self_cpu_seconds, self_peak_rss_mb

#: The executed iteration of ``train_iter`` (ISSUE 13): MEPipe p=2, n=8,
#: s=4, 3 W-GEMMs, B=2 on a model big enough that an op is ~1 s.
TRAIN_SPEC = dict(
    hidden_size=128, num_layers=8, num_heads=4,
    ffn_hidden_size=256, vocab_size=211, seq_length=128,
)
TRAIN_SHAPE = dict(stages=2, microbatches=8, slices=4, wgrad_gemms=3, batch=2)


def emit(event: str, **payload: Any) -> None:
    print(json.dumps({"event": event, **payload}), flush=True)


# ----------------------------------------------------------------------
# fig10: one cold Figure 10 sweep
# ----------------------------------------------------------------------
def role_fig10(args: dict[str, Any]) -> None:
    from repro.experiments import fig10
    from repro.model import get_model

    models = [get_model(name) for name in args["models"]]
    emit("ready")
    if args.get("ready_only"):
        return
    spans = Spans()
    sweeps: list[Any] = []
    recording: Any = contextlib.nullcontext()
    if args.get("trace"):
        import ledger

        recording = contextlib.ExitStack()
        recording.enter_context(ledger.capture_searches(fig10, "search", spans, sweeps))
        recording.enter_context(spans.span("fig10.run", op=0))
    cpu0, t0 = self_cpu_seconds(), time.perf_counter()
    with recording:
        text = fig10.run(models=models).render()
    op_ms = (time.perf_counter() - t0) * 1e3
    cpu_ms = (self_cpu_seconds() - cpu0) * 1e3
    rss_mb = self_peak_rss_mb()
    layers: dict[str, float] = {}
    if args.get("trace"):
        layers = ledger.replay(sweeps, spans)
        probe = next(s for s in sweeps if (s.method, s.spec.name) == ("mepipe", "llama-13b"))
        layers.update(ledger.pool_probe(probe))
        giant = max(sweeps, key=lambda s: s.ms)
        layers.update(ledger.count_calls(lambda: _cold_search(giant)))
    emit(
        "result", op_ms=op_ms, cpu_ms=cpu_ms, rss_mb=rss_mb, text=text,
        layers=layers, spans=spans.rows,
    )


def _cold_search(sweep: Any) -> Any:
    import ledger
    from repro.planner import search_method

    ledger.reset_memos()
    kwargs = dict(sweep.kwargs, cache=None)  # the sweep's own cache dir is gone by now
    return search_method(sweep.method, sweep.spec, sweep.cluster, sweep.gbs, **kwargs)


# ----------------------------------------------------------------------
# api: the service's requests, executed in-process
# ----------------------------------------------------------------------
def role_api(args: dict[str, Any]) -> None:
    """Parse, execute and encode each request without the service, with
    the planner's sweeps captured for the replay ledger."""
    import ledger
    import repro.planner
    from repro.api import execute, request_from_dict
    from repro.planner import SweepCache

    emit("ready")
    if args.get("ready_only"):
        return
    spans = Spans()
    sweeps: list[Any] = []
    rows = []
    with harness.scratch_dir("api-cache-") as tmp:
        cache = SweepCache(tmp)
        with ledger.capture_searches(repro.planner, "search_method", spans, sweeps):
            for index, body in enumerate(args["requests"]):
                with spans.span("api.execute", op=index, kind=body["kind"]):
                    with spans.span("api.types.parse") as parse:
                        request = request_from_dict(body)
                        request.fingerprint()
                    with spans.span("api.handlers.execute") as run:
                        response = execute(request, cache=cache)
                    with spans.span("api.types.encode") as encode:
                        response.to_json()
                rows.append(
                    dict(
                        parse_ms=Spans.ms(parse), execute_ms=Spans.ms(run),
                        encode_ms=Spans.ms(encode),
                    )
                )
    layers = _sink_overhead()
    if args["planner"]:
        # Repeated plans re-run sweeps the cache answers; the ledger
        # replays each distinct sweep once, as first (cold) seen.
        distinct = {(s.method, s.spec.name, s.cluster.name, s.gbs): s for s in reversed(sweeps)}
        cold = list(reversed(distinct.values()))
        layers.update(ledger.replay(cold, spans))
        layers.update(ledger.pool_probe(max(cold, key=lambda s: len(s.result.evaluated))))
        layers.update(ledger.count_calls(lambda: _cold_search(max(cold, key=lambda s: s.ms))))
    emit("result", rows=rows, layers=layers, spans=spans.rows)


def _sink_overhead() -> dict[str, float]:
    """``simulate`` with a recording sink over the null sink, small shape."""
    from repro.obs import MemorySink
    from repro.schedules import build_problem, build_schedule
    from repro.sim import UniformCost, simulate

    problem = build_problem("mepipe", 4, 8, num_slices=4, wgrad_gemms=2)
    schedule = build_schedule("mepipe", problem)
    cost = UniformCost(problem)

    def best(**kwargs: Any) -> float:
        times = []
        for _ in range(15):
            t0 = time.perf_counter()
            simulate(schedule, cost, **kwargs)
            times.append(time.perf_counter() - t0)
        return min(times)

    return {"obs.memory_sink_overhead_ratio": best(sink=MemorySink()) / best()}


# ----------------------------------------------------------------------
# train: executed iterations on the parallel and serial runtimes
# ----------------------------------------------------------------------
def role_train(args: dict[str, Any]) -> None:
    import multiprocessing

    from repro.data import token_batches
    from repro.model import tiny_spec
    from repro.nn import build_model
    from repro.pipeline import ParallelPipelineRuntime, PipelineRuntime
    from repro.schedules import build_problem, build_schedule

    spec = tiny_spec(**TRAIN_SPEC)
    shape = TRAIN_SHAPE
    problem = build_problem(
        "mepipe", shape["stages"], shape["microbatches"],
        num_slices=shape["slices"], wgrad_gemms=shape["wgrad_gemms"],
    )
    schedule = build_schedule("mepipe", problem)
    tokens, targets = token_batches(
        spec.vocab_size, shape["microbatches"], shape["batch"],
        spec.seq_length, seed=args["seed"],
    )
    emit("ready")
    if args.get("ready_only"):
        return

    spans = Spans()
    runtimes = {"parallel": ParallelPipelineRuntime, "serial": PipelineRuntime}
    expected_ops = schedule.op_count()
    rows = []
    for index, kind in enumerate(args["ops"]):
        model = build_model(spec, seed=11)  # fresh weights and grads; untimed
        shm_before = harness.shm_segments()
        cpu0, t0 = self_cpu_seconds(), time.perf_counter()
        recording = spans.span(f"pipeline.{kind}.run", op=index) if args.get("trace") else contextlib.nullcontext()
        with recording:
            result = runtimes[kind](model, tokens, targets).run(schedule)
        ms = (time.perf_counter() - t0) * 1e3
        cpu_ms = (self_cpu_seconds() - cpu0) * 1e3
        errors = []
        if result.ops_executed != expected_ops:
            errors.append(f"executed {result.ops_executed} of {expected_ops} ops")
        if multiprocessing.active_children():
            errors.append(f"leaked processes {multiprocessing.active_children()}")
        leaked = harness.shm_segments() - shm_before
        if leaked:
            errors.append(f"leaked /dev/shm segments {sorted(leaked)}")
        stats = result.stage_stats
        stage_seconds = len(stats) * result.wall_seconds
        rows.append(
            dict(
                kind=kind, ms=ms, cpu_ms=cpu_ms, loss=result.loss, errors=errors,
                exec_ms=result.wall_seconds * 1e3,
                busy_share=sum(s.busy_seconds for s in stats) / stage_seconds,
                wait_share=sum(s.wait_seconds for s in stats) / stage_seconds,
                overlap_w_ms=result.overlap_w_seconds * 1e3,
                bubble_ratio=result.bubble_ratio,
                ring_kb=sum(s.channel_buffer_bytes for s in stats) / 1024,
                comm_kb=result.comms.bytes_total / 1024,
            )
        )
    layers: dict[str, float] = {}
    if args.get("trace"):
        layers = _profile_nn(spec, problem, shape["batch"])
    emit(
        "result", rows=rows, rss_mb=self_peak_rss_mb(), layers=layers, spans=spans.rows,
        tokens_per_op=shape["microbatches"] * shape["batch"] * spec.seq_length,
    )


def _profile_nn(spec: Any, problem: Any, batch: int) -> dict[str, float]:
    """Per-op means of the NumPy substrate, from the repo's own profiler."""
    from repro.profiler import Profiler
    from repro.schedules.base import OpKind

    cost = Profiler(spec=spec, problem=problem, batch_size=batch).profile()
    out = {}
    for kind, name in ((OpKind.F, "fwd"), (OpKind.B, "bwd"), (OpKind.W, "wgrad")):
        means = [p.mean_seconds for (k, _, _), p in cost.measurements.items() if k is kind]
        out[f"nn.{name}_ms"] = sum(means) / len(means) * 1e3
    return out


ROLES = {"fig10": role_fig10, "api": role_api, "train": role_train}

if __name__ == "__main__":
    ROLES[sys.argv[1]](json.loads(sys.argv[2]))
