"""The four workloads: fixed op lists, closed loops, checked outputs.

Every op list is a constant of this file; ``--seconds`` only scales how
much of it a run uses (see :func:`scaled`), and ``--seed`` only permutes
order — never the multiset of ops, so two runs measure the same work.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from harness import (
    GOLDEN,
    BenchError,
    Server,
    Spans,
    Yardstick,
    fresh_starts,
    http_json,
    median,
    percentile,
    run_child,
    scratch_dir,
)
from ledger import EXPLAINING_LAYERS

#: ``--seconds`` at which a run uses each op list in full.
NOMINAL_SECONDS = 25

FIG10_MODELS = ["7b", "13b", "34b"]
#: Cold sweeps per run; ~10 s each on the reference machine.
FIG10_OPS = 3

METHODS = ["dapple", "vpp", "zb", "zbv", "mepipe"]
SMALL_SHAPE = {"stages": 4, "microbatches": 8, "slices": 4, "wgrad_gemms": 2}


def plan(model: str, cluster: str, gbs: int, methods: list[str] = METHODS) -> dict[str, Any]:
    return {
        "kind": "plan", "model": model, "cluster": cluster,
        "global_batch_size": gbs, "methods": methods,
    }


#: serve_plan_cold: small cells, 6-25 evaluated configs per method.  The
#: 34b x a100-32 row is left out: it alone costs more than these three.
COLD_PLANS = [
    plan(model, cluster, gbs)
    for model, cluster in (("13b", "rtx4090-64"), ("13b", "a100-32"), ("34b", "rtx4090-64"))
    for gbs in (32, 64, 96, 128)
]
#: Passes over the cold list per run, each against a fresh server.
COLD_REPEATS = 2
#: serve_warm_mix: plans run once in set-up, then repeated.
WARM_POOL = [
    plan(model, "rtx4090-64", gbs) for model in ("13b", "34b") for gbs in (32, 64, 96, 128)
]
#: serve_warm_mix: plans no run has seen before (sweep-cache writes).
HELD_OUT = [
    plan("13b", "rtx4090-64", gbs, ["dapple", "zb"])
    for gbs in (40, 48, 56, 72, 80, 88, 104, 112, 120, 136, 144, 152, 160, 168, 176)
]
SMALL = [
    {"kind": kind, "method": "mepipe", "shape": SMALL_SHAPE}
    for kind in ("verify", "evaluate", "capacity", "simulate")
] + [{"kind": "check-model", "method": "mepipe", "model": "tiny", "shape": SMALL_SHAPE}]
#: serve_warm_mix: one pass of the mix, and passes per run.  Many short
#: passes rather than few long ones: a 2 s pass can fall wholly inside one
#: of the machine's fast phases, a 10 s pass cannot.
WARM_OPS = 25
WARM_REPEATS = 8
#: Share of warm ops dropped from the timing sample (not from checking).
WARM_DISCARD = 0.05

TRAIN_PARALLEL_OPS = 16
TRAIN_SERIAL_OPS = 4


def scaled(full: int, seconds: float, floor: int) -> int:
    """How many of ``full`` ops a run of ``seconds`` uses — a function of
    the argument alone, never of elapsed time."""
    return max(floor, min(full, round(full * seconds / NOMINAL_SECONDS)))


def plan_key(body: dict[str, Any]) -> str:
    return "|".join(
        [body["model"], body["cluster"], str(body["global_batch_size"]), ",".join(body["methods"])]
    )


def plan_best(payload: dict[str, Any]) -> dict[str, Any]:
    """The decision a plan response carries: per method, the winning
    config and its iteration time (``None`` when everything OOMs)."""
    return {
        entry["method"]: None
        if entry["best"] is None
        else {
            "config": entry["best"]["config"],
            "iteration_time_s": entry["best"]["iteration_time_s"],
        }
        for entry in payload["methods"]
    }


def load_golden(name: str) -> Any:
    text = (GOLDEN / name).read_text()
    return json.loads(text) if name.endswith(".json") else text


@dataclass
class Outcome:
    """What one run of one workload produced."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: End-to-end metrics: name -> (value, samples behind it).
    e2e: dict[str, tuple[float, int]] = field(default_factory=dict)
    #: Per-layer metrics of a traced run.
    layers: dict[str, float] = field(default_factory=dict)
    yardstick: Yardstick = field(default_factory=Yardstick)
    spans: Spans = field(default_factory=Spans)

    def check(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(error)

    def set_e2e(
        self,
        op_ms: list[tuple[str, float]],
        repeat_cpu_ms: list[float],
        rss_mb: float,
        setup_s: list[float],
        setup_extra_s: float = 0.0,
    ) -> None:
        """Reduce a run's samples to the four end-to-end metrics.

        A run repeats its op list; ``op_ms`` holds every (op identity,
        wall ms) sample and ``repeat_cpu_ms`` the CPU per op of each
        repeat.  Each op counts at its **best repeat** and the CPU figure
        is the cheapest repeat's, because on this machine noise only
        ever adds time: the core flips between full speed and ~0.7x at
        about one-second granularity (a busy SMT sibling), and how often
        drifts over minutes.  A plain median moved 20-27 % between runs
        of the same code in a bad quarter of an hour.
        """
        best: dict[str, float] = {}
        for key, ms in op_ms:
            best[key] = min(ms, best.get(key, ms))
        self.e2e = {
            "op_p50_ms": (median([best[key] for key, _ in op_ms]), len(op_ms)),
            "op_cpu_ms": (min(repeat_cpu_ms), len(repeat_cpu_ms)),
            "peak_rss_mb": (rss_mb, 1),
            "setup_s": (median(setup_s) + setup_extra_s, len(setup_s)),
        }


# ----------------------------------------------------------------------
# fig10_cold
# ----------------------------------------------------------------------
def fig10_error(text: str, models: list[str]) -> str | None:
    """Byte-compare a rendered report with the golden (full sweep), or
    its rows with the golden's rows for those models (smoke)."""
    golden = load_golden("fig10.txt")
    if models == FIG10_MODELS:
        return None if text == golden else "fig10 report differs from golden"
    wanted = tuple(f"llama-{m}" for m in models)

    def rows(report: str) -> list[str]:
        return [
            " ".join(line.split())
            for line in report.splitlines()
            if line.startswith(wanted) or line.startswith("note: " + wanted[0])
        ]

    return None if rows(text) == rows(golden) else "fig10 rows differ from golden"


def fig10_cold(seed: int, seconds: float, smoke: bool, trace: bool) -> Outcome:
    """A cold Figure 10 sweep per op, each in a fresh interpreter.

    ``seed`` is unused: the op has no input but the paper's grid.
    """
    out = Outcome()
    models = ["13b"] if smoke else FIG10_MODELS
    args = {"models": models}
    env = {"REPRO_SWEEP_CACHE": "0", "REPRO_JOBS": "1"}
    setup = fresh_starts("fig10", args)
    ops = []
    for _ in range(1 if trace else scaled(FIG10_OPS, seconds, 2)):
        out.yardstick.sample()
        ops.append(run_child("fig10", args, **env))
        out.check(fig10_error(ops[-1]["text"], models))
    out.yardstick.sample()
    out.set_e2e(
        [("sweep", op["op_ms"]) for op in ops],
        [op["cpu_ms"] for op in ops],
        max(op["rss_mb"] for op in ops),
        setup,
    )
    if trace:
        traced = run_child("fig10", dict(args, trace=True), **env)
        out.check(fig10_error(traced["text"], models))
        out.spans.adopt(traced["spans"], pid=1)
        out.layers.update(traced["layers"])
        out.layers["trace.overhead_ratio"] = traced["op_ms"] / ops[0]["op_ms"]
        out.layers["trace.coverage"] = explained_ms(out.spans) / traced["op_ms"]
        service_probe(out, planner=False)
        runtime_probe(out, seed)
    return out


def explained_ms(spans: Spans) -> float:
    self_ms = spans.self_ms()
    return sum(self_ms.get(name, 0.0) for name in EXPLAINING_LAYERS)


# ----------------------------------------------------------------------
# the service workloads
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One client op: what to send and what the reply must equal."""

    kind: str  # plan_first | plan_warm | small | async
    body: dict[str, Any]
    #: Golden: a plan's per-method best, or a small request's whole body.
    expect: Any
    #: A plan's ``methods`` block from this run's cold reply, once seen:
    #: a warm reply must repeat it exactly.
    methods: Any = None
    ms: float = 0.0
    kb: float = 0.0
    #: ``(hits, misses)`` of the server's sweep cache after a plan.
    cache: tuple[int, int] = (0, 0)


def plan_ops(kind: str, bodies: list[dict[str, Any]]) -> list[Op]:
    golden = load_golden("plans.json")
    return [Op(kind, body, golden[plan_key(body)]) for body in bodies]


def small_ops(kind: str, count: int) -> list[Op]:
    golden = load_golden("small.json")
    bodies = [SMALL[i % len(SMALL)] for i in range(count)]
    return [Op(kind, body, golden[body["kind"]]) for body in bodies]


def send(address: tuple[str, int], op: Op) -> str | None:
    """Issue ``op``, time it, and return why it failed (or ``None``)."""
    path = f"/v1/{op.body['kind']}"
    t0 = time.perf_counter()
    if op.kind == "async":
        status, payload, size = http_json(address, "POST", path + "?mode=async", op.body)
        if status != 202:
            return f"async submit answered {status}: {payload}"
        while payload.get("status") not in ("done", "error"):
            time.sleep(0.005)
            status, payload, size = http_json(address, "GET", f"/v1/jobs/{payload['job_id']}")
            if status != 200:
                return f"job poll answered {status}: {payload}"
        payload = payload.get("response", payload)
    else:
        status, payload, size = http_json(address, "POST", path, op.body)
    op.ms = (time.perf_counter() - t0) * 1e3
    op.kb = size / 1024
    what = f"{op.kind} {op.body['kind']}"
    if status != 200 or not payload.get("ok"):
        return f"{what} answered {status}: {str(payload)[:200]}"
    if op.body["kind"] != "plan":
        return None if payload == op.expect else f"{what} reply differs from golden"
    op.cache = (payload["cache"]["hits"], payload["cache"]["misses"])
    if plan_best(payload) != op.expect:
        return f"{what} {plan_key(op.body)} chose differently from golden"
    if op.methods is not None and payload["methods"] != op.methods:
        return f"{what} {plan_key(op.body)} differs from this run's cold reply"
    op.methods = payload["methods"]
    return None


def client_pass(
    out: Outcome, server: Server, ops: list[Op], spans: Spans | None
) -> tuple[float, float]:
    """Closed loop, one connection: the next op goes out only when the
    previous reply is in.  Returns (wall s, server CPU s).

    One connection, not two: two saturating connections share the
    server's GIL, so every latency then depends on what the other
    connection happened to have in flight, and an op's best repeat
    measures luck (warm 13B plans read 73-105 ms instead of 70-80).
    """
    out.yardstick.sample()
    cpu0, t0 = server.cpu_seconds(), time.perf_counter()
    for index, op in enumerate(ops):
        if spans is None:
            out.check(send(server.address, op))
        else:
            with spans.span(f"service.http.{op.kind}", op=index):
                error = send(server.address, op)
            out.check(error)
    wall_s, cpu_s = time.perf_counter() - t0, server.cpu_seconds() - cpu0
    out.yardstick.sample()
    return wall_s, cpu_s


def timed_starts(root: Path, count: int) -> list[float]:
    """Time-to-ready of ``count`` fresh servers, each on an empty cache."""
    times = []
    for i in range(count):
        with Server(root / f"start-{i}") as server:
            times.append(server.ready_s)
    return times


def op_key(op: Op) -> str:
    """An op's identity across the repeats of its list."""
    return op.kind + json.dumps(op.body, sort_keys=True)


def shuffled_within_rows(bodies: list[dict[str, Any]], seed: int) -> list[dict[str, Any]]:
    """Permute each (model, cluster) row's batch sizes; keep row order.

    A full shuffle moved the server's peak RSS by 16 % and the median op
    by 10 % between seeds: what the generation cache still holds when
    the heavy 34B rows arrive depends on what came before them.
    """
    rng = random.Random(seed)
    rows: dict[tuple[str, str], list[dict[str, Any]]] = {}
    for body in bodies:
        rows.setdefault((body["model"], body["cluster"]), []).append(body)
    return [body for row in rows.values() for body in rng.sample(row, len(row))]


def serve_plan_cold(seed: int, seconds: float, smoke: bool, trace: bool) -> Outcome:
    """Never-seen plans against an empty sweep cache, one connection;
    the list is run ``COLD_REPEATS`` times, each on a fresh server."""
    out = Outcome()
    bodies = COLD_PLANS[:6] if smoke else COLD_PLANS[: scaled(len(COLD_PLANS), seconds, 8)]
    if trace:
        bodies = [b for b in bodies if b["cluster"] == "rtx4090-64"]
    repeats = 1 if trace else COLD_REPEATS
    with scratch_dir("cold-") as tmp:
        setup = timed_starts(Path(tmp), 5 - repeats)
        ops: list[Op] = []
        cpu_ms, rss_mb = [], []
        for repeat in range(repeats):
            passed = plan_ops("plan_first", shuffled_within_rows(bodies, seed + repeat))
            with Server(Path(tmp) / f"cache-{repeat}") as server:
                setup.append(server.ready_s)
                _, cpu_s = client_pass(out, server, passed, None)
                rss_mb.append(server.peak_rss_mb())
            cpu_ms.append(cpu_s * 1e3 / len(passed))
            ops += passed
        out.set_e2e([(op_key(op), op.ms) for op in ops], cpu_ms, max(rss_mb), setup)
        if trace:
            # The other request kinds ride behind the cold plans, so the
            # service ledger has every row on this workload too.
            traced = plan_ops("plan_first", [op.body for op in ops]) + probe_tail(bodies[0])
            with Server(Path(tmp) / "cache-traced") as server:
                wall_s, _ = client_pass(out, server, traced, out.spans)
                service_section(out, server, traced, wall_s)
    if trace:
        served_trace(out, ops, traced, [op.body for op in traced], seed)
    return out


def warm_mix(count: int, held_out: list[dict[str, Any]], cold: dict[str, Any]) -> list[Op]:
    """The fixed multiset: 55 % repeated plans, 5 % first-time plans,
    30 % small requests, 10 % async submit-and-poll."""
    first = round(0.05 * count)
    asyncs = round(0.10 * count)
    small = round(0.30 * count)
    warm = plan_ops(
        "plan_warm",
        [WARM_POOL[i % len(WARM_POOL)] for i in range(count - first - asyncs - small)],
    )
    for op in warm:
        op.methods = cold[plan_key(op.body)]
    if first > len(held_out):
        raise ValueError(f"{count} ops need {first} held-out plans, have {len(held_out)}")
    return (
        warm
        + plan_ops("plan_first", held_out[:first])
        + small_ops("small", small)
        + small_ops("async", asyncs)
    )


def serve_warm_mix(seed: int, seconds: float, smoke: bool, trace: bool) -> Outcome:
    """The steady state of a planning service: mostly repeated plans.
    The mix is run ``WARM_REPEATS`` times against one pre-warmed server."""
    out = Outcome()
    repeats = 1 if smoke or trace else scaled(WARM_REPEATS, seconds, 2)
    first = round(0.05 * WARM_OPS)
    rng = random.Random(seed)
    with scratch_dir("warm-") as tmp:
        setup = timed_starts(Path(tmp), 4)
        with Server(Path(tmp) / "cache") as server:
            setup.append(server.ready_s)
            t0 = time.perf_counter()
            prewarm = plan_ops("plan_first", WARM_POOL)
            for op in prewarm:
                error = send(server.address, op)
                if error:
                    raise BenchError(f"pre-warm failed: {error}")
            prewarm_s = time.perf_counter() - t0
            cold = {plan_key(op.body): op.methods for op in prewarm}

            def one_pass(repeat: int, spans: Spans | None) -> tuple[list[Op], float, float]:
                # Each pass takes its own first-time plans from the held-out list.
                passed = warm_mix(WARM_OPS, HELD_OUT[repeat * first : (repeat + 1) * first], cold)
                rng.shuffle(passed)
                wall_s, cpu_s = client_pass(out, server, passed, spans)
                return passed, wall_s, cpu_s * 1e3 / len(passed)

            ops: list[Op] = []
            cpu_ms = []
            for repeat in range(repeats):
                passed, _, cpu = one_pass(repeat, None)
                ops += passed
                cpu_ms.append(cpu)
            kept = ops[round(WARM_DISCARD * len(ops)) :]
            out.set_e2e(
                [(op_key(op), op.ms) for op in kept], cpu_ms, server.peak_rss_mb(),
                setup, setup_extra_s=prewarm_s,
            )
            if trace:
                traced, wall_s, _ = one_pass(repeats, out.spans)
                service_section(out, server, traced, wall_s)
    if trace:
        served_trace(out, ops, traced, WARM_POOL + [op.body for op in traced], seed)
    return out


# ----------------------------------------------------------------------
# service and api layers (traced runs)
# ----------------------------------------------------------------------
def service_section(out: Outcome, server: Server, traced: list[Op], wall_s: float) -> None:
    """The client's view of a traced pass, the healthz floor, and the
    server's own counters."""
    floor = []
    for _ in range(30):
        t0 = time.perf_counter()
        http_json(server.address, "GET", "/v1/healthz")
        floor.append((time.perf_counter() - t0) * 1e3)
    stats = server.stats()
    hits, misses = max((op.cache for op in traced), key=sum)

    def p50(kind: str) -> float:
        return median([op.ms for op in traced if op.kind == kind])

    out.layers.update(
        {
            "service.http.floor_ms": median(floor),
            "service.http.p95_ms": percentile([op.ms for op in traced], 0.95),
            "service.http.plan_warm_p50_ms": p50("plan_warm"),
            "service.http.plan_first_p50_ms": p50("plan_first"),
            "service.http.small_p50_ms": p50("small"),
            "service.http.async_p50_ms": p50("async"),
            "service.http.response_kb": median([op.kb for op in traced]),
            "service.http.ops_per_s": len(traced) / wall_s,
            "service.jobs.dedup_hits": stats["dedup_hits"],
            "service.jobs.executed": stats["executed"],
            "planner.parallel.cache_hit_ratio": hits / max(1, hits + misses),
        }
    )


def api_section(
    out: Outcome, bodies: list[dict[str, Any]], traced: list[Op], own: int, planner: bool
) -> list[float]:
    """Execute ``bodies`` in-process in a fresh child — parse, execute,
    encode, and (``planner``) the replay ledger over their sweeps.  The
    last ``len(traced)`` bodies are the traced HTTP ops, in order, and the
    first ``own`` of those are the workload's own (the rest a probe tail):
    the api rows are medians over them.  Returns what each traced op cost
    in-process (ms)."""
    result = run_child("api", {"requests": bodies, "planner": planner})
    out.spans.adopt(result["spans"], pid=2)
    rows = result["rows"][len(bodies) - len(traced) :]
    in_process = [row["parse_ms"] + row["execute_ms"] + row["encode_ms"] for row in rows]
    out.layers.update(result["layers"])
    out.layers.update(
        {
            "api.types.parse_ms": median([row["parse_ms"] for row in rows[:own]]),
            "api.types.encode_ms": median([row["encode_ms"] for row in rows[:own]]),
            "api.handlers.execute_ms": median([row["execute_ms"] for row in rows[:own]]),
            "service.jobs.overhead_ms": median(
                [op.ms - cost for op, cost in zip(traced[:own], in_process)]
            ),
        }
    )
    return in_process


def served_trace(
    out: Outcome, untraced: list[Op], traced: list[Op], bodies: list[dict[str, Any]], seed: int
) -> None:
    """The rest of a service workload's traced run."""
    in_process = api_section(out, bodies, traced, len(untraced), planner=True)
    floor_ms = out.layers["service.http.floor_ms"]
    # Totals, not medians: a 25-op mix has its median on the border
    # between the 22 ms requests and the 70 ms plans.
    out.layers["trace.overhead_ratio"] = sum(op.ms for op in traced[: len(untraced)]) / sum(
        op.ms for op in untraced
    )
    out.layers["trace.coverage"] = (sum(in_process) + floor_ms * len(traced)) / sum(
        op.ms for op in traced
    )
    runtime_probe(out, seed)


def probe_tail(seen: dict[str, Any]) -> list[Op]:
    """One op of every kind but a first-time plan: ``seen`` again (now
    warm), every small request, one async job."""
    return plan_ops("plan_warm", [seen]) + small_ops("small", len(SMALL)) + small_ops("async", 1)


def service_probe(out: Outcome, planner: bool) -> None:
    """What a workload that never talks to the service sends it in a
    traced run, so the service and api layers are measured there too."""
    ops = plan_ops("plan_first", WARM_POOL[:1]) + probe_tail(WARM_POOL[0])
    with scratch_dir("probe-") as tmp:
        with Server(Path(tmp)) as server:
            wall_s, _ = client_pass(out, server, ops, out.spans)
            service_section(out, server, ops, wall_s)
    api_section(out, [op.body for op in ops], ops, len(ops), planner)


# ----------------------------------------------------------------------
# train_iter
# ----------------------------------------------------------------------
def train_errors(rows: list[dict[str, Any]]) -> list[str | None]:
    """Per op: its own errors, and bit-equality of every loss."""
    losses = {row["loss"] for row in rows}
    return [
        "; ".join(row["errors"])
        or (f"losses differ across runtimes: {sorted(losses)}" if len(losses) > 1 else None)
        for row in rows
    ]


def train_layers(result: dict[str, Any]) -> dict[str, float]:
    rows = result["rows"]
    parallel = [row for row in rows if row["kind"] == "parallel"]
    serial = [row for row in rows if row["kind"] == "serial"]

    def p50(key: str, sample: list[dict[str, Any]] = parallel) -> float:
        return median([row[key] for row in sample])

    exec_ms = p50("exec_ms")
    return {
        "pipeline.parallel_runtime.spawn_ms": median([r["ms"] - r["exec_ms"] for r in parallel]),
        "pipeline.parallel_runtime.exec_ms": exec_ms,
        "pipeline.parallel_runtime.speedup": p50("ms", serial) / exec_ms,
        "pipeline.parallel_runtime.busy_share": p50("busy_share"),
        "pipeline.parallel_runtime.wait_share": p50("wait_share"),
        "pipeline.parallel_runtime.overlap_w_ms": p50("overlap_w_ms"),
        "pipeline.parallel_runtime.bubble_ratio": p50("bubble_ratio"),
        "pipeline.parallel_runtime.tokens_per_s": result["tokens_per_op"] / exec_ms * 1e3,
        "pipeline.runtime.serial_ms": p50("ms", serial),
        "pipeline.channels.ring_kb": p50("ring_kb"),
        "pipeline.channels.comm_kb": p50("comm_kb"),
        **result["layers"],
    }


def runtime_probe(out: Outcome, seed: int) -> None:
    """One serial and one parallel iteration plus the nn profile, so the
    runtime layers are measured in every traced run."""
    result = run_child("train", {"seed": seed, "ops": ["serial", "parallel"], "trace": True})
    for error in train_errors(result["rows"]):
        out.check(error)
    out.spans.adopt(result["spans"], pid=3)
    out.layers.update(train_layers(result))


def train_iter(seed: int, seconds: float, smoke: bool, trace: bool) -> Outcome:
    """Executed iterations on the multi-process runtime, with serial
    baselines interleaved; ``seed`` draws the tokens and the order."""
    out = Outcome()
    if smoke:
        kinds = ["parallel"] * 3 + ["serial"]
    elif trace:
        kinds = ["parallel"] * 4 + ["serial"] * 2
    else:
        kinds = ["parallel"] * scaled(TRAIN_PARALLEL_OPS, seconds, 6) + ["serial"] * TRAIN_SERIAL_OPS
    random.Random(seed).shuffle(kinds)
    args = {"seed": seed, "ops": kinds}
    setup = fresh_starts("train", args)
    out.yardstick.sample()
    result = run_child("train", args)
    out.yardstick.sample()
    for error in train_errors(result["rows"]):
        out.check(error)
    parallel = [row for row in result["rows"] if row["kind"] == "parallel"]
    out.set_e2e(
        [("parallel", row["ms"]) for row in parallel],
        [row["cpu_ms"] for row in parallel],
        result["rss_mb"],
        setup,
    )
    if trace:
        traced = run_child("train", dict(args, trace=True))
        for error in train_errors(traced["rows"]):
            out.check(error)
        out.spans.adopt(traced["spans"], pid=3)
        out.layers.update(train_layers(traced))
        traced_ms = [row["ms"] for row in traced["rows"] if row["kind"] == "parallel"]
        out.layers["trace.overhead_ratio"] = median(traced_ms) / out.e2e["op_p50_ms"][0]
        out.layers["trace.coverage"] = out.layers["pipeline.parallel_runtime.exec_ms"] / median(traced_ms)
        service_probe(out, planner=True)
    return out


WORKLOADS = {
    "fig10_cold": fig10_cold,
    "serve_plan_cold": serve_plan_cold,
    "serve_warm_mix": serve_warm_mix,
    "train_iter": train_iter,
}
