"""The repo's benchmark: one command per workload.

    python3 bench/run.py --workload fig10_cold --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload fig10_cold --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --selfcheck [--smoke]
    python3 bench/run.py --make-golden

A run prints every metric by name with its unit and sample count, then
one JSON object as the last line of stdout.  ``--trace 0`` reports the
end-to-end metrics (tracing off); ``--trace 1`` re-runs the workload
with the span recorder and the layer ledger and reports the per-layer
metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any

import harness
from harness import BenchError

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}

#: Counts that must repeat exactly between two runs of the same code.
#: The median response size is left out: a plan body carries the server's
#: cumulative cache counters, whose digits depend on the seed's order.
EXACT_UNITS = ("count", "kcalls", "KB")
INEXACT = ("service.http.response_kb",)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; returns the driver's result object and what the
    human-readable listing needs beyond it."""
    from workloads import WORKLOADS

    harness.prime_pycache()
    out = WORKLOADS[name](seed, seconds, smoke, trace)
    yardstick, warning = out.yardstick.report()
    if trace:
        out.layers["machine.yardstick_ms"] = yardstick
        out.layers["machine.nproc"] = harness.NPROC
        missing = sorted(set(LAYERS) - set(out.layers))
        if missing:
            raise BenchError(f"{name}: traced run produced no {missing}")
        metrics = {n: (float(out.layers[n]), LAYERS[n]["unit"], 1) for n in LAYERS}
        run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        trace_path = harness.ROOT / "artifacts" / "bench" / run_id / "trace.json"
        out.spans.write_chrome(trace_path)
    else:
        metrics = {n: (v, E2E[n]["unit"], count) for n, (v, count) in out.e2e.items()}
        trace_path = None
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": v, "unit": unit} for n, (v, unit, _) in metrics.items()},
    }
    report = {
        "samples": {n: count for n, (_, _, count) in metrics.items()},
        "errors": out.errors,
        "warning": warning,
        "yardstick_ms": yardstick,
        "trace": None if trace_path is None else str(trace_path.relative_to(harness.ROOT)),
    }
    return result, report


def print_report(name: str, result: dict[str, Any], report: dict[str, Any]) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']} ==")
    for metric, entry in result["metrics"].items():
        print(
            f"{metric:44s} {entry['value']:14.4f} {entry['unit']:7s} "
            f"n={report['samples'][metric]}"
        )
    print(f"{'(machine.yardstick_ms)':44s} {report['yardstick_ms']:14.4f} ms")
    for error in report["errors"][:20]:
        print(f"FAILED OP: {error}")
    if report["warning"]:
        print(f"WARNING: {report['warning']}")
    if report["trace"]:
        print(f"trace written to {report['trace']}")


def selfcheck(seed: int, seconds: float, smoke: bool) -> int:
    """A/A: every workload twice — all of set A, then all of set B — and
    the two sets must agree within the benchmark's own bounds."""
    sets: list[dict[str, dict[str, Any]]] = []
    for label in "AB":
        results = {}
        for name in (w["name"] for w in SPEC["workloads"]):
            for trace in (False, True):
                print(f"-- set {label}: {name} trace={int(trace)}", flush=True)
                result, report = run_workload(name, seed, seconds, trace, smoke)
                print_report(name, result, report)
                results[name, trace] = result
        sets.append(results)
    a, b = sets
    breaches = 0
    print(f"\n{'workload':16s} {'metric':12s} {'A':>12s} {'B':>12s} {'|A-B|/A':>8s} {'bound':>6s}")
    for (name, trace), first in a.items():
        second = b[name, trace]
        breaches += first["failed"] + second["failed"]
        for metric, entry in first["metrics"].items():
            va, vb = entry["value"], second["metrics"][metric]["value"]
            if not trace:
                delta, bound = abs(va - vb) / va, E2E[metric]["bound"]
                verdict = "" if delta <= bound else "  BREACH"
                breaches += bool(verdict)
                print(f"{name:16s} {metric:12s} {va:12.3f} {vb:12.3f} {delta:8.3f} {bound:6.2f}{verdict}")
            elif entry["unit"] in EXACT_UNITS and metric not in INEXACT and va != vb:
                breaches += 1
                print(f"{name:16s} count {metric} differs: {va} vs {vb}  BREACH")
    print("selfcheck:", "ok" if not breaches else f"{breaches} breach(es)")
    return 1 if breaches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op lists; not comparable")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--make-golden", action="store_true")
    args = parser.parse_args(argv)

    harness.require_repo()
    if args.make_golden:
        import make_golden

        make_golden.regenerate()
        return 0
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds, args.smoke)
    if args.workload is None:
        parser.error("--workload is required")
    result, report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print_report(args.workload, result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
