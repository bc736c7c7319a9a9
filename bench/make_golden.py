"""Regenerate ``bench/golden/`` (``python3 bench/run.py --make-golden``).

Only for a change that is *meant* to alter the planner's decisions or a
wire body; review the diff against EXPERIMENTS.md before committing it.
The Figure 10 report is refused unless it still carries the paper's
claims (the assertions of ``benchmarks/test_bench_fig10.py``).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from harness import (
    GOLDEN,
    BenchError,
    Server,
    http_json,
    prime_pycache,
    run_child,
    scratch_dir,
)
from workloads import COLD_PLANS, FIG10_MODELS, HELD_OUT, SMALL, plan_best, plan_key


def fig10_claims(text: str) -> None:
    """Raise unless the report says what Figure 10 / Table 8 say."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("llama-"):
            model, method, config, cell = re.split(r"\s{2,}", line.rstrip())
            rows[model, method] = (config, None if cell == "OOM" else float(cell.split()[0]))

    def claim(holds: bool, what: str) -> None:
        if not holds:
            raise BenchError(f"Figure 10 no longer shows that {what}")

    for method in ("vpp", "zb", "zbv"):
        claim(rows["llama-34b", method][1] is None, f"34B {method} is OOM")
    dapple = rows["llama-34b", "dapple"][0]
    claim(dapple.startswith("(16") and "yes" in dapple, "34B DAPPLE needs PP=16 and recomputation")
    claim(rows["llama-34b", "mepipe"][0] == "(16, 16, 1, no)", "34B MEPipe picks the s=16 variant")
    for (model, method), (_, ms) in rows.items():
        mepipe = rows[model, "mepipe"][1]
        claim(
            mepipe is not None and (method == "mepipe" or ms is None or mepipe < ms),
            f"MEPipe beats {method} on {model}",
        )


def regenerate() -> None:
    prime_pycache()
    GOLDEN.mkdir(exist_ok=True)
    report = run_child(
        "fig10", {"models": FIG10_MODELS}, REPRO_SWEEP_CACHE="0", REPRO_JOBS="1"
    )["text"]
    fig10_claims(report)
    (GOLDEN / "fig10.txt").write_text(report)

    plans, small = {}, {}
    with scratch_dir("golden-") as tmp:
        with Server(Path(tmp)) as server:
            for body in COLD_PLANS + HELD_OUT:
                status, payload, _ = http_json(server.address, "POST", "/v1/plan", body)
                if status != 200:
                    raise BenchError(f"plan {plan_key(body)} answered {status}: {payload}")
                plans[plan_key(body)] = plan_best(payload)
            for body in SMALL:
                status, payload, _ = http_json(server.address, "POST", f"/v1/{body['kind']}", body)
                if status != 200:
                    raise BenchError(f"{body['kind']} answered {status}: {payload}")
                small[body["kind"]] = payload
    (GOLDEN / "plans.json").write_text(json.dumps(plans, indent=1, sort_keys=True) + "\n")
    (GOLDEN / "small.json").write_text(json.dumps(small, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}/fig10.txt, plans.json ({len(plans)} plans), small.json")
