"""Fail when a cold Figure 10 sweep leaves more memory live than a bound.

Run from the repository root with one or more model names, bound in MB
last: ``python tests/memory_ledger.py 13b 10``.  Runs one cold
in-process ``fig10.run(models=...)`` (sweep cache off, one job) under
``tracemalloc``, then prints the allocation sites that hold the most
memory once the sweep has returned (its memos, cached schedules and
compiled graphs) and the total still live.  Exits 1 when that total is
over the bound.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from pathlib import Path

#: Allocation sites listed, largest first.
TOP = 12


def live_after_sweep(models: list[str]) -> tuple[float, list[str]]:
    """MB still live after a cold sweep of ``models``, and the ``TOP``
    allocation sites holding it, one formatted line each."""
    os.environ["REPRO_SWEEP_CACHE"] = "0"
    os.environ["REPRO_JOBS"] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.experiments import fig10
    from repro.model import get_model

    specs = [get_model(name) for name in models]
    tracemalloc.start()
    fig10.run(models=specs)
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    stats = snapshot.statistics("lineno")
    lines = [
        f"{stat.size / 2**20:8.2f} MB {stat.count:9d} blocks  {stat.traceback[0]}"
        for stat in stats[:TOP]
    ]
    return sum(stat.size for stat in stats) / 2**20, lines


def main(argv: list[str]) -> int:
    models, bound = argv[:-1], float(argv[-1])
    live, lines = live_after_sweep(models)
    print("\n".join(lines))
    print(f"live after the sweep: {live:.1f} MB (bound {bound:g} MB)")
    return 1 if live > bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
