"""Render Figure 10 cold at ``jobs=1`` and ``jobs=2`` against the golden.

Run from the repository root: ``python tests/fig10_golden.py``.  The
sweep cache is off, so every cell is computed; each rendering must be
byte-equal to ``bench/golden/fig10.txt`` (read, never written).  Prints
the sweep's own counts per worker setting: rows evaluated, cells a
memory ceiling pruned, and the ops their aborted builds emitted.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments import common, fig10
from repro.obs.sinks import MemorySink

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "fig10.txt"


def main() -> int:
    golden = GOLDEN.read_text()
    real_search = fig10.search
    failed = False
    for jobs in (1, 2):
        evaluated = 0

        def counting(*args):
            nonlocal evaluated
            result = real_search(*args)
            evaluated += len(result.evaluated)
            return result

        common.configure_planner(jobs=jobs, use_cache=False)
        sink = common.SETTINGS.sink = MemorySink()
        fig10.search = counting
        try:
            text = fig10.run().render()
        finally:
            fig10.search = real_search
        pruned = sum(e.value for e in sink.counters("pruned"))
        pruned_ops = sum(e.value for e in sink.counters("pruned_ops"))
        same = text == golden
        failed |= not same
        print(
            f"jobs={jobs}: golden {'equal' if same else 'DIFFERS'}; "
            f"evaluated {evaluated}, pruned {pruned:.0f}, "
            f"pruned_ops {pruned_ops:.0f}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
