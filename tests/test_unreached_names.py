"""The guard against ``src/`` code only tests reach
(``tests/unreached_names.py``): clean on the tree, and it catches a
seeded test-only definition together with what only that calls."""

import shutil
from pathlib import Path

from tests import unreached_names

REPO = Path(__file__).resolve().parents[1]


def test_every_src_definition_is_reached():
    assert unreached_names.unreached(REPO) == []


def test_seeded_test_only_code_is_reported(tmp_path, monkeypatch):
    for folder in ("src", "bench", "examples"):
        shutil.copytree(
            REPO / folder,
            tmp_path / folder,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    flops = tmp_path / "src/repro/model/flops.py"
    lines = flops.read_text().count("\n")
    flops.write_text(
        flops.read_text()
        + "\n\ndef only_tests_call_this():\n    return _only_it_calls()\n"
        + "\n\ndef _only_it_calls():\n    return 1\n"
    )
    monkeypatch.setitem(unreached_names.ALLOWED, "no_such_name", "stale")
    assert unreached_names.unreached(tmp_path) == [
        f"src/repro/model/flops.py:{lines + 3} only_tests_call_this",
        f"src/repro/model/flops.py:{lines + 7} _only_it_calls",
        "ALLOWED lists no_such_name, which src/ does not define",
    ]
