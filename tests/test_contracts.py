"""Contracts between ``src/`` and the things that cannot follow a rename.

``bench/`` is frozen between benchmark-type PRs and its traced ledger is
only exercised by the slow ``pytest bench/`` job, so a ``src/``
simplification that removes a name it imports would otherwise surface
late; the docs name environment variables nothing else ties to the code.
Both are checked here from the sources alone — nothing is executed.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Module-valued names ``bench/`` binds by ``from … import`` and then
#: reaches through by attribute.
MODULE_ALIASES = {
    "gencache": "repro.schedules.gencache",
    "pool": "repro.planner.pool",
}


def _bench_references() -> set[tuple[str, str, str]]:
    """``(bench file, repro module, attribute)`` for every ``from repro…
    import name`` and every ``gencache.`` / ``pool.`` attribute use."""
    found = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").split(".")[0] == "repro":
                    for alias in node.names:
                        found.add((path.name, node.module, alias.name))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module = MODULE_ALIASES.get(node.value.id)
                if module is not None:
                    found.add((path.name, module, node.attr))
    return found


def test_every_name_bench_uses_resolves_under_src():
    references = _bench_references()
    # The scan sees what this contract exists for.
    for needed in (
        ("ledger.py", "repro.schedules.gencache", "clear"),
        ("ledger.py", "repro.schedules.gencache", "snapshot"),
        ("ledger.py", "repro.planner.pool", "stats"),
        ("ledger.py", "repro.planner.evaluate", "task_class_key"),
        ("ledger.py", "repro.planner.evaluate", "config_bounds_batch"),
    ):
        assert needed in references
    missing = []
    for file, module_name, attr in sorted(references):
        module = importlib.import_module(module_name)
        assert Path(module.__file__).is_relative_to(SRC), module_name
        if hasattr(module, attr):
            continue
        try:  # ``from package import submodule``
            importlib.import_module(f"{module_name}.{attr}")
        except ImportError:
            missing.append(f"bench/{file}: {module_name}.{attr}")
    assert not missing, missing


ENV_VAR = re.compile(r"REPRO_[A-Z0-9_]+")


def _env_vars_read_in_src() -> set[str]:
    """Every string literal under ``src/`` that *is* a ``REPRO_*`` name
    (an ``os.environ`` key; prose that merely mentions one is longer)."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if ENV_VAR.fullmatch(node.value):
                    names.add(node.value)
    return names


def _env_vars_named_in(paths: list[Path]) -> set[str]:
    return {name for path in paths for name in ENV_VAR.findall(path.read_text())}


def test_environment_variables_match_the_docs():
    read = _env_vars_read_in_src()
    docs = sorted((ROOT / "docs").glob("*.md"))
    assert read and docs
    assert read <= _env_vars_named_in(docs), "read under src/ but not in docs/"
    named = _env_vars_named_in([*docs, ROOT / "README.md"])
    assert named <= read, "documented but read nowhere under src/"


def test_pipeline_names_one_multiprocessing_context():
    """Stage workers are born one way.  A second start method — a
    parameter, a fallback, a ``spawn`` literal — cannot reappear under
    ``src/repro/pipeline/`` without this noticing."""
    contexts, literals = [], []
    for path in sorted((SRC / "repro" / "pipeline").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) == "get_context"
                or getattr(node.func, "id", None) == "get_context"
            ):
                contexts.append(ast.unparse(node))
            elif isinstance(node, ast.Constant) and node.value in (
                "spawn", "forkserver"
            ):
                literals.append(f"{path.name}:{node.lineno}")
    assert contexts == ["mp.get_context('fork')"]
    assert literals == []
