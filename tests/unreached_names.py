"""Fail when ``src/`` defines a function, class or method that only
tests reach.

Run from the repository root: ``python tests/unreached_names.py``.
Names are matched by spelling, not resolved: a definition is reached
when its name appears (as a name, an attribute or an identifier-like
string) in code that runs, or in a reached definition's body.  Module
and class bodies outside any ``def``, and every file under ``bench/``
and ``examples/``, are the roots.  A definition's own name, imports,
``__all__`` lists and docstrings name nothing, and neither does the
body of a definition nothing reaches, so mutual or self references do
not keep dead code alive.  Dunder methods are reached by the language.
Names in ``ALLOWED`` count as reached.  Prints ``file:line name`` for
each unreached definition, and each ``ALLOWED`` name nothing defines,
and exits 1 if there is one.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from collections.abc import Iterator
from pathlib import Path

#: Code whose every name counts as reached.
ROOTS = ("bench", "examples")

#: Names reached from outside the scanned code, each with its reason.
ALLOWED = {
    "render_timelines": "EXPERIMENTS.md points readers to it for Figures 11-12",
    "all_oom": "SearchResult field the service and evaluation docs define",
    "from_json": "wire: the request/response types' JSON round-trip",
    "PipelineResult": "obs facade: the protocol SimResult and runtime results share",
    "JsonlSink": "obs facade: the JSONL event stream docs/observability.md defines",
    "read_jsonl": "obs facade: reads back what JsonlSink writes",
    "begin": "obs facade: the open half of the sink's begin/end span pair",
    "infer_stage_memory": "reference oracle the runtime's peak_live_bytes is held to",
    "reset_stats": "planner pool's test-isolation seam",
    "by_rule": "Report accessor; inlining it repeats its filter in 6-7 test files",
    "rule_ids": "Report accessor; inlining it repeats its filter in 6-7 test files",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Def:
    """One definition: where it is, its name, and what its body names."""

    def __init__(
        self, path: Path, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    ) -> None:
        self.path, self.line, self.name = path, node.lineno, node.name
        self.names: set[str] = set()


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(body, list)
        and bool(body)
        and body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_all(node: ast.AST) -> bool:
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _named(node: ast.AST) -> Iterator[str]:
    """The identifiers one node names."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.isidentifier():
            yield node.value


def _collect(path: Path, tree: ast.Module, roots: set[str], defs: list[_Def]) -> None:
    """Fill ``defs`` with the file's definitions and ``roots`` with what
    its code outside any function or method body names."""

    def scan(node: ast.AST, owner: _Def | None) -> None:
        (roots if owner is None else owner.names).update(_named(node))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) or _is_all(child):
                continue
            if _is_docstring(child, node):
                continue
            if not isinstance(child, _DEFS):
                scan(child, owner)
                continue
            entry = _Def(path, child)
            defs.append(entry)
            # Decorators, bases, defaults and annotations run where the
            # def stands, and so does a class body; a function body runs
            # only when the function is called.
            for part in child.decorator_list:
                scan(part, owner)
            if isinstance(child, ast.ClassDef):
                for part in (*child.bases, *child.keywords):
                    scan(part, owner)
                scan(ast.Module(body=child.body, type_ignores=[]), owner)
            else:
                scan(child.args, owner)
                if child.returns is not None:
                    scan(child.returns, owner)
                scan(ast.Module(body=child.body, type_ignores=[]), entry)

    scan(tree, None)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names_in(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_named(node))
    return names


def unreached(repo: Path) -> list[str]:
    """``file:line name`` of every ``src/`` definition no running code
    reaches, in file order, then any ``ALLOWED`` name ``src/`` no longer
    defines (a stale entry would excuse the next dead code of that name)."""
    roots: set[str] = set()
    defs: list[_Def] = []
    for path in sorted((repo / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _collect(path.relative_to(repo), tree, roots, defs)
    for folder in ROOTS:
        for path in sorted((repo / folder).rglob("*.py")):
            roots |= _names_in(path)
    reached = roots | set(ALLOWED) | {e.name for e in defs if _dunder(e.name)}
    pending = True
    while pending:
        pending = False
        for entry in defs:
            if entry.name in reached and not entry.names <= reached:
                reached |= entry.names
                pending = True
    dead = [f"{e.path}:{e.line} {e.name}" for e in defs if e.name not in reached]
    defined = {e.name for e in defs}
    stale = sorted(name for name in ALLOWED if name not in defined)
    return dead + [f"ALLOWED lists {n}, which src/ does not define" for n in stale]


def main(argv: list[str]) -> int:
    found = unreached(Path(argv[0]) if argv else Path("."))
    for line in found:
        print(line)
    if not found:
        print(f"every src/ definition is reached ({len(ALLOWED)} allowed)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
