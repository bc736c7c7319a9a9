"""Fail when a function in a module is longer than a line budget.

Run from the repository root with one or more modules, budget last:
``python tests/function_lengths.py src/repro/schedules/greedy.py 150``.
Counts each function's lines from its ``def`` to its last line
(docstring, comments and blank lines included), nested functions on
their own as well as inside their parent.  Standard library only.
"""

from __future__ import annotations

import ast
import sys


def long_functions(path: str, budget: int) -> list[tuple[str, int]]:
    """``(name, lines)`` of every function in ``path`` over ``budget``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    return [
        (node.name, node.end_lineno - node.lineno + 1)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.end_lineno is not None
        and node.end_lineno - node.lineno + 1 > budget
    ]


def main(argv: list[str]) -> int:
    paths, budget = argv[:-1], int(argv[-1])
    failed = False
    for path in paths:
        found = long_functions(path, budget)
        for name, lines in found:
            print(f"{path}: {name} is {lines} lines (budget {budget})")
        if not found:
            print(f"{path}: every function within {budget} lines")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
