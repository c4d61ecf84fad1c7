#!/usr/bin/env python3
"""Count the code lines and statements of each ``qdyson`` module and their
totals, and of the tests together.

A code line is one that is not blank, not a comment only, and not inside a
module, class or function docstring (found with ``ast``).  A statement is an
``ast`` statement node other than a docstring; unlike a line count, it does
not move when code is reformatted.  The ``tests`` line sums ``tests/*.py``,
so code moved from the package into the tests still shows.

    python scripts/count_code_lines.py
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import qdyson  # noqa: E402


def docstrings(tree: ast.Module) -> list[ast.Expr]:
    """The module, class and function docstrings."""
    return [
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    ]


def counts(source: str) -> tuple[int, int]:
    """(code lines, statements) of one module's source."""
    tree = ast.parse(source)
    docs = docstrings(tree)
    skip = {number for doc in docs for number in range(doc.lineno, doc.end_lineno + 1)}
    lines = sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )
    statements = sum(1 for node in ast.walk(tree) if isinstance(node, ast.stmt)) - len(docs)
    return lines, statements


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    package = pathlib.Path(qdyson.__file__).parent
    tests = pathlib.Path(__file__).resolve().parent.parent / "tests"
    total_lines = total_statements = 0
    print("module code_lines statements")
    for path in sorted(package.glob("*.py")):
        lines, statements = counts(path.read_text())
        total_lines += lines
        total_statements += statements
        print(f"{path.name} {lines} {statements}")
    print(f"total {total_lines} {total_statements}")
    test_counts = [counts(path.read_text()) for path in sorted(tests.glob("*.py"))]
    print("tests", *map(sum, zip(*test_counts)))


if __name__ == "__main__":
    main()
