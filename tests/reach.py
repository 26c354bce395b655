"""List the statements of ``src/optinfo`` that no Tier-1 test runs.

Run from anywhere, with any extra pytest arguments after the script name:

    python tests/reach.py

It runs the Tier-1 suite (``pytest -q --continue-on-collection-errors``
from the repository root) in this process under ``sys.settrace`` and
``threading.settrace``, so statements run by the tests' worker threads
count, and then prints ``file:line: source`` for every executable
statement that no test ran, one a line, then a count. Child processes
(the CLI tests that start ``python -m optinfo``) are not traced, so a
statement that only they reach is listed. Beyond pytest, which runs the
suite, it uses the standard library alone. pytest's file name rules do not
collect it, and it imports ``optinfo`` only through the tests, after the
trace is set, so import-time statements count too.

A statement is executable when the compiler emits a line of it, which
leaves out docstrings and ``global`` declarations; a compound statement
(``if``, ``for``, ``def``, ...) is its header alone, down to the line
before its first body statement. It ran when the trace saw any of its
lines.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "optinfo")


def _code_lines(code) -> set:
    """Every line that ``code`` or a code object nested in it emits."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(source: str, filename: str):
    """(first, last) line of each statement's own lines, docstrings left out."""
    tree = ast.parse(source, filename)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(id(body[0]))
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans.append((first, max(first, last)))
    return sorted(spans)


def main(argv) -> int:
    files = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                   if name.endswith(".py"))
    seen = {path: set() for path in files}
    paths: dict = {}  # co_filename -> the set of lines seen in it, or None

    def local(frame, event, arg):
        if event == "line":
            paths[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            paths[name] = seen.get(os.path.realpath(name))
        return None if paths[name] is None else local

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in files:
        with open(path, encoding="utf-8") as f:
            source = f.read()
        emitted = _code_lines(compile(source, path, "exec"))
        lines = source.splitlines()
        for first, last in _statements(source, path):
            own = set(range(first, last + 1))
            if own & emitted and not own & seen[path]:
                missed.append(f"{os.path.relpath(path, ROOT)}:{first}: {lines[first - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} executable statements of src/optinfo that no test ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
