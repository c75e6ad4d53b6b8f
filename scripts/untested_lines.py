"""List the statements of ``src/pseudoradar`` that no test runs.

An executable statement is the first line of every ``ast.stmt`` in
``src/pseudoradar/*.py``, except a docstring expression, a ``def`` or
``class`` header and an import. A statement ran when a line event of the
test run fell anywhere in it: on one of its own lines, or, for a compound
statement, inside its body (which runs only once the statement is entered).
That also credits a statement whose first executed instruction sits on a
later line of it, as in a parenthesised expression.

The line tracer (``sys.settrace`` and ``threading.settrace``) is installed
before ``pseudoradar`` is imported and records line events only in frames
whose code lives under ``src/pseudoradar``. The test suite runs in this
process, as ``pytest -q -p no:cacheprovider tests``.

    python3 scripts/untested_lines.py

Prints ``path:line: source`` for every statement that never ran, then the
count. Exits 1 if a statement never ran or the test run failed, else 0.
Tracing makes the test run take 1.4 to 1.8 times as long: 103 s and 132 s
on a 2-core VM, where tier-1 untraced takes about 74 s.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pseudoradar"


def statements(path: Path) -> dict[int, int]:
    """Each executable statement's first line, mapped to its last line."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                             ast.Import, ast.ImportFrom)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        out[node.lineno] = max(out.get(node.lineno, 0), node.end_lineno)
    return out


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        import pytest

        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        ran = hits.get(str(path), set())
        for first, last in sorted(statements(path).items()):
            total += 1
            if not any(line in ran for line in range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    for line in missed:
        print(line)
    print(f"{len(missed)} of {total} statements never ran")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
