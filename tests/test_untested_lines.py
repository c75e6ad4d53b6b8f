import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "untested_lines.py"
spec = importlib.util.spec_from_file_location("untested_lines", SCRIPT)
untested_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(untested_lines)

SOURCE = '''"""Module docstring."""
import os
from sys import path

X = (1 +
     2)


def f(a):
    """Doc."""
    if a:
        return 1
    return 2


class C:
    y = 3
'''


def test_statements_skip_docstrings_headers_and_imports_and_span_their_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    # first line -> last line; an event on any line between counts as a run
    assert untested_lines.statements(path) == {5: 6, 11: 12, 12: 12, 13: 13, 17: 17}
