import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# a module, class and function docstring, comments, blank lines, a call
# over three lines and a string over three lines that is no docstring
SOURCE = '''"""A module docstring
over two lines."""
# a comment

import os
class C:
    """A class docstring."""
    x = 1  # a comment after code

    def f(self):
        """A function docstring."""
        return os.path.join(
            "a",
            "b")
    s = """a string
that is no
docstring"""
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # lines 5 (import), 6 (class), 8 (x), 10 (def), 12-14 (the call)
    # and 15-17 (the string) count; the docstrings, comment and blank
    # lines do not
    assert _tool().code_lines(SOURCE) == 10


def test_prints_each_file_and_the_total(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SOURCE)
    b.write_text("x = 1\n\n# done\n")
    r = subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                       capture_output=True, text=True, timeout=30)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.splitlines() == [f"    10 {a}", f"     1 {b}", "    11 total"]


def test_a_file_that_does_not_parse_exits_2(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(:\n")
    r = subprocess.run([sys.executable, str(TOOL), str(bad)],
                       capture_output=True, text=True, timeout=30)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith(f"error: {bad}: ") and r.stderr.count("\n") == 1
