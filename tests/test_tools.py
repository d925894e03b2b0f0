"""tools/sloc.py, the code-line counter the change log's counts come from."""

import importlib.util
from pathlib import Path

SLOC = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"


def _sloc():
    spec = importlib.util.spec_from_file_location("sloc", SLOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path, capsys):
    # docstrings, comments and blank lines go; a string that is a value,
    # and each line of a statement that spans lines, count
    (tmp_path / "m.py").write_text(
        '"""Module docstring,\nover two lines."""\n\n'
        "# a comment\n"
        "import os  # trailing comment\n\n\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        '    s = """a value,\n    over two lines"""\n'
        "    return (x +\n"
        "            1)\n")
    (tmp_path / "n.py").write_text("x = 1\n")
    sloc = _sloc()
    assert sloc.code_lines(tmp_path / "m.py") == 6
    assert sloc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     6  m", "     1  n", "     7  total", ""]
