"""tools/sloc.py, the code-line counter the change log's counts come from,
and the summary of tools/bench_pairs.py."""

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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SLOC.with_name("bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary():
    # four pairs, paired by position: B is lower on wall_s in pairs 1, 2
    # and 4 and ties in pair 3; on a higher-is-better metric the same
    # numbers give B no win
    bp = _bench_pairs()
    a = [{"wall_s": v, "score": v} for v in (4.0, 5.0, 3.0, 6.0)]
    b = [{"wall_s": v, "score": v} for v in (3.0, 4.0, 3.0, 5.0)]
    got = bp.summarize(a, b, {"wall_s": "lower", "score": "higher"})
    assert got["wall_s"] == {"a": (3.75, 4.5, 5.25), "b": (3.0, 3.5, 4.25),
                             "b_wins": 3, "pairs": 4}
    assert got["score"]["b_wins"] == 0
    assert bp.quartiles([2.0]) == (2.0, 2.0, 2.0)
    lines = bp.render(got).splitlines()
    assert lines[0].split() == ["metric", "A", "median", "[q1,", "q3]", "B", "median",
                                "[q1,", "q3]", "change", "B", "wins"]
    assert lines[1].split() == ["wall_s", "4.5", "[3.75,", "5.25]", "3.5", "[3,", "4.25]",
                                "-22.2%", "3/4"]
