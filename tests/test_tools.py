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
    got = bp.summarize(a, b, {"wall_s": {"better": "lower", "bound": 0.25},
                              "score": {"better": "higher", "bound": 0.25}})
    assert got["wall_s"] == {"a": (3.75, 4.5, 5.25), "b": (3.0, 3.5, 4.25),
                             "b_wins": 3, "pairs": 4, "verdict": "same"}
    assert got["score"]["b_wins"] == 0
    assert bp.quartiles([2.0]) == (2.0, 2.0, 2.0)
    lines = bp.render(got).splitlines()
    assert lines[0].split() == ["metric", "A", "median", "[q1,", "q3]", "B", "median",
                                "[q1,", "q3]", "change", "B", "wins", "verdict"]
    assert lines[1].split() == ["wall_s", "4.5", "[3.75,", "5.25]", "3.5", "[3,", "4.25]",
                                "-22.2%", "3/4", "same"]


def test_bench_pairs_verdicts():
    # A reads 10..19 over ten pairs (median 14.5, q3 - q1 = 4.5)
    bp = _bench_pairs()
    a = [{"m": float(v)} for v in range(10, 20)]

    def verdict(b_values, better="lower", bound=0.25):
        b = [{"m": float(v)} for v in b_values]
        return bp.summarize(a, b, {"m": {"better": better, "bound": bound}})["m"]["verdict"]

    # 9 wins and a tie, medians 14.5 -> 9.5: a gain
    assert verdict([v - 5 for v in range(10, 19)] + [19]) == "gain"
    # 8 wins in 10 is no gain, however large the change
    assert verdict([v - 9 for v in range(10, 18)] + [18, 19]) == "same"
    # 10 wins but medians 14.5 -> 10.5, within A's spread of 4.5
    assert verdict([v - 4 for v in range(10, 20)]) == "same"
    # higher is better: the same lower numbers are a loss of 5/14.5 = 34%
    assert verdict([v - 5 for v in range(10, 20)], better="higher") == "worse"
    # ... which a bound of 35% forgives
    assert verdict([v - 5 for v in range(10, 20)], better="higher", bound=0.35) == "same"
    # lower is better, median 14.5 -> 18.5: 28% worse, past a 25% bound
    assert verdict([v + 4 for v in range(10, 20)]) == "worse"
