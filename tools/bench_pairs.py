"""Alternating benchmark pairs of two revisions of this repository.

    python tools/bench_pairs.py REV_A REV_B --workload W --pairs N --seed S --seconds T

exports each revision (any git tree-ish) with `git archive` into a fresh
temporary directory, so no stale __pycache__ or untracked file of a working
tree rides along, and runs each export's `perfbench/run.py --trace 0` N
times, alternately: A first in odd pairs, B first in even ones.  It prints
every pair's end-to-end metrics, then for each metric both sides' median and
quartiles, the change of the medians, and in how many pairs B was better,
as BENCHMARK.json's "better" says.  A tie is no win.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev, dest):
    """Write the files of rev into dest."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the "data" filter where this Python has it (3.10.12, 3.11.4 on)
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run(tree, workload, seed, seconds):
    """{metric: value} of one perfbench run of the tree; raises if it failed
    or a golden check failed."""
    out = subprocess.run(
        [sys.executable, str(Path(tree) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"a golden check failed in {tree}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(a_runs, b_runs, better):
    """Per metric of better ({name: "lower" or "higher"}): both sides'
    quartiles and the pairs B won, from runs paired by position."""
    out = {}
    for name, way in better.items():
        a = [r[name] for r in a_runs]
        b = [r[name] for r in b_runs]
        sign = 1 if way == "lower" else -1
        out[name] = {
            "a": quartiles(a),
            "b": quartiles(b),
            "b_wins": sum(sign * (x - y) > 0 for x, y in zip(a, b)),
            "pairs": len(a),
        }
    return out


def render(summary):
    lines = [f"{'metric':<12} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
             f"{'change':>8} {'B wins':>7}"]
    for name, s in summary.items():
        (a1, am, a3), (b1, bm, b3) = s["a"], s["b"]
        change = (bm - am) / am * 100 if am else float("nan")
        lines.append(f"{name:<12} {am:<10.6g} [{a1:.6g}, {a3:.6g}]".ljust(47)
                     + f" {bm:<10.6g} [{b1:.6g}, {b3:.6g}]".ljust(35)
                     + f" {change:>+7.1f}% {s['b_wins']:>3}/{s['pairs']}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side, rev in (("A", args.rev_a), ("B", args.rev_b)):
            trees[side] = Path(tmp) / side
            export(rev, trees[side])
        runs = {"A": [], "B": []}
        for i in range(1, args.pairs + 1):
            for side in ("A", "B") if i % 2 else ("B", "A"):
                runs[side].append(run(trees[side], args.workload, args.seed, args.seconds))
            print(f"pair {i:>2}  " + "  ".join(
                f"{name} {runs['A'][-1][name]:.6g} -> {runs['B'][-1][name]:.6g}"
                for name in better), flush=True)
    print(f"{args.workload}: A = {args.rev_a}, B = {args.rev_b}, {args.pairs} pairs, "
          f"seed {args.seed}, {args.seconds:g} s a run")
    print(render(summarize(runs["A"], runs["B"], better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
