"""ellorders benchmark: three scan workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {corpus,density,quadratic} \
        --seed N --seconds S --trace {0,1}

Closed loop, one caller, workers=1: passes run back to back, each in a fresh
interpreter (see worker.py), until S seconds have gone and at least
MIN_PASSES passes are done.  The seed only permutes the order of the scans
within each pass.  Every pass is checked against golden.json.

--trace 0 reports the end-to-end metrics, as medians over the passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones plus trace_overhead, the traced wall_s over the
untraced wall_s.  The last line of stdout is the result as one JSON object;
the line before it is the full record with provenance and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
# workload -> {scan key -> golden outputs}
GOLDEN = json.loads((HERE / "golden.json").read_text())
MIN_PASSES = 3
# A run must end within 180 s: no pass starts after this, and none may
# outlast it by more than its own timeout.
LAST_START_S = 120
PASS_TIMEOUT_S = 170
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def _units():
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_pass(workload, order, traced, deadline):
    """One worker process; returns its report, or None if it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("ELLORDERS_SCAN_CEILING", "ELLORDERS_CACHE_DIR",
                "ELLORDERS_RESOLVER_URL"):
        env.pop(var, None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--order", ",".join(map(str, order)),
           "--spawned-at", repr(time.time())]
    if traced:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"pass timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pass exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GOLDEN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ellorders" / "__init__.py").is_file():
        print(f"error: no ellorders package under {SRC}", file=sys.stderr)
        return 2
    units = _units()
    # Unwind on SIGTERM too, so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    rng = random.Random(args.seed)
    n_scans = len(GOLDEN[args.workload])
    start = time.monotonic()
    reports = {False: [], True: []}
    attempted = failed = 0
    while True:
        traced = bool(args.trace) and len(reports[False]) > len(reports[True])
        order = rng.sample(range(n_scans), n_scans)
        rep = run_pass(args.workload, order, traced, start + PASS_TIMEOUT_S)
        if rep is None:
            print("error: a pass did not complete", file=sys.stderr)
            return 1
        reports[traced].append(rep)
        attempted += rep["attempted"]
        failed += len(rep["failures"])
        for msg in rep["failures"]:
            print(f"check failed: {msg}", file=sys.stderr)
        elapsed = time.monotonic() - start
        done = (reports[True] if args.trace
                else len(reports[False]) >= MIN_PASSES)
        if (elapsed >= args.seconds and done) or elapsed >= LAST_START_S:
            break

    plain, traced_reps = reports[False], reports[True]
    if args.trace and not traced_reps:
        print("error: no traced pass fit in the time limit", file=sys.stderr)
        return 1

    def median(reps, key):
        return statistics.median(r[key] for r in reps)

    if args.trace:
        names = traced_reps[0]["layers"]
        values = {n: statistics.median(r["layers"][n] for r in traced_reps)
                  for n in names}
        values["trace_overhead"] = (median(traced_reps, "wall_s")
                                    / median(plain, "wall_s"))
    else:
        values = {n: median(plain, n) for n in END_TO_END}
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced_reps)},
        "per_pass": {n: [r[n] for r in plain] for n in END_TO_END},
        "error_rate": failed / attempted,
        "trace_overhead": values.get("trace_overhead"),
        "provenance": {
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": plain[0]["python"],
            "numpy": plain[0]["numpy"],
        },
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
