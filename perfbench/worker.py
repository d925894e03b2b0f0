"""One pass of one benchmark workload, in a fresh interpreter.

Run by run.py, never imported by it.  A fresh interpreter per pass gives
every pass what a CLI invocation sees: cold in-process caches, an import of
the package, and a peak resident set of its own.

    python3 perfbench/worker.py --workload density --order 1,0 \
        --spawned-at <time.time() of the parent at spawn> [--trace]

prints one JSON line: set-up and pass timings, the correctness checks made
and failed, and the per-layer metrics when traced.  ``--record`` instead
runs the scans in order and stores their outputs as the golden results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
# Never created: offline label resolution then reads the bundled cache only,
# whatever the user's own cache holds.
NO_USER_CACHE = HERE / "no-user-cache"

DENSITY_X = 40_000
QUADRATIC_X = 500
# A8: marginal density of each count residue, within 0.05 of its limit.
A8_TARGETS = {"10,5": {0: 0.5, 6: 0.25, 8: 0.25}, "12,20": {0: 0.75, 6: 0.25}}
A8_TOLERANCE = 0.05


# One scan of a workload: ``run`` does the timed call into the package;
# ``outcome`` turns its result, outside the timed region, into the values
# compared field by field against the golden file.
Scan = namedtuple("Scan", "key run outcome")


def _corpus_scans(entry):
    def run():
        argv = ["corpus-verify", "--offline", "--format", "json",
                "--cache-dir", str(NO_USER_CACHE)]
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                entry(argv, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue().encode()

    def outcome(result):
        code, out = result
        return {
            "exit_code": code,
            "passed": json.loads(out)["passed"] if code in (0, 1) else None,
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
        }

    return [Scan("corpus-verify", run, outcome)]


def _density_scans(entry):
    from ellorders.curve import curve
    from ellorders.survey import SurveySpec

    scans = []
    for ainvs, m, N in (([1, 1, 0, -700, 34000], 10, 5),
                        ([0, 0, 0, -12, -11], 12, 20)):
        c, spec = curve(ainvs), SurveySpec(m, N, DENSITY_X)

        def outcome(table, key=f"{m},{N}"):
            cells = ";".join(f"{s},{t}:{','.join(map(str, ps))}"
                             for (s, t), ps in sorted(table.primes_by_cell.items()))
            within = all(
                abs(sum(r.get(t, 0) for r in table.rows.values()) / table.total
                    - target) <= A8_TOLERANCE
                for t, target in A8_TARGETS[key].items())
            return {
                "rows": {str(s): {str(t): n for t, n in sorted(r.items())}
                         for s, r in sorted(table.rows.items())},
                "total": table.total,
                "primes_by_cell_sha256": hashlib.sha256(cells.encode()).hexdigest(),
                "a8_within_tolerance": within,
            }

        scans.append(Scan(f"{m},{N}", lambda c=c, spec=spec: entry(c, spec),
                          outcome))
    return scans


def _quadratic_scans(entry):
    from ellorders.curve import everywhere_good_6, everywhere_good_33

    return [Scan(f"d={c.d}", lambda c=c: entry(c, X=QUADRATIC_X),
                 lambda g: {"gcd": g})
            for c in (everywhere_good_33(), everywhere_good_6())]


def setup(workload, tracer):
    """Import the package and build the workload's inputs."""
    from ellorders import catalog, cli, reduction, survey, torsion

    if workload == "corpus":
        # Resolving every label checks the inputs exist offline; it also
        # runs local data, whose cache is emptied again below.
        for rec in catalog.bundled_corpus():
            if rec.needs_resolution:
                catalog.as_curve(catalog.resolve_label(
                    rec.label, offline=True, cache_dir=NO_USER_CACHE))
        entry, name, build = cli.main, "cli.corpus_verify", _corpus_scans
    elif workload == "density":
        entry, name, build = (survey.congruence_survey,
                              "survey.congruence_survey", _density_scans)
    else:
        entry, name, build = (survey.gcd_orders_quadratic,
                              "survey.gcd_orders_quadratic", _quadratic_scans)
    scans = build(entry if tracer is None else tracer.wrap(name, entry))

    reduction._local_data_ints.cache_clear()
    torsion.torsion_over_Q.cache_clear()
    # After the inputs are built, so set-up records no spans.
    if tracer is not None:
        tracer.instrument()
    return scans


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(scans):
    """Run the scans in the given order; exceptions are kept, not raised.

    Returns (results by scan key, wall s, CPU s, peak resident MB).
    """
    results = {}
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for scan in scans:
        try:
            results[scan.key] = scan.run()
        except Exception as exc:  # a failed check, counted by the caller
            results[scan.key] = exc
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return results, wall, cpu, peak_mb


def check(workload, scans, results):
    """(checks attempted, list of failure messages) against the golden file."""
    golden = json.loads(GOLDEN.read_text())[workload]
    attempted, failures = 0, []
    for scan in scans:
        want = golden[scan.key]
        attempted += len(want)
        try:
            result = results[scan.key]
            if isinstance(result, Exception):
                raise result
            got = scan.outcome(result)
        except Exception as exc:  # every error is a failed check
            failures.extend([f"{scan.key}: {type(exc).__name__}: {exc}"] * len(want))
            continue
        failures.extend(f"{scan.key}: {field} is {got.get(field)!r}, "
                        f"expected {want[field]!r}"
                        for field in want if got.get(field) != want[field])
    return attempted, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "density", "quadratic"))
    ap.add_argument("--order", default="", help="scan order, comma separated")
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="store this workload's outputs in golden.json")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    scans = setup(args.workload, tracer)
    setup_s = (time.time() - args.spawned_at
               if args.spawned_at is not None else None)
    if args.order:
        scans = [scans[int(i)] for i in args.order.split(",")]

    results, wall, cpu, peak_mb = run_pass(scans)

    if args.record:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[args.workload] = {s.key: s.outcome(results[s.key]) for s in scans}
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    attempted, failures = check(args.workload, scans, results)

    import numpy
    report = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_mb,
        "attempted": attempted,
        "failures": failures,
        "layers": tracer.metrics() if tracer is not None else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
