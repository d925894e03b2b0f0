"""Spans around the calls that cross ellorders module boundaries.

The benchmark never edits the package.  Instead, after the package is
imported, every name a module imported from another ellorders module is
rebound to a wrapper that opens a span named after the callee's home module
(``survey._count_model_mod_p`` becomes a ``reduction._count_model_mod_p``
span).  A few kernels that are reached from inside their own module are
rebound in that module too (``OWN_KERNELS``).

Spans are folded into per-name totals as they close: calls, inclusive
seconds, and the seconds their child spans cover.  A pass makes millions of
``is_prime`` calls, so keeping one record per span would cost more memory
than the work it measures.  Self time of a span is its inclusive time minus
the time its children cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("arith", "curve", "reduction", "torsion", "survey", "catalog", "cli")

# Called from inside their own module, so no import binding leads to them.
OWN_KERNELS = {
    "arith": ("is_prime",),
    "reduction": ("_count_model_mod_p", "_local_data_ints", "_fq_group_order",
                  "_fq_enumerate"),
    "torsion": ("torsion_over_Q",),
}

# Computed bytes moved by one numpy residue-table count at an odd prime p:
# 33 passes over int64 arrays of length p.  Writes: arange, full, xs*xs, %p,
# the scatter, 4*xs, +b2, %p, *xs, +d4, %p, *xs, +b6, %p and the gather (15).
# Reads: xs*xs (2), %p, the scatter index, 4*xs, +b2, %p, *xs (2), +d4, %p,
# *xs (2), +b6, %p, the gather (index and table, 2) and the sum (18).
COUNT_FP_BYTES_PER_P = 33 * 8


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.covered = defaultdict(float)
        self.count_fp = []  # (p, seconds) per F_p count
        self.fq = []  # (p, seconds, order) per F_{p^2} group order
        self._open = []  # seconds covered by children, one slot per open span

    def wrap(self, name, fn, observe=None):
        calls, inclusive, covered, open_ = (
            self.calls, self.inclusive, self.covered, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                covered[name] += open_.pop()
                calls[name] += 1
                inclusive[name] += dt
                if open_:
                    open_[-1] += dt
            if observe is not None:
                observe(args, result, dt)
            return result

        return traced

    def _observers(self):
        return {
            "reduction._count_model_mod_p":
                lambda args, n, dt: self.count_fp.append((args[1], dt)),
            "reduction._fq_group_order":
                lambda args, n, dt: self.fq.append((args[1], dt, n)),
        }

    def instrument(self):
        """Rebind cross-module names in every ellorders module to spans."""
        observers = self._observers()
        wrappers = {}
        patches = []
        for layer in LAYERS:
            mod = importlib.import_module(f"ellorders.{layer}")
            for attr, obj in vars(mod).items():
                home = getattr(obj, "__module__", None)
                if (isinstance(obj, type) or not callable(obj)
                        or not isinstance(home, str)
                        or not home.startswith("ellorders.")):
                    continue
                if home != mod.__name__ or attr in OWN_KERNELS.get(layer, ()):
                    patches.append((mod, attr, obj))
        for mod, attr, fn in patches:
            if id(fn) not in wrappers:
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                wrappers[id(fn)] = self.wrap(name, fn, observers.get(name))
            setattr(mod, attr, wrappers[id(fn)])

    def metrics(self):
        """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
        c, s = self.calls, self.inclusive
        out = {
            "arith.sieve_calls": c["arith.primes_in_range"],
            "arith.sieve_s": s["arith.primes_in_range"],
            "arith.is_prime_calls": c["arith.is_prime"],
            "arith.is_prime_s": s["arith.is_prime"],
            "arith.legendre_calls": c["arith.legendre"],
            "catalog.resolve_calls": c["catalog.resolve_label"],
            "catalog.resolve_s": s["catalog.resolve_label"],
            "curve.invariants_K_s": s["curve.invariants_K"],
            "reduction.count_fp_calls": c["reduction._count_model_mod_p"],
            "reduction.count_fp_s": s["reduction._count_model_mod_p"],
            "reduction.count_fp_mb": sum(
                p for p, _ in self.count_fp if p > 2
            ) * COUNT_FP_BYTES_PER_P / 1e6,
            "reduction.local_calls": c["reduction._local_data_ints"],
            "reduction.local_s": s["reduction._local_data_ints"],
            "reduction.fq_calls": c["reduction._fq_group_order"],
            "reduction.fq_s": s["reduction._fq_group_order"],
            "reduction.fq_ms_p50": _percentile([dt for _, dt, _ in self.fq], 50) * 1e3,
            "reduction.fq_ms_p90": _percentile([dt for _, dt, _ in self.fq], 90) * 1e3,
            "reduction.fq_enum_calls": c["reduction._fq_enumerate"],
            "reduction.fq_enum_s": s["reduction._fq_enumerate"],
            "reduction.fq_square_share": (
                sum(n in ((p - 1) ** 2, (p + 1) ** 2) for p, _, n in self.fq)
                / len(self.fq) if self.fq else 0.0),
            "torsion.over_q_calls": c["torsion.torsion_over_Q"],
            "torsion.over_q_s": s["torsion.torsion_over_Q"],
            "torsion.quad_bound_s": s["torsion.quadratic_torsion_bound"],
        }
        # p1eK holds the primes nearest to 10^K on a log scale.
        for k in (3, 4, 5):
            per_call = [dt for p, dt in self.count_fp if round(math.log10(p)) == k]
            out[f"reduction.count_fp_us.p1e{k}"] = (
                statistics.median(per_call) * 1e6 if per_call else 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s[name] - self.covered[name]
                for name in s if name.split(".", 1)[0] == layer)
        return out


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
