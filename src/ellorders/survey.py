"""Prime-range scans: congruence tables, densities, gcd of orders, families.

Every scan walks its primes in ascending order and folds or buckets one
stream of counts.  congruence_survey cuts its primes into fixed blocks of
CHUNK and counts them through walk._stored_counts: the traces the curve's
twist class has stored are read in this process, and the other primes go to
reduction._count_chunk, serially or one block per pool job, with their
traces stored here.  The other scans of a rational curve count through
walk.prime_walk, which reads the same store, and gcd_orders_quadratic is the
one fold of walk.quadratic_walk.  A table stores each scanned prime once, in
its cell; a check's report keeps only its violations, each with the exact
prime involved, and the number of primes checked.  Every bound and modulus is
refused by arith._bound unless it is an integer at or above its least value.
Scans are pure: the store only caches counts.
"""

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .arith import _bound, _euler, factorize, is_prime, legendre, primes_in_range
from .curve import (
    CurveK,
    CurveQ,
    _invariant_kernel,
    curve,
    make_family,
)
from .errors import DataIntegrityError, InputError
from .reduction import (
    CHUNK,
    _count_chunk,
    _good_at,
    _ints,
)
from .torsion import division_value_mod
from .walk import _stored_counts, prime_walk, quadratic_walk


@dataclass(frozen=True)
class SurveySpec:
    """Scan parameters: order modulus m, prime-class modulus N, bound X.

    Each is an integer; m and N are at least 1 and X at least 50.  m = 1
    collapses the order residues to a single bucket and is allowed even
    though nothing interesting survives it; same for N = 1.  The survey
    skips the bad primes and the divisors of 2 m N, and nothing else.
    """

    m: int
    N: int
    X: int

    def __post_init__(self):
        _bound(self.m, 1, "order modulus")
        _bound(self.N, 1, "prime-class modulus")
        _bound(self.X, 50, "prime bound")


@dataclass(frozen=True)
class CongruenceTable:
    """Scanned primes by cell: (p mod N, N_p mod m) -> ascending tuple of p.

    Each scanned prime is stored once; rows, total, cells and as_markdown
    are views of primes_by_cell, and ainvs is the integral model scanned.
    """

    m: int
    N: int
    X: int
    ainvs: tuple
    primes_by_cell: dict  # (s, t) -> ascending tuple of primes

    @cached_property
    def rows(self) -> dict:
        """s -> {t -> count}, both ascending."""
        rows = {}
        for (s, t), primes in sorted(self.primes_by_cell.items()):
            rows.setdefault(s, {})[t] = len(primes)
        return rows

    @property
    def total(self) -> int:
        return sum(map(len, self.primes_by_cell.values()))

    def cell(self, s: int, t: int) -> int:
        return len(self.primes_by_cell.get((s, t), ()))

    def cells(self):
        """Deterministic (s, t, count) walk, ordered by (s, t)."""
        for (s, t), primes in sorted(self.primes_by_cell.items()):
            yield s, t, len(primes)

    def as_markdown(self) -> str:
        head = f"| p mod {self.N} | counts mod {self.m} | primes |"
        rule = "|---:|---|---:|"
        lines = [head, rule]
        for s in sorted(self.rows):
            shown = ", ".join(str(t) for t in sorted(self.rows[s]))
            lines.append(f"| {s} | {shown} | {sum(self.rows[s].values())} |")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExpectedTable:
    """Allowed count residues per prime class, one row per class."""

    m: int
    N: int
    rows: dict  # s -> frozenset of allowed t

    def __post_init__(self):
        for s, allowed in self.rows.items():
            if not allowed:
                raise InputError(f"empty allowed set for p class {s}")


@dataclass(frozen=True)
class Violation:
    p: int
    count: int
    observed: int
    allowed: frozenset
    context: str = ""


@dataclass(frozen=True)
class ScanReport:
    """A check's violations, ascending by prime, and how many primes (or
    prime/parameter pairs) it checked.  It passed when nothing violated."""

    violations: tuple
    total: int

    @property
    def passed(self) -> bool:
        return not self.violations


def congruence_survey(c: CurveQ, spec: SurveySpec, workers: int = 1) -> CongruenceTable:
    """Bucket N_p mod m under p mod N over good primes up to X.

    Skipped primes: the bad ones and the divisors of 2 m N.  The primes
    are counted in fixed blocks of CHUNK, serially or one block per pool
    job, through the trace store, and bucketed in one ascending stream, so
    the table is identical for every worker count.  The pool has at most
    one process per block and per CPU, so a survey of at most CHUNK primes
    (X up to about 17,900) runs serially.  A worker count that is not an
    integer of at least 1, and a bound above COUNT_CEILING, are refused
    before any prime is sieved or counted.
    """
    _bound(workers, 1, "workers")
    skip = set(factorize(2 * spec.m * spec.N))
    ai = _ints(c)
    good = _good_at(ai)
    ps = [p for p in primes_in_range(2, spec.X) if p not in skip and good(p)]
    blocks = [ps[i:i + CHUNK] for i in range(0, len(ps), CHUNK)]
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, about 2 MB resident
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all its processes at the first job
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(_stored_counts(ai, blocks, pool.map))
    else:
        counts = _stored_counts(ai, blocks)
    cells = {}
    for p, n in zip(ps, chain.from_iterable(counts)):
        cells.setdefault((p % spec.N, n % spec.m), []).append(p)
    return CongruenceTable(spec.m, spec.N, spec.X, ai,
                           {key: tuple(primes) for key, primes in cells.items()})


def verify_expected(table: CongruenceTable, exp: ExpectedTable) -> ScanReport:
    """Containment check of an observed table against expected rows.

    Containment, not equality: a residue the expected row allows but the
    scan never hit is fine.  Violations list every offending prime with
    its recomputed count.
    """
    if table.m != exp.m or table.N != exp.N:
        raise InputError(
            f"modulus mismatch: table ({table.m}, {table.N}) vs "
            f"expected ({exp.m}, {exp.N})"
        )
    violations = []
    for (s, t), primes in table.primes_by_cell.items():
        allowed = exp.rows.get(s, frozenset())
        if t in allowed:
            continue
        context = f"p class {s}" if allowed else f"no expected row for p class {s}"
        violations.extend(
            Violation(p, count, t, allowed, context)
            for p, count in zip(primes, _count_chunk(table.ainvs, primes))
        )
    violations.sort(key=lambda v: v.p)
    return ScanReport(tuple(violations), table.total)


def empirical_density(table: CongruenceTable, s: int, t: int):
    """Fraction of scanned primes in the (s, t) cell, exact and as a float."""
    if table.total == 0:
        raise InputError("empty table has no densities")
    frac = Fraction(table.cell(s, t), table.total)
    return frac, float(frac)


def gcd_orders(c: CurveQ, X: int, include_bad: bool = True) -> int:
    """gcd of reduction orders over all primes up to X.

    Good p contributes the point count; bad p contributes the full count
    of the reduced curve unless include_bad is off.  Early exit at 1.
    """
    _bound(X, 50, "prime bound")
    g = 0
    for _, n in prime_walk(c, 2, X, None if include_bad else _good_at(_ints(c))):
        g = math.gcd(g, n)
        if g == 1:
            return 1
    return g


def gcd_orders_quadratic(c, d: int | None = None, X: int = 2000) -> int:
    """gcd of residue-field orders over Q(sqrt d): odd unramified good primes.

    Accepts a rational curve plus d, or a curve already written over the
    field (d then comes from the curve itself).  The one fold of
    walk.quadratic_walk: a multiple of the torsion order over the field, and
    of every torsion order in the isogeny class there.  Early exit at 1.
    """
    if isinstance(c, CurveK) and d is None:
        d = c.d
    if d is None:
        raise InputError("a rational curve needs the twisting integer d")
    _bound(X, 100, "prime bound")
    g = 0
    for _, _, n in quadratic_walk(c, d, X):
        g = math.gcd(g, n)
        if g == 1:
            return 1
    return g


def scan_supersingular(c: CurveQ, X: int, modulus: int = 1) -> list:
    """Good primes in [5, X] with trace zero, each with its residue mod modulus."""
    _bound(X, 50, "prime bound")
    _bound(modulus, 1, "modulus")
    return [(p, p % modulus)
            for p, n in prime_walk(c, 5, X, _good_at(_ints(c)))
            if n == p + 1]


def scan_anomalous(c: CurveQ, X: int, modulus: int = 1) -> list:
    """Good primes up to X whose own residue divides the point count."""
    _bound(X, 50, "prime bound")
    _bound(modulus, 1, "modulus")
    return [(p, p % modulus)
            for p, n in prime_walk(c, 2, X, _good_at(_ints(c)))
            if n % p == 0]


# family divisibility: name -> (count modulus, qualifying-prime predicate).
# The walk offers only primes, so the predicates test p-adic units and
# residues directly instead of re-proving p prime through valuation and
# legendre.


def _unit_at(x, p) -> bool:
    """Whether p divides neither the numerator nor the denominator of x."""
    x = Fraction(x)
    return x.numerator * x.denominator % p != 0


def _family3_ok(t, p):
    return p not in (2, 3) and _unit_at(t * (9 + 4 * t * t), p)


def _family5_ok(t, p):
    if p in (2, 3, 29) or not _unit_at(t, p):
        return False
    tf = Fraction(t)
    return _euler(tf.numerator * tf.denominator, p) == 1


def _kkp_ok(t, p):
    return p > 3 and _unit_at(t * (9 * t + 4), p)


_FAMILY_CHECKS = {
    "family3": (3, _family3_ok),
    "family5": (5, _family5_ok),
    "kkp": (3, _kkp_ok),
}


def verify_family(name: str, params: list, X: int) -> ScanReport:
    """Check the family's count-divisibility claim for each parameter value.

    Qualifying primes are the good ones satisfying the family's own
    hypothesis; for these families the hypothesis already rules out every
    bad prime, so the good-reduction filter is a belt-and-braces guard.
    The report's total counts the (t, p) pairs checked.
    """
    if name not in _FAMILY_CHECKS:
        raise InputError(f"unknown family {name!r}")
    _bound(X, 50, "prime bound")
    modulus, qualifies = _FAMILY_CHECKS[name]
    checked = 0
    violations = []
    for t in params:
        c = make_family(name, t)
        good = _good_at(_ints(c))
        for p, n in prime_walk(c, 2, X, lambda p: good(p) and qualifies(t, p)):
            checked += 1
            if n % modulus:
                violations.append(
                    Violation(p, n, n % modulus, frozenset({0}), f"t={t}")
                )
    violations.sort(key=lambda v: v.p)
    return ScanReport(tuple(violations), checked)


@dataclass(frozen=True)
class KubertVerdict:
    accepted: bool
    reason: str = ""
    psi_value: int | None = None
    count: int | None = None


def check_kubert_conditions(A, T: int, p: int) -> KubertVerdict:
    """Decide whether x = T carries a point of order p on the mod-p curve A.

    Wants, in order: nonsingular reduction, a y-coordinate over F_p above
    x = T, and the p-division polynomial vanishing at T.  On acceptance
    the point count is computed directly and must be divisible by p.
    """
    if not is_prime(p) or p == 2 or p > 31:
        raise InputError(f"expected an odd prime at most 31, got {p}")
    if len(A) != 5:
        raise InputError("five coefficients required")
    ai = tuple(int(a) % p for a in A)
    a1, a2, a3, a4, a6 = ai
    if _invariant_kernel(ai)[6] % p == 0:
        return KubertVerdict(False, "singular")
    T %= p
    rhs = (T**3 + a2 * T * T + a4 * T + a6) % p
    ydisc = ((a1 * T + a3) ** 2 + 4 * rhs) % p
    if legendre(ydisc, p) == -1:
        return KubertVerdict(False, "no z_T")
    # nonsingular mod p, so the plain integer lift is a curve
    psi = division_value_mod(curve(list(ai)), p, T, p)
    if psi:
        return KubertVerdict(False, "division polynomial nonzero at T", psi_value=psi)
    [n] = _count_chunk(ai, [p])
    if n % p:
        raise DataIntegrityError(f"accepted tuple has count {n} not divisible by {p}")
    return KubertVerdict(True, psi_value=0, count=n)
