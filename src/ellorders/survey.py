"""Prime-range scans: congruence tables, densities, gcd of orders, families.

Every scan of a rational curve counts its primes through reduction.prime_walk
(congruence_survey in fixed-size blocks, so its table does not depend on the
worker count), buckets or folds the counts, and reports violations with the
exact primes involved.  Scans are pure.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .arith import _euler, factorize, is_prime, legendre
from .curve import (
    CurveK,
    CurveQ,
    _invariant_kernel,
    curve,
    integral_model,
    make_family,
)
from .errors import (
    BadReductionError,
    DataIntegrityError,
    InputError,
    UnsupportedPrimeError,
)
from .reduction import (
    CHUNK,
    _count_chunk,
    _walk_primes,
    bad_primes,
    count_curveK_at_prime,
    prime_walk,
)
from .torsion import division_value_mod, quadratic_torsion_bound


@dataclass(frozen=True)
class SurveySpec:
    """Scan parameters: order modulus m, prime-class modulus N, bound X.

    m = 1 collapses the order residues to a single bucket and is allowed
    even though nothing interesting survives it; same for N = 1.
    """

    m: int
    N: int
    X: int
    exclusions: frozenset = frozenset()

    def __post_init__(self):
        if self.m < 1:
            raise InputError(f"order modulus must be positive, got {self.m}")
        if self.N < 1:
            raise InputError(f"prime-class modulus must be positive, got {self.N}")
        if self.X < 50:
            raise InputError(f"prime bound must be at least 50, got {self.X}")


@dataclass(frozen=True)
class CongruenceTable:
    m: int
    N: int
    X: int
    ainvs: tuple
    rows: dict  # s -> {t -> count}
    total: int
    primes_by_cell: dict  # (s, t) -> tuple of primes

    def cell(self, s: int, t: int) -> int:
        return self.rows.get(s, {}).get(t, 0)

    def cells(self):
        """Deterministic (s, t, count) walk, ordered by (s, t)."""
        for s in sorted(self.rows):
            for t in sorted(self.rows[s]):
                yield s, t, self.rows[s][t]

    def as_json(self) -> str:
        data = {
            "curve": [str(a) for a in self.ainvs],
            "m": self.m,
            "N": self.N,
            "X": self.X,
            "total": self.total,
            "rows": [
                {"p_class": s, "count_class": t, "primes": n}
                for s, t, n in self.cells()
            ],
        }
        return json.dumps(data, indent=2, sort_keys=True)

    def as_csv(self) -> str:
        lines = ["p_class,count_class,primes"]
        for s, t, n in self.cells():
            lines.append(f"{s},{t},{n}")
        return "\n".join(lines) + "\n"

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
    passed: bool
    matched: tuple
    violations: tuple
    densities: dict  # (s, t) -> Fraction
    total: int
    notes: tuple = ()

    def __post_init__(self):
        if self.passed != (not self.violations):
            raise DataIntegrityError("pass flag contradicts the violation list")


def _scan_chunk(args):
    ai, m, N, primes = args
    rows = {}
    cells = {}
    for p, n in zip(primes, _count_chunk(ai, primes)):
        s, t = p % N, n % m
        rows.setdefault(s, {})
        rows[s][t] = rows[s].get(t, 0) + 1
        cells.setdefault((s, t), []).append(p)
    return rows, cells


def _merge(parts):
    rows = {}
    cells = {}
    total = 0
    for part_rows, part_cells in parts:
        for s, bucket in part_rows.items():
            row = rows.setdefault(s, {})
            for t, n in bucket.items():
                row[t] = row.get(t, 0) + n
                total += n
        for key, ps in part_cells.items():
            cells.setdefault(key, []).extend(ps)
    cells = {key: tuple(sorted(ps)) for key, ps in cells.items()}
    return rows, cells, total


def congruence_survey(c: CurveQ, spec: SurveySpec, workers: int = 1) -> CongruenceTable:
    """Bucket N_p mod m under p mod N over good primes up to X.

    Excluded primes: the bad ones, divisors of 2 m N, and anything the
    spec adds on top.  Chunks are a fixed 2048 primes wide, so the merged
    table is identical for every worker count.  A bound above COUNT_CEILING
    is refused before any prime is sieved or counted.
    """
    skip = set(spec.exclusions) | set(bad_primes(c))
    skip |= set(factorize(2 * spec.m * spec.N))
    ps = _walk_primes(2, spec.X, lambda p: p not in skip)
    ai = tuple(int(a) for a in integral_model(c).ainvs)
    chunks = [ps[i:i + CHUNK] for i in range(0, len(ps), CHUNK)]
    jobs = [(ai, spec.m, spec.N, chunk) for chunk in chunks]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_chunk, jobs))
    else:
        parts = [_scan_chunk(job) for job in jobs]
    rows, cells, total = _merge(parts)
    return CongruenceTable(spec.m, spec.N, spec.X, ai, rows, total, cells)


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
    matched = []
    violations = []
    densities = {}
    for s, t, n in table.cells():
        primes = table.primes_by_cell[(s, t)]
        densities[(s, t)] = Fraction(n, table.total)
        allowed = exp.rows.get(s, frozenset())
        if t in allowed:
            matched.extend(primes)
            continue
        context = f"p class {s}" if allowed else f"no expected row for p class {s}"
        violations.extend(
            Violation(p, count, t, allowed, context)
            for p, count in zip(primes, _count_chunk(table.ainvs, primes))
        )
    violations.sort(key=lambda v: v.p)
    return ScanReport(
        passed=not violations,
        matched=tuple(sorted(matched)),
        violations=tuple(violations),
        densities=densities,
        total=table.total,
    )


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
    if X < 50:
        raise InputError(f"prime bound must be at least 50, got {X}")
    bad = frozenset() if include_bad else bad_primes(c)
    g = 0
    for _, n in prime_walk(c, 2, X, lambda p: p not in bad):
        g = math.gcd(g, n)
        if g == 1:
            return 1
    return g


def gcd_orders_quadratic(c, d: int | None = None, X: int = 2000) -> int:
    """gcd of residue-field orders over Q(sqrt d): odd unramified good primes.

    Accepts a rational curve plus d, or a curve already written over the
    field (d then comes from the curve itself).
    """
    if X < 100:
        raise InputError(f"prime bound must be at least 100, got {X}")
    if isinstance(c, CurveK):
        if d is not None and d != c.d:
            raise InputError(f"curve lives in Q(sqrt {c.d}), not Q(sqrt {d})")
        g = 0
        for p in _walk_primes(3, X, None):
            try:
                counts = count_curveK_at_prime(c, p)
            except (BadReductionError, UnsupportedPrimeError):
                continue
            for n in counts:
                g = math.gcd(g, n)
            if g == 1:
                return 1
        return g
    if d is None:
        raise InputError("a rational curve needs the twisting integer d")
    return quadratic_torsion_bound(c, d, X)


def scan_supersingular(c: CurveQ, X: int, moduli=()) -> list:
    """Good primes in [5, X] with trace zero, annotated mod each modulus."""
    if X < 50:
        raise InputError(f"prime bound must be at least 50, got {X}")
    if any(mod < 1 for mod in moduli):
        raise InputError(f"moduli must be positive, got {tuple(moduli)}")
    bad = bad_primes(c)
    return [(p, tuple(p % mod for mod in moduli))
            for p, n in prime_walk(c, 5, X, lambda p: p not in bad)
            if n == p + 1]


def scan_anomalous(c: CurveQ, X: int, modulus: int = 1) -> list:
    """Good primes up to X whose own residue divides the point count."""
    if X < 50:
        raise InputError(f"prime bound must be at least 50, got {X}")
    if modulus < 1:
        raise InputError(f"modulus must be positive, got {modulus}")
    bad = bad_primes(c)
    return [(p, p % modulus)
            for p, n in prime_walk(c, 2, X, lambda p: p not in bad)
            if n % p == 0]


def scan_twist_dichotomy(
    c: CurveQ, d: int, ell: int, X: int, inert_modulus: int | None = None
) -> ScanReport:
    """Check the split/inert count congruence against the twist by d.

    Over primes up to X away from the bad ones and from 2 d ell, the
    count must be 0 mod ell when d is a square mod p, and 2p+2 mod the
    inert modulus (ell by default) when it is not.  Passing an explicit
    inert modulus, typically the twist's own rational torsion order, is a
    lower-bound substitute for the sharpest admissible one; the report
    notes the substitution.
    """
    if X < 50:
        raise InputError(f"prime bound must be at least 50, got {X}")
    if ell < 2:
        raise InputError(f"need a modulus of at least 2, got {ell}")
    m_inert = ell if inert_modulus is None else inert_modulus
    skip = set(bad_primes(c)) | set(factorize(2 * d * ell * m_inert))
    matched = []
    violations = []
    split_hits = 0
    for p, n in prime_walk(c, 3, X, lambda p: p not in skip):
        if legendre(d % p, p) == 1:
            ok = n % ell == 0
            context = f"split, expected 0 mod {ell}"
            split_hits += ok
        else:
            ok = n % m_inert == (2 * p + 2) % m_inert
            context = f"inert, expected 2p+2 mod {m_inert}"
        if ok:
            matched.append(p)
        else:
            violations.append(Violation(p, n, n % ell, frozenset(), context))
    total = len(matched) + len(violations)
    densities = {}
    if total:
        densities[("split", 0)] = Fraction(split_hits, total)
    notes = ()
    if inert_modulus is not None:
        notes = (
            "inert congruence checked mod the twist's own rational torsion "
            "order, a divisor of the sharpest admissible modulus",
        )
    return ScanReport(
        passed=not violations,
        matched=tuple(matched),
        violations=tuple(violations),
        densities=densities,
        total=total,
        notes=notes,
    )


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
    """
    if name not in _FAMILY_CHECKS:
        raise InputError(f"unknown family {name!r}")
    if X < 50:
        raise InputError(f"prime bound must be at least 50, got {X}")
    modulus, qualifies = _FAMILY_CHECKS[name]
    matched = []
    violations = []
    for t in params:
        c = make_family(name, t=t)
        bad = bad_primes(c)
        for p, n in prime_walk(c, 2, X, lambda p: p not in bad and qualifies(t, p)):
            if n % modulus:
                violations.append(
                    Violation(p, n, n % modulus, frozenset({0}), f"t={t}")
                )
            else:
                matched.append(p)
    violations.sort(key=lambda v: v.p)
    return ScanReport(
        passed=not violations,
        matched=tuple(sorted(matched)),
        violations=tuple(violations),
        densities={},
        total=len(matched) + len(violations),
    )


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
