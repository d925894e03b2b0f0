"""Division polynomials, rational torsion, and quadratic-field torsion data.

Torsion over Q is computed by the Lutz-Nagell search on the short model
y^2 = x^3 + Ax + B that is minimal among integral short models, so every
model of a curve gives the same search; its integer roots are found in
exact integer arithmetic.  The result is cross-checked against a gcd of
good reduction counts from the prime walk.
Over a quadratic field only the odd part is computed exactly (through the
twist decomposition); the even part is bounded, and the growth catalogs say
which structures are possible at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, is_prime
from .curve import CurveQ, _icbrt, integral_model, invariants, quadratic_twist
from .errors import DataIntegrityError, InputError, ResourceError
from .reduction import (
    _QQ,
    _fq_field,
    _fq_pt_mul,
    _mul,
    _pt_add,
    count_points_fp,
    prime_walk,
    quadratic_walk,
)

# ---------------------------------------------------------------------------
# admissible torsion orders by field degree

S1 = frozenset({2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16})
S2 = frozenset({2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 24})
S3 = frozenset({2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 18, 20, 21, 24, 28})


@dataclass(frozen=True)
class TorsionCatalog:
    S1: frozenset
    S2: frozenset
    S3: frozenset


TORSION_CATALOG = TorsionCatalog(S1, S2, S3)


def admissible(m: int, degree: int) -> bool:
    """Membership of m in the admissible-order set for the field degree."""
    if degree not in (1, 2, 3):
        raise InputError(f"degree must be 1, 2 or 3, got {degree}")
    if m < 2:
        raise InputError(f"admissible orders start at 2, got {m}")
    return m in (S1, S2, S3)[degree - 1]


# the fifteen rational structures, as (n1, n2) with n1 | n2
MAZUR_STRUCTURES = tuple(
    [(1, n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    + [(2, n) for n in (2, 4, 6, 8)]
)

# possible torsion over a quadratic field, keyed by the rational structure
QUADRATIC_GROWTH = {
    (1, 1): frozenset({(1, 1), (1, 3), (1, 5), (1, 7), (1, 9)}),
    (1, 2): frozenset(
        {(1, 2), (1, 4), (1, 6), (1, 8), (1, 10), (1, 12), (1, 16),
         (2, 2), (2, 6), (2, 10)}
    ),
    (1, 3): frozenset({(1, 3), (1, 15), (3, 3)}),
    (1, 4): frozenset({(1, 4), (1, 8), (1, 12), (2, 4), (2, 8), (2, 12), (4, 4)}),
    (1, 5): frozenset({(1, 5), (1, 15)}),
    (1, 6): frozenset({(1, 6), (1, 12), (2, 6), (3, 6)}),
    (1, 7): frozenset({(1, 7)}),
    (1, 8): frozenset({(1, 8), (1, 16), (2, 8)}),
    (1, 9): frozenset({(1, 9)}),
    (1, 10): frozenset({(1, 10), (2, 10)}),
    (1, 12): frozenset({(1, 12), (2, 12)}),
    (2, 2): frozenset({(2, 2), (2, 4), (2, 6), (2, 8), (2, 12)}),
    (2, 4): frozenset({(2, 4), (2, 8), (4, 4)}),
    (2, 6): frozenset({(2, 6), (2, 12)}),
    (2, 8): frozenset({(2, 8)}),
}


def quadratic_growth_options(structure: tuple) -> frozenset:
    if structure not in QUADRATIC_GROWTH:
        raise InputError(f"{structure} is not a rational torsion structure")
    return QUADRATIC_GROWTH[structure]


# ---------------------------------------------------------------------------
# polynomial helpers: ascending coefficient lists, exact arithmetic


def _pnorm(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _padd(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _pnorm(out)


def _psub(a, b):
    return _padd(a, [-x for x in b])


def _pmul(a, b):
    if a == [0] or b == [0]:
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _pnorm(out)


def _peval(a, x):
    out = 0
    for coef in reversed(a):
        out = out * x + coef
    return out


DIVISION_POLY_GUARD = 30


@dataclass(frozen=True)
class DivisionPolynomial:
    m: int
    coefficients: tuple
    squared: bool  # True when the stored polynomial is psi_m^2 (even m)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return _peval(self.coefficients, x)


def _seeds(c: CurveQ):
    """B = psi_2^2, f_3 and f_4 as polynomials in x."""
    inv = invariants(c)
    b2, b4, b6, b8 = inv.b2, inv.b4, inv.b6, inv.b8
    B = [b6, 2 * b4, b2, 4]
    f3 = [b8, 3 * b6, 3 * b4, b2, 3]
    f4 = [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2]
    return B, f3, f4


def _f_sequence(f, B2, m: int, mul, sub) -> list:
    """Extend the seeds f_0 .. f_4 to the y-free division sequence f_0 .. f_m.

    psi_m = f_m for odd m, psi_m = psi_2 f_m for even m, with
    psi_2^2 = B = 4x^3 + b2 x^2 + 2 b4 x + b6; B2 is B^2.  The ring is
    given by its multiply and subtract, so the same recurrence runs on
    polynomials over Q and on values mod p.
    """
    f = list(f)
    for k in range(5, m + 1):
        if k % 2:
            mm = (k - 1) // 2
            lead = mul(f[mm + 2], mul(f[mm], mul(f[mm], f[mm])))
            tail = mul(f[mm - 1], mul(f[mm + 1], mul(f[mm + 1], f[mm + 1])))
            if mm % 2 == 0:
                f.append(sub(mul(lead, B2), tail))
            else:
                f.append(sub(lead, mul(tail, B2)))
        else:
            mm = k // 2
            left = mul(f[mm + 2], mul(f[mm - 1], f[mm - 1]))
            right = mul(f[mm - 2], mul(f[mm + 1], f[mm + 1]))
            f.append(mul(f[mm], sub(left, right)))
    return f


def division_polynomial(c: CurveQ, m: int) -> DivisionPolynomial:
    """psi_m for odd m; the univariate psi_m^2 for even m."""
    if m < 2:
        raise InputError(f"division polynomials start at m = 2, got {m}")
    if m > DIVISION_POLY_GUARD:
        raise ResourceError(
            f"m = {m} exceeds the coefficient-growth guard {DIVISION_POLY_GUARD}"
        )
    B, f3, f4 = _seeds(c)
    f = _f_sequence([[0], [1], [1], f3, f4], _pmul(B, B), m, _pmul, _psub)
    if m % 2:
        coeffs = f[m]
    else:
        coeffs = _pmul(B, _pmul(f[m], f[m]))
    return DivisionPolynomial(m, tuple(coeffs), squared=(m % 2 == 0))


def division_value_mod(c: CurveQ, m: int, x0: int, p: int) -> int:
    """f_m(x0) mod p by running the recurrence on values; fine for large m."""
    if m < 0:
        raise InputError("m must be nonnegative")
    if not is_prime(p) or p == 2:
        raise InputError("division values need an odd prime modulus")
    B0, f3, f4 = (int(_peval(g, x0 % p)) % p for g in _seeds(integral_model(c)))
    f = _f_sequence([0, 1, 1, f3, f4], B0 * B0 % p, m,
                    lambda a, b: a * b % p, lambda a, b: (a - b) % p)
    return f[m]


# ---------------------------------------------------------------------------
# group law over F_p on the long model (reduced from the integral model):
# reduction._pt_add over _fq_field(p, 0), whose pairs (u, 0) are F_p, since
# with r = 0 no product of two of them meets a nonzero v.


def _good_model(c: CurveQ, p: int):
    ci = integral_model(c)
    ai = tuple(int(a) for a in ci.ainvs)
    inv = invariants(ci)
    if int(inv.disc) % p == 0:
        raise InputError(f"group law helpers need good reduction at {p}")
    return tuple((a % p, 0) for a in ai)


def _lift(pt, ai, p):
    """pt as an F_{p^2} point, after checking that it lies on the curve."""
    if pt is None:
        return None
    x, y = pt
    a1, a2, a3, a4, a6 = (a for a, _ in ai)
    if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p:
        raise InputError(f"{pt} is not on the reduced curve mod {p}")
    return ((x % p, 0), (y % p, 0))


def _project(pt):
    return None if pt is None else (pt[0][0], pt[1][0])


def ec_add(p: int, c: CurveQ, P, Q):
    ai = _good_model(c, p)
    return _project(_pt_add(_lift(P, ai, p), _lift(Q, ai, p), ai, _fq_field(p, 0)))


def ec_mul(p: int, c: CurveQ, n: int, P):
    ai = _good_model(c, p)
    return _project(_fq_pt_mul(n, _lift(P, ai, p), ai, p, 0))


def _order_descent(pt, k, add):
    """Exact order of pt from a multiple k of it.

    For each prime power l^e of k, one scalar multiple (k / l^e) pt, then
    multiplications by l until it reaches the identity.  The e-th would
    reach it by the choice of k, so it is never made.
    """
    order = 1
    for ell, e in factorize(k).items():
        cur = _mul(k // ell**e, pt, add)
        while cur is not None and e:
            order *= ell
            e -= 1
            if e:
                cur = _mul(ell, cur, add)
    return order


def point_order(p: int, c: CurveQ, P) -> int:
    """Exact order of P in E(F_p), by descending from the group order."""
    ai = _good_model(c, p)
    P = _lift(P, ai, p)
    if P is None:
        return 1
    F = _fq_field(p, 0)
    return _order_descent(P, count_points_fp(c, p).count,
                          lambda A, B: _pt_add(A, B, ai, F))


# ---------------------------------------------------------------------------
# exact arithmetic over Q, for order-of-point checks: reduction._pt_add over
# _QQ, on the short model (0, 0, 0, A, B) and Fraction points


def _rat_order_up_to(pt, ai, limit=12):
    """The order of pt if it is at most limit, else None."""
    acc = pt
    for k in range(1, limit + 1):
        if acc is None:
            return k
        acc = _pt_add(acc, pt, ai, _QQ)
    return None


# ---------------------------------------------------------------------------
# torsion over Q


@dataclass(frozen=True)
class TorsionGroup:
    n1: int
    n2: int
    generators: tuple  # rational points in the input model's coordinates

    @property
    def order(self) -> int:
        return self.n1 * self.n2

    @property
    def structure(self) -> tuple:
        return (self.n1, self.n2)

    def __str__(self):
        if self.n2 == 1:
            return "trivial"
        if self.n1 == 1:
            return f"Z/{self.n2}"
        return f"Z/{self.n1} x Z/{self.n2}"


def _integer_cubic_roots(A: int, c: int) -> list:
    """Integer roots of x^3 + Ax + c, ascending, exactly.

    A root has |x| <= max(sqrt(2|A|), cbrt(2|c|)), since otherwise x^3
    outweighs Ax + c, so M below bounds every root.  The cubic is monotone
    on [-M, -s - 1], [-s, s] and [s + 1, M] with s = isqrt(-A // 3) (on all
    of [-M, M] when A >= 0), so a bisection in each piece finds its one
    possible root.
    """
    M = math.isqrt(2 * abs(A)) + _icbrt(2 * abs(c) or 1) + 1
    if A >= 0:
        pieces = ((-M, M, 1),)
    else:
        s = math.isqrt(-A // 3)
        pieces = ((-M, -s - 1, 1), (-s, s, -1), (s + 1, M, 1))

    def f(x):
        return x * (x * x + A) + c

    roots = []
    for lo, hi, sign in pieces:
        # sign * f rises on [lo, hi]; find the first x where it is >= 0
        if sign * f(lo) > 0 or sign * f(hi) < 0:
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        if f(lo) == 0:
            roots.append(lo)
    return roots


def _lutz_nagell_points(A: int, B: int, fac: dict) -> list:
    """(pt, order) for every affine torsion point of y^2 = x^3 + Ax + B,
    A and B integers.

    fac factors 4A^3 + 27B^2, which y^2 divides at every point with y != 0.
    """
    ys = [1]
    for q, e in fac.items():
        ys = [y * q**i for y in ys for i in range(e // 2 + 1)]
    # root-existence sieve: drop y when x^3 + Ax + (B - y^2) has no root
    # mod a few small moduli, which kills most of the divisor candidates
    sieves = []
    for q in (8, 9, 5, 7, 11, 13):
        table = bytearray(q)
        Aq = A % q
        for x in range(q):
            table[(-(x * x * x + Aq * x)) % q] = 1
        sieves.append((q, table))
    ys = [0] + sorted(ys)
    ys = [y for y in ys if all(t[(B - y * y) % q] for q, t in sieves)]
    pts = []
    for y in ys:
        for x in _integer_cubic_roots(A, B - y * y):
            pts.append((Fraction(x), Fraction(y)))
            if y:
                pts.append((Fraction(x), Fraction(-y)))
    ai = (0, 0, 0, A, B)
    orders = [(pt, _rat_order_up_to(pt, ai)) for pt in pts]
    return [(pt, o) for pt, o in orders if o is not None]


def _short_map_back(c: CurveQ, u: int):
    """Map (x, y) on the integral short model with u^4 divided out of A
    and u^6 out of B back to c's coordinates."""
    ci = integral_model(c)
    m = 1
    for a in c.ainvs:
        m = m * a.denominator // math.gcd(m, a.denominator)
    b2 = invariants(ci).b2
    a1, a3 = ci.a1, ci.a3

    def back(pt):
        xs, ys = pt[0] * u**2, pt[1] * u**3
        xi = (xs - 3 * b2) / 36
        yi = (ys / 108 - a1 * xi - a3) / 2
        return (xi / m**2, yi / m**3)

    return back


@functools.lru_cache(maxsize=256)
def torsion_over_Q(c: CurveQ) -> TorsionGroup:
    """Exact rational torsion, by Lutz-Nagell search plus a reduction bound.

    The integral short model y^2 = x^3 + Ax + B with A = -27 c4 and
    B = -54 c6 is made minimal among short models: q^4 leaves A and q^6
    leaves B while both divide, for each prime q of the discriminant.  So
    the search sees one model per curve, whatever model came in.  Its
    integer roots are exact.  The gcd of good counts at odd primes must be
    a multiple of the found order; the walk stops once that gcd rules out
    every larger Mazur structure.  The point search itself is exhaustive,
    so the found structure is returned either way.
    """
    ci = integral_model(c)
    inv = invariants(ci)
    A = int(-27 * inv.c4)
    B = int(-54 * inv.c6)
    D = 4 * A**3 + 27 * B * B
    try:
        fac = factorize(D)
    except ResourceError as exc:
        raise ResourceError(
            f"discriminant {-16 * D} too large for the torsion divisor search"
        ) from exc
    u = 1
    for q in fac:
        while A % q**4 == 0 and B % q**6 == 0:
            A, B, u = A // q**4, B // q**6, u * q
            fac[q] -= 12
    orders = dict(_lutz_nagell_points(A, B, fac))
    order = 1 + len(orders)
    n2 = max(orders.values(), default=1)
    if order % n2:
        raise DataIntegrityError("torsion point set is not a group")
    n1 = order // n2
    if n1 not in (1, 2) or n2 % n1 or (n1, n2) not in MAZUR_STRUCTURES:
        raise DataIntegrityError(f"impossible rational structure ({n1}, {n2})")

    gens = []
    if n2 > 1:
        gen2 = next(pt for pt, o in orders.items() if o == n2)
        gens.append(gen2)
        if n1 == 2:
            # n1 | n2, so (n2 / 2) gen2 is the 2-torsion point inside <gen2>
            ai = (0, 0, 0, A, B)
            inside = _mul(n2 // 2, gen2, lambda P, Q: _pt_add(P, Q, ai, _QQ))
            gens.append(
                next(pt for pt, o in orders.items() if o == 2 and pt != inside)
            )

    # reduction bound: the point search is exhaustive, so the bound only
    # needs to rule out larger structures; check as it shrinks
    disc = int(inv.disc)
    bound = sampled = 0
    for p, n in prime_walk(ci, 3, 4000, keep=lambda p: disc % p != 0):
        bound = math.gcd(bound, n)
        sampled += 1
        if bound % order:
            raise DataIntegrityError(
                f"reduction bound {bound} not divisible by found order {order}"
            )
        if sampled % 8 == 0 and not any(
            h1 % n1 == 0 and h2 % n2 == 0 and bound % (h1 * h2) == 0
            for h1, h2 in MAZUR_STRUCTURES
            if (h1, h2) != (n1, n2)
        ):
            break

    back = _short_map_back(c, u)
    return TorsionGroup(n1, n2, tuple(back(pt) for pt in gens))


def torsion_order(c: CurveQ) -> int:
    return torsion_over_Q(c).order


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def odd_torsion_over_quadratic(c: CurveQ, d: int) -> int:
    """Odd part of the torsion order over Q(sqrt d).

    The odd torsion over the quadratic field splits as the direct sum of the
    rational odd torsion of the curve and of its twist by d.
    """
    base = torsion_over_Q(c).order
    tw = torsion_over_Q(quadratic_twist(c, d)).order
    return _odd_part(base) * _odd_part(tw)


def quadratic_torsion_bound(c: CurveQ, d: int, max_prime: int = 2000) -> int:
    """gcd of residue-field counts over Q(sqrt d): a multiple of the torsion
    order there, and of every torsion order in the isogeny class over the
    field."""
    if max_prime < 100:
        raise InputError(f"the prime bound must be at least 100, got {max_prime}")
    bound = 0
    for _, _, n in quadratic_walk(c, d, max_prime):
        bound = math.gcd(bound, n)
        if bound == 1:
            break
    return bound
