"""Division polynomials, rational torsion, and quadratic-field torsion data.

Torsion over Q is found on the integral short model y^2 = x^3 + Ax + B,
where every torsion point is integral (Nagell-Lutz).  A gcd of good
reduction counts from the prime walk bounds its order, so each torsion
point lies over an integer root of the cubic or of a division polynomial
f_q, q a prime power of that gcd; _integer_roots finds them exactly, with
no factoring.  The rest of the walk cross-checks the result.
Over a quadratic field only the odd part is computed exactly (through the
twist decomposition); survey.gcd_orders_quadratic, the one fold of the
residue-field orders over Q(sqrt d), bounds the whole order.
MAZUR_STRUCTURES is torsion_over_Q's postcondition and the stop rule of its
cross-check walk.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime
from .curve import CurveQ, integral_model, invariants, quadratic_twist
from .errors import DataIntegrityError, InputError, ResourceError
from .reduction import _QQ, _check_field, _good_at, _ints, _mul, _pt_add
from .walk import prime_walk

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


def _peval(a, x, m=0):
    """a(x), reduced mod m at each step when m is given."""
    out = 0
    for coef in reversed(a):
        out = out * x + coef
        if m:
            out %= m
    return out


def _integer_roots(poly) -> list:
    """Integer roots of a squarefree integer polynomial, ascending, exactly.

    p is the first odd prime not dividing the leading coefficient at which
    every root mod p is simple; only primes of the discriminant can fail.
    Every integer root reduces to one of those roots, and Newton's step,
    with 1 / f' lifted beside it, lifts each of them uniquely to a root mod
    m = p^(2^k) until m passes 2M, where M = 1 + max |a_i| bounds every
    root (Cauchy).  So an integer root is its lift's residue in
    (-m/2, m/2], which is checked exactly.
    """
    deriv = [i * a for i, a in enumerate(poly)][1:]
    p = 3
    while True:
        if poly[-1] % p and is_prime(p):
            roots = [r for r in range(p) if _peval(poly, r, p) == 0]
            if all(_peval(deriv, r, p) for r in roots):
                break
        p += 2
    M = 1 + max(map(abs, poly[:-1]))
    out = []
    for r in roots:
        m = p
        inv = pow(_peval(deriv, r, p), -1, p)  # 1 / f'(r) mod m, lifted beside r
        while m <= 2 * M:
            m *= m
            r = (r - _peval(poly, r, m) * inv) % m
            inv = inv * (2 - _peval(deriv, r, m) * inv) % m
        r = r - m if 2 * r > m else r
        if abs(r) <= M and _peval(poly, r) == 0:
            out.append(r)
    return sorted(out)


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


def _seeds(b2, b4, b6, b8):
    """B = psi_2^2, f_3 and f_4 as polynomials in x, from the b-invariants."""
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
    inv = invariants(c)
    B, f3, f4 = _seeds(inv.b2, inv.b4, inv.b6, inv.b8)
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
    inv = invariants(integral_model(c))
    seeds = _seeds(inv.b2, inv.b4, inv.b6, inv.b8)
    B0, f3, f4 = (int(_peval(g, x0 % p)) % p for g in seeds)
    f = _f_sequence([0, 1, 1, f3, f4], B0 * B0 % p, m,
                    lambda a, b: a * b % p, lambda a, b: (a - b) % p)
    return f[m]


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


def _short_map_back(c: CurveQ, ci: CurveQ, b2):
    """Map (x, y) on the integral short model back to c's coordinates; ci
    is c's integral model and b2 its invariant."""
    m = 1
    for a in c.ainvs:
        m = m * a.denominator // math.gcd(m, a.denominator)
    a1, a3 = ci.a1, ci.a3

    def back(pt):
        xs, ys = pt
        xi = (xs - 3 * b2) / 36
        yi = (ys / 108 - a1 * xi - a3) / 2
        return (xi / m**2, yi / m**3)

    return back


def _reduction_bounds(ci: CurveQ):
    """Running gcd of N_p over the odd p <= 4000 where the curve is good,
    one value per prime.  _good_at decides, as in every scan, so each model
    of the curve walks the same primes."""
    bound = 0
    for _, n in prime_walk(ci, 3, 4000, _good_at(_ints(ci))):
        bound = math.gcd(bound, n)
        yield bound


@functools.lru_cache(maxsize=256)
def torsion_over_Q(c: CurveQ) -> TorsionGroup:
    """Exact rational torsion, from integer roots of division polynomials.

    On the integral short model y^2 = x^3 + Ax + B, A = -27 c4 and
    B = -54 c6, which is not minimized, every torsion point is integral
    (Nagell-Lutz).  The gcd b of good counts at odd primes, from the first
    8 primes of the cross-check walk, is a multiple of its order.  So the
    l-primary part, l in 2, 3, 5, 7 (Mazur), lies over the integer roots of
    f_q, q the l-part of b capped at 8, 9, 5 or 7, and for l = 2 of the
    cubic too; a root gives points where x^3 + Ax + B is a square.  The
    group is the sum of its parts.  Each generator is the least point under
    (|y|, x, y < 0).  The walk goes on while its gcd, which must stay a
    multiple of the found order, leaves room for a larger Mazur structure.
    """
    ci = integral_model(c)
    inv = invariants(ci)
    A = int(-27 * inv.c4)
    B = int(-54 * inv.c6)
    ai = (0, 0, 0, A, B)

    def add(P, Q):
        return _pt_add(P, Q, ai, _QQ)

    bounds = _reduction_bounds(ci)
    b = 0
    for b in itertools.islice(bounds, 8):
        pass
    qs = {cap: math.gcd(b, cap) for cap in (8, 9, 5, 7)}
    psi2_sq, f3, f4 = _seeds(0, 2 * A, 4 * B, -A * A)
    f = _f_sequence([[0], [1], [1], f3, f4], _pmul(psi2_sq, psi2_sq),
                    max(qs.values()), _pmul, _psub)
    group = [(None, 1)]
    for cap, q in qs.items():
        xs = _integer_roots(f[q]) if q > 2 else []
        if cap == 8:
            # solved even for an odd b: a 2-torsion point the counts miss
            # then fails the cross-check
            xs += _integer_roots([B, A, 0, 1])
        part = [(None, 1)]
        for x in xs:
            v = x**3 + A * x + B
            y = math.isqrt(v) if v >= 0 else -1
            if y * y == v:
                for pt in {(Fraction(x), Fraction(y)), (Fraction(x), Fraction(-y))}:
                    part.append((pt, _rat_order_up_to(pt, ai)))
        # orders of the parts are coprime, so a sum's order is their product
        group = [(add(P, Q), m * n) for P, m in group for Q, n in part]
    orders = {pt: o for pt, o in group if pt is not None}
    order = 1 + len(orders)
    n2 = max(orders.values(), default=1)
    if order % n2:
        raise DataIntegrityError("torsion point set is not a group")
    n1 = order // n2
    if n1 not in (1, 2) or n2 % n1 or (n1, n2) not in MAZUR_STRUCTURES:
        raise DataIntegrityError(f"impossible rational structure ({n1}, {n2})")

    def least(pts):
        return min(pts, key=lambda pt: (abs(pt[1]), pt[0], pt[1] < 0))

    gens = []
    if n2 > 1:
        gen2 = least(pt for pt, o in orders.items() if o == n2)
        gens.append(gen2)
        if n1 == 2:
            # n1 | n2, so (n2 / 2) gen2 is the 2-torsion point inside <gen2>
            inside = _mul(n2 // 2, gen2, add)
            gens.append(least(pt for pt, o in orders.items() if o == 2 and pt != inside))

    # b's gcd chain only shrinks, so checking b covers the first 8 bounds;
    # the search is exhaustive, so the walk only rules out larger structures
    for sampled, bound in enumerate(itertools.chain([b], bounds), 8):
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

    back = _short_map_back(c, ci, inv.b2)
    return TorsionGroup(n1, n2, tuple(back(pt) for pt in gens))


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def odd_torsion_over_quadratic(c: CurveQ, d: int) -> int:
    """Odd part of the torsion order over Q(sqrt d).

    The odd torsion over the quadratic field splits as the direct sum of the
    rational odd torsion of the curve and of its twist by d.
    """
    _check_field(d)
    base = torsion_over_Q(c).order
    tw = torsion_over_Q(quadratic_twist(c, d)).order
    return _odd_part(base) * _odd_part(tw)
