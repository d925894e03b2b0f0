"""Weierstrass models over Q and over quadratic fields Q(sqrt(d)).

Coefficients are kept exact (Fraction over Q, QuadInt over quadratic fields).
A CurveQ is always nonsingular; invariants() also accepts a raw coefficient
sequence so singular models can still be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, inf, isqrt
from typing import NamedTuple

from .arith import _bound, factorize
from .errors import DataIntegrityError, InputError, SingularModelError


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InputError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class CurveQ:
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        if _invariant_kernel(self.ainvs)[6] == 0:
            raise SingularModelError(f"singular model {list(self.ainvs)}")

    @property
    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.ainvs)

    def __str__(self):
        return "[" + ",".join(str(a) for a in self.ainvs) + "]"


def curve(ainvs) -> CurveQ:
    """Build a curve from [a1, a2, a3, a4, a6]; rejects singular input."""
    vals = [_rat(a) for a in ainvs]
    if len(vals) != 5:
        raise InputError(f"expected 5 coefficients, got {len(vals)}")
    return CurveQ(*vals)


@dataclass(frozen=True)
class Invariants:
    """Fractions over Q; over Q(sqrt d) (CurveK) QuadInts, with j None."""

    b2: Fraction
    b4: Fraction
    b6: Fraction
    b8: Fraction
    c4: Fraction
    c6: Fraction
    disc: Fraction
    j: Fraction | None


def _invariant_kernel(ai):
    """(b2, b4, b6, b8, c4, c6, disc) of a1..a6 in any commutative ring.

    Only +, -, * and integer literals are used, so the same formulas serve
    Fraction, int, QuadInt and residues alike.
    """
    a1, a2, a3, a4, a6 = ai
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


def _transform_kernel(ai, r=0, s=0, t=0):
    """u^i a_i' of x = u^2 x' + r, y = u^3 y' + s u^2 x' + t, in any ring.

    The numerators of the new a1', a2', a3', a4', a6'; dividing them by u,
    u^2, u^3, u^4 and u^6 gives the model.  Only +, -, * are used, as in
    _invariant_kernel, so Tate's algorithm runs it on ints.
    """
    a1, a2, a3, a4, a6 = ai
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def invariants(c) -> Invariants:
    """Standard b, c, discriminant and j invariants.

    Accepts a CurveQ or any 5-sequence of exact rationals; a raw sequence may
    be singular, in which case j is None.
    """
    ai = c.ainvs if isinstance(c, CurveQ) else tuple(_rat(a) for a in c)
    b2, b4, b6, b8, c4, c6, disc = _invariant_kernel(ai)
    j = c4**3 / disc if disc != 0 else None
    return Invariants(b2, b4, b6, b8, c4, c6, disc, j)


def transformed(c: CurveQ, r=0, s=0, t=0, u=1) -> CurveQ:
    """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    r, s, t, u = _rat(r), _rat(s), _rat(t), _rat(u)
    if u == 0:
        raise InputError("scaling factor u must be nonzero")
    n1, n2, n3, n4, n6 = _transform_kernel(c.ainvs, r, s, t)
    return CurveQ(n1 / u, n2 / u**2, n3 / u**3, n4 / u**4, n6 / u**6)


def short_model(c: CurveQ) -> CurveQ:
    """Isomorphic model y^2 = x^3 + Ax + B keeping c4, c6 and disc unchanged."""
    inv = invariants(c)
    return CurveQ(
        Fraction(0), Fraction(0), Fraction(0),
        -inv.c4 / 48, -inv.c6 / 864,
    )


def integral_model(c: CurveQ) -> CurveQ:
    """The model scaled by u = 1/m, m the lcm of the coefficient denominators.

    The coefficients are then integers, but the scaling is not the smallest
    that makes them so: a6 = 51/10^11 becomes a6 * 10^66 where u = 1/100
    would do.  division_value_mod takes its x in these coordinates.
    """
    m = 1
    for a in c.ainvs:
        m = m * a.denominator // gcd(m, a.denominator)
    if m == 1:
        return c
    return transformed(c, u=Fraction(1, m))


def _squarefree(d: int) -> bool:
    return all(e == 1 for e in factorize(d).values())


def quadratic_twist(c: CurveQ, d) -> CurveQ:
    """Twist by squarefree d, returned as the short model with A d^2, B d^3."""
    _bound(d, -inf, "twist parameter")  # any integer, numpy's made int
    d = int(d)
    if d == 0 or not _squarefree(d):
        raise InputError(f"twist parameter must be nonzero and squarefree: {d}")
    sh = short_model(c)
    return CurveQ(
        Fraction(0), Fraction(0), Fraction(0),
        sh.a4 * d * d, sh.a6 * d**3,
    )


def _icbrt(k: int) -> int:
    """Floor of the cube root of an integer k >= 1, by integer Newton steps."""
    x = 1 << -(-k.bit_length() // 3)  # at least the root
    while True:
        y = (2 * x + k // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _is_nth_power(x: Fraction, n: int) -> bool:
    """Whether x is an n-th power in Q, for n in {2, 4, 6}; exact."""
    if x == 0:
        return True
    if x < 0:
        return False
    for k in (x.numerator, x.denominator):
        root = isqrt(k)
        if n == 4:
            root = isqrt(root)
        elif n == 6:
            root = _icbrt(root)
        if root**n != k:
            return False
    return True


def isomorphic(c1: CurveQ, c2: CurveQ) -> bool:
    """Whether the two curves are isomorphic over Q.

    Certificate: a common scaling u with c4' = u^4 c4 and c6' = u^6 c6.  u is
    recovered from the invariant ratios, so no model juggling is needed.
    """
    i1, i2 = invariants(c1), invariants(c2)
    if i1.j != i2.j:
        return False
    if i1.c4 != 0 and i1.c6 != 0:
        r4 = i2.c4 / i1.c4
        r6 = i2.c6 / i1.c6
        s = r6 / r4  # u^2
        return s > 0 and s * s == r4 and s**3 == r6 and _is_nth_power(s, 2)
    if i1.c4 == 0:  # j = 0
        if i2.c4 != 0:
            return False
        return _is_nth_power(i2.c6 / i1.c6, 6)
    # c6 = 0, j = 1728
    if i2.c6 != 0:
        return False
    return _is_nth_power(i2.c4 / i1.c4, 4)


# ---------------------------------------------------------------------------
# parametric families

def kkp(t) -> CurveQ:
    """y^2 = x^3 - (6t+3)x - (3t^2+6t+2); three divides the order of every
    good reduction away from t(9t+4)."""
    t = _rat(t)
    return curve([0, 0, 0, -(6 * t + 3), -(3 * t * t + 6 * t + 2)])


def family3(t) -> CurveQ:
    """y^2 = x^3 - 3(t^2+1)x^2 + 3x - 1, with a 3-division relation at x=1."""
    t = _rat(t)
    if t == 0:
        raise InputError("family3 needs t != 0")
    return curve([0, -3 * (t * t + 1), 0, 3, -1])


def family5(t) -> CurveQ:
    """y^2 = x^3 - 7tx^2 + 96t^2 x + 256t^3; the twist family with a
    5-division relation at x=0."""
    t = _rat(t)
    if t == 0:
        raise InputError("family5 needs t != 0")
    return curve([0, -7 * t, 0, 96 * t * t, 256 * t**3])


def kubert5(lam) -> CurveQ:
    """y^2 + (1-L)xy - Ly = x^3 - Lx^2: the one-parameter 5-torsion family."""
    lam = _rat(lam)
    if lam == 0:
        raise InputError("kubert5 needs a nonzero parameter")
    return curve([1 - lam, -lam, -lam, 0, 0])


def e1k(k: int, eps: int = 1) -> CurveQ:
    """kubert5 at eps * 5^k; split multiplicative at 5 with a 5k-gon fibre."""
    _bound(k, 1, "k")
    if eps not in (1, -1):
        raise InputError("e1k needs eps in {1, -1}")
    lam = Fraction(eps * 5**k)
    return curve([1 - lam, -lam, -lam, 0, 0])


def e2k(k: int, eps: int = 1) -> CurveQ:
    """The dual-parameter partner of e1k: y^2 + (eps 5^k - 1)xy - 5^(2k) y
    = x^3 - eps 5^k x^2."""
    _bound(k, 1, "k")
    if eps not in (1, -1):
        raise InputError("e2k needs eps in {1, -1}")
    m = Fraction(eps * 5**k)
    return curve([m - 1, -m, -(Fraction(5) ** (2 * k)), 0, 0])


_FAMILIES = {
    "kkp": kkp,
    "family3": family3,
    "family5": family5,
    "kubert5": kubert5,
    "e1k": e1k,
    "e2k": e2k,
}


def make_family(name: str, value) -> CurveQ:
    """The named family's curve at its one parameter (k for e1k and e2k)."""
    if name not in _FAMILIES:
        raise InputError(
            f"unknown family {name!r}; choose from {sorted(_FAMILIES)}"
        )
    return _FAMILIES[name](value)


# ---------------------------------------------------------------------------
# quadratic fields

@dataclass(frozen=True)
class QuadInt:
    """Algebraic integer (u + v sqrt(d)) / 2^half in Q(sqrt(d)).

    u, v and d must be integers (numpy's are stored as Python ints); half
    requires d = 1 mod 4 and u = v mod 2.  Stored in normalised form (half
    cleared when possible), so dataclass equality is semantic equality.
    """

    u: int
    v: int
    d: int
    half: bool = False

    def __post_init__(self):
        for name in ("u", "v", "d"):
            x = getattr(self, name)
            if type(x) is not int:  # the ring operations pass only ints
                _bound(x, -inf, name)  # any integer, kept as int
                object.__setattr__(self, name, int(x))
        d = self.d
        if d in (0, 1) or not _squarefree(abs(d)):
            raise InputError(f"field discriminant parameter must be squarefree, != 0, 1: {d}")
        if self.half:
            if d % 4 != 1:
                raise InputError(f"half-coordinates need d = 1 mod 4, got d = {d}")
            if (self.u - self.v) % 2 != 0:
                raise InputError("half-coordinates need u = v mod 2")
            if self.u % 2 == 0 and self.v % 2 == 0:
                object.__setattr__(self, "u", self.u // 2)
                object.__setattr__(self, "v", self.v // 2)
                object.__setattr__(self, "half", False)

    @classmethod
    def of_int(cls, n: int, d: int) -> "QuadInt":
        return cls(n, 0, d)

    def doubled(self):
        # (U, V) with value (U + V sqrt(d)) / 2
        if self.half:
            return self.u, self.v
        return 2 * self.u, 2 * self.v

    @classmethod
    def _from_doubled(cls, U: int, V: int, d: int) -> "QuadInt":
        if U % 2 == 0 and V % 2 == 0:
            return cls(U // 2, V // 2, d)
        return cls(U, V, d, half=True)

    def _check_same_field(self, other: "QuadInt"):
        if self.d != other.d:
            raise InputError(f"mixed fields: sqrt({self.d}) vs sqrt({other.d})")

    def __add__(self, other):
        other = self._coerce(other)
        self._check_same_field(other)
        U1, V1 = self.doubled()
        U2, V2 = other.doubled()
        return QuadInt._from_doubled(U1 + U2, V1 + V2, self.d)

    def __neg__(self):
        U, V = self.doubled()
        return QuadInt._from_doubled(-U, -V, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_same_field(other)
        U1, V1 = self.doubled()
        U2, V2 = other.doubled()
        # product of halves: ((U1 U2 + V1 V2 d) + (U1 V2 + U2 V1) sqrt(d)) / 4
        P = U1 * U2 + V1 * V2 * self.d
        Q = U1 * V2 + U2 * V1
        if P % 2 != 0 or Q % 2 != 0:
            raise DataIntegrityError("product left the ring of integers")
        return QuadInt._from_doubled(P // 2, Q // 2, self.d)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, QuadInt):
            return other
        if isinstance(other, int):
            return QuadInt.of_int(other, self.d)
        raise InputError(f"cannot mix QuadInt with {type(other).__name__}")

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("QuadInt powers must be nonnegative")
        out = QuadInt.of_int(1, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QuadInt":
        U, V = self.doubled()
        return QuadInt._from_doubled(U, -V, self.d)

    def norm(self) -> int:
        U, V = self.doubled()
        val = (U * U - V * V * self.d)
        if val % 4 != 0:
            raise DataIntegrityError("norm of an algebraic integer must be integral")
        return val // 4

    def trace(self) -> int:
        U, _ = self.doubled()
        return U

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __str__(self):
        if self.half:
            return f"({self.u}{self.v:+}*sqrt({self.d}))/2"
        return f"{self.u}{self.v:+}*sqrt({self.d})"


class RationalTwist(NamedTuple):
    """A curve over Q(sqrt d) with j in Q \\ {0, 1728} as a twist of a
    rational curve: CurveK._rational_twist."""

    e0: tuple  # E0's integral a-invariants
    c4c6: QuadInt
    m: int  # at a p prime to m, E0's count gives every place above p


@dataclass(frozen=True)
class CurveK:
    """Long Weierstrass model with coefficients in the ring of integers of
    Q(sqrt(d))."""

    a1: QuadInt
    a2: QuadInt
    a3: QuadInt
    a4: QuadInt
    a6: QuadInt

    def __post_init__(self):
        ds = {a.d for a in self.ainvs}
        if len(ds) != 1:
            raise InputError(f"coefficients from different fields: {sorted(ds)}")
        if self._invariants.disc.is_zero():
            raise SingularModelError("singular model over the quadratic field")

    @cached_property
    def _invariants(self) -> Invariants:
        # computed once per curve: scans over many primes ask for it at each
        return Invariants(*_invariant_kernel(self.ainvs), None)

    @cached_property
    def _rational_twist(self) -> RationalTwist | None:
        """(E0, c4 c6, m) when j is in Q \\ {0, 1728}, else None; decided once
        per curve.

        Then t = c4^3 / c6^2 = a / b is rational, and E is the quadratic
        twist by c6 / c4 of E0: y^2 = x^3 - 27 t x - 54 t (Silverman, AEC
        X.5), kept as its integral model scaled by b.  m = 6 N(c4 c6)
        N(disc): at a p prime to m, t and t - 1 = 1728 disc / c6^2 are
        p-units, so E0 is good at p and E at each place P above it, and
        E's trace at P is (c4 c6 | P) times E0's.
        """
        inv = self._invariants
        if inv.c4.is_zero() or inv.c6.is_zero():
            return None
        c6c6 = inv.c6 * inv.c6
        U, V = (inv.c4**3 * c6c6.conjugate()).doubled()
        if V:
            return None
        t = Fraction(U, 2 * c6c6.norm())
        a, b = t.numerator, t.denominator
        c46 = inv.c4 * inv.c6
        return RationalTwist((0, 0, 0, -27 * a * b**3, -54 * a * b**5), c46,
                             6 * c46.norm() * inv.disc.norm())

    @property
    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def d(self) -> int:
        return self.a1.d


def curve_K(ainvs, d: int) -> CurveK:
    """The curve over Q(sqrt d) with these QuadInt or integer coefficients; an
    integral Fraction, as a CurveQ holds, counts as its integer."""
    vals = []
    for a in ainvs:
        if not isinstance(a, QuadInt):
            if isinstance(a, Fraction) and a.denominator == 1:
                a = a.numerator
            _bound(a, -inf, "coefficient")
            a = QuadInt.of_int(a, d)
        vals.append(a)
    if len(vals) != 5:
        raise InputError(f"expected 5 coefficients, got {len(vals)}")
    return CurveK(*vals)


def invariants_K(c: CurveK) -> Invariants:
    return c._invariants


def everywhere_good_33() -> CurveK:
    """A curve over Q(sqrt(33)) with good reduction at every prime of the
    field.  Every odd unramified residue count is divisible by 3."""
    d = 33
    u = QuadInt(-462, -84, d)
    c = -34496  # 96 * c and -2 * c^2 below
    a4 = 96 * c * u * u
    a6 = -2 * c * c * u**3
    zero = QuadInt.of_int(0, d)
    return CurveK(zero, zero, zero, a4, a6)


def everywhere_good_6() -> CurveK:
    """A curve over Q(sqrt(6)) with unit discriminant: good reduction
    everywhere, residue counts divisible by 6 away from 2 and 3."""
    d = 6
    zero = QuadInt.of_int(0, d)
    a1 = QuadInt(8, -3, d)
    a3 = QuadInt(49, -20, d)
    return CurveK(a1, zero, a3, zero, zero)
