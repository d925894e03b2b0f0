"""Prime and residue arithmetic used everywhere else in the package.

Everything here is exact integer arithmetic.  numpy only shows up inside the
sieve, where the boolean-array formulation is an order of magnitude faster
than a pure Python loop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ResourceError

# Largest prime a walk sieves or a point count attempts, and so the largest
# scan bound.  The F_p counts in reduction are O(p) in time and memory up to
# its _LANE_FLOOR and at singular reductions; above it, the order finder's is
# about O(p^(1/4)) group operations per draw.  Their int64 arithmetic (the
# table and the lane finder) is exact up to here: no intermediate reaches
# 12 p^2 < 1.2*10^15.  The sieve's mask at this end is 10 MB.
COUNT_CEILING = 10**7

# Miller-Rabin bases, deterministic below _MR_BOUND: the smallest strong
# pseudoprime to all twelve is 318665857834031151167461 (Sorenson and
# Webster, 2015).  From there on a strong Lucas test joins base 2, which
# makes the test BPSW (Baillie and Wagstaff, 1980).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461

# Below this, the first four bases alone are deterministic: it is the
# smallest strong pseudoprime to 2, 3, 5 and 7, 151 * 751 * 28351
# (Jaeschke, 1993).  Every prime a count takes is far below it, and four
# bases test p = 30011 in 3.7 us against 10.1 us for twelve (timeit, 2-vCPU
# Xeon, CPython 3.11).
_MR4_BOUND = 3215031751

_TRIAL_BOUND = 10**7  # factorize's trial division limit


def is_prime(n: int) -> bool:
    """Exact below _MR_BOUND, from four Miller-Rabin bases below _MR4_BOUND
    and twelve above; BPSW, with no known counterexample, from there on."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES if n >= _MR4_BOUND else _MR_BASES[:4]:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters.

    n is odd and has no prime factor below 41.
    D is the first of 5, -7, 9, -11, ... with (D|n) = -1; P = 1 and
    Q = (1 - D)/4.  With n + 1 = d 2^s, n passes when U_d = 0 or
    V_{d 2^k} = 0 for some k < s, all mod n.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D|n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # 5 <= |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if V == 0:
            return True
    return False


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise InputError(f"expected an odd prime, got {p}")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) via the Euler criterion.  p must be an odd prime."""
    _require_odd_prime(p)
    return _euler(a, p)


def _euler(a: int, p: int) -> int:
    """(a|p) by the Euler criterion, for a p its caller already proved prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int):
    """Smaller square root of a mod p, or None when a is a non-residue.

    Tonelli-Shanks in the 1 mod 8 case; the shortcuts for p = 3 mod 4 and
    p = 5 mod 8 avoid the loop entirely.  p must be an odd prime.
    """
    _require_odd_prime(p)
    return _sqrt_mod(a, p)


def _sqrt_mod(a: int, p: int):
    """sqrt_mod, for an odd p its caller already proved prime."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    elif p % 8 == 5:
        r = pow(a, (p + 3) // 8, p)
        if r * r % p != a:
            r = r * pow(2, (p - 1) // 4, p) % p
    else:
        # Tonelli-Shanks.  Find a generator of the 2-Sylow subgroup first.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            t2 = t
            i = 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    return min(r, p - r)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, ascending, from one sieve of [0, hi].

    An end above COUNT_CEILING is refused before anything is allocated.
    """
    if lo < 0 or hi < lo:
        raise InputError(f"bad prime range [{lo}, {hi}]")
    if hi > COUNT_CEILING:
        raise ResourceError(
            f"scan bound {hi} exceeds the point count ceiling {COUNT_CEILING}")
    if hi < 2:
        return []
    mask = np.ones(hi + 1, dtype=bool)
    mask[:2] = False
    for q in range(2, math.isqrt(hi) + 1):
        if mask[q]:
            mask[q * q :: q] = False
    mask[:lo] = False
    primes = np.flatnonzero(mask)
    del mask  # 10 MB at the ceiling: gone before the list is built
    return [int(p) for p in primes]


def valuation(n, p: int):
    """p-adic valuation of a rational or integer n; math.inf for n = 0."""
    if p < 2 or not is_prime(p):
        raise InputError(f"valuation needs a prime, got {p}")
    from fractions import Fraction

    if n == 0:
        return math.inf
    if isinstance(n, Fraction):
        return valuation(n.numerator, p) - valuation(n.denominator, p)
    n = abs(int(n))
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def factorize(n: int) -> dict[int, int]:
    """Factor |n| by trial division up to _TRIAL_BOUND.

    A prime cofactor beyond the bound is accepted; a composite one means the
    input is out of scope for this package and raises ResourceError.
    """
    n = abs(n)
    if n == 0:
        raise InputError("cannot factor 0")
    factors: dict[int, int] = {}
    for q in (2, 3, 5):
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
    q = 7
    # wheel over 7, 11, 13, ... stepping 2/4; plain alternation is enough here
    step = 4
    while q * q <= n and q <= _TRIAL_BOUND:
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
        q += step
        step = 6 - step
    if n > 1:
        if n <= _TRIAL_BOUND**2 or is_prime(n):
            factors[n] = factors.get(n, 0) + 1
        else:
            raise ResourceError(
                f"composite cofactor {n} has no prime factor <= {_TRIAL_BOUND}"
            )
    return factors
