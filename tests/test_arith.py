import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ellorders.arith import (
    COUNT_CEILING,
    _strong_lucas,
    factorize,
    is_prime,
    legendre,
    primes_in_range,
    sqrt_mod,
    valuation,
)
from ellorders.errors import InputError, ResourceError


def _trial_division_primes(hi):
    # independent oracle: no sieve, no numpy
    out = []
    for n in range(2, hi + 1):
        for q in range(2, int(math.isqrt(n)) + 1):
            if n % q == 0:
                break
        else:
            out.append(n)
    return out


class TestPrimes:
    def test_small_range_matches_trial_division(self):
        assert primes_in_range(2, 10) == [2, 3, 5, 7]
        assert primes_in_range(0, 2000) == _trial_division_primes(2000)

    def test_interior_range(self):
        assert primes_in_range(90, 110) == [97, 101, 103, 107, 109]

    def test_prime_count_to_1e5(self):
        assert len(primes_in_range(2, 10**5)) == 9592

    def test_agrees_with_is_prime_up_to_the_ceiling(self):
        # the sieve's mask is largest at the ceiling
        for lo, hi in ((10**6 - 1000, 10**6 + 5000),
                       (COUNT_CEILING - 3000, COUNT_CEILING)):
            assert primes_in_range(lo, hi) == [
                n for n in range(lo, hi + 1) if is_prime(n)]

    def test_is_prime_agrees_with_the_sieve_to_3e5(self):
        # four Miller-Rabin bases decide everything below 3215031751
        X = 3 * 10**5
        assert [n for n in range(X + 1) if is_prime(n)] == primes_in_range(0, X)

    def test_strong_pseudoprimes_to_the_first_bases(self):
        # the smallest strong pseudoprimes to base 2, to 2 and 3, to 2, 3
        # and 5, and to 2, 3, 5 and 7: the last is where four bases stop
        for n in (2047, 1373653, 25326001, 3215031751):
            assert not is_prime(n), n
        assert 3215031751 == 151 * 751 * 28351

    def test_ceiling_refused(self):
        with pytest.raises(ResourceError, match="ceiling"):
            primes_in_range(2, COUNT_CEILING + 1)

    def test_bad_range(self):
        with pytest.raises(InputError):
            primes_in_range(10, 2)

    def test_empty(self):
        assert primes_in_range(24, 28) == []


# the smallest strong pseudoprimes to every prime base up to 37, and up to 41
SPSP_37 = 318665857834031151167461  # 399165290221 * 798330580441
SPSP_41 = 3317044064679887385961981  # 1287836182261 * 2575672364521


class TestIsPrimeBeyondMillerRabin:
    def test_strong_pseudoprimes_are_composite(self):
        assert not is_prime(SPSP_37)
        assert not is_prime(SPSP_41)
        assert SPSP_41 == 1287836182261 * 2575672364521

    def test_factorize_refuses_the_pseudoprime(self):
        with pytest.raises(ResourceError):
            factorize(SPSP_41)

    def test_strong_lucas_pseudoprimes_below_20000(self):
        # composites passing the strong Lucas test with Selfridge's
        # parameters (OEIS A217255), among n with no prime factor below 41
        sympy = pytest.importorskip("sympy")
        small = [q for q in range(2, 41) if sympy.isprime(q)]
        passing = [n for n in range(43, 20000, 2)
                   if all(n % q for q in small) and _strong_lucas(n)]
        assert [n for n in passing if not sympy.isprime(n)] == [
            5459, 5777, 10877, 16109, 18971]
        assert [n for n in passing if sympy.isprime(n)] == [
            n for n in range(43, 20000, 2)
            if all(n % q for q in small) and sympy.isprime(n)]

    def test_agrees_with_sympy_on_large_numbers(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20240)
        cases = [SPSP_37, SPSP_41]
        for _ in range(200):
            p = sympy.nextprime(rng.randrange(10**23, 10**40))
            q = sympy.nextprime(rng.randrange(10**11, 10**14))
            cases += [p, p * q, q * q * q, p * p, rng.randrange(10**23, 10**40) | 1]
        assert [is_prime(n) for n in cases] == [sympy.isprime(n) for n in cases]


class TestLegendre:
    def test_examples(self):
        assert legendre(0, 7) == 0
        assert legendre(4, 7) == 1
        assert legendre(3, 7) == -1

    def test_five_is_a_square_exactly_mod_1_and_4(self):
        for p in primes_in_range(3, 10**4):
            if p == 5:
                continue
            want = 1 if p % 5 in (1, 4) else -1
            assert legendre(5, p) == want

    def test_non_prime_rejected(self):
        with pytest.raises(InputError):
            legendre(2, 15)
        with pytest.raises(InputError):
            legendre(2, 2)

    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=-10**6, max_value=10**6),
           st.sampled_from(primes_in_range(3, 300)))
    def test_multiplicative(self, a, b, p):
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


class TestSqrtMod:
    def test_examples(self):
        assert sqrt_mod(4, 7) == 2
        assert sqrt_mod(3, 7) is None
        assert sqrt_mod(0, 13) == 0

    def test_non_prime_rejected(self):
        with pytest.raises(InputError):
            sqrt_mod(4, 15)

    def test_exhaustive_small_primes(self):
        # oracle: the literal set of squares
        for p in primes_in_range(3, 200):
            squares = {}
            for r in range(p):
                squares.setdefault(r * r % p, min(r, p - r))
            for a in range(p):
                got = sqrt_mod(a, p)
                if a in squares:
                    assert got == squares[a]
                    assert got * got % p == a
                else:
                    assert got is None

    @given(st.sampled_from(primes_in_range(3, 5000)), st.integers(0, 10**9))
    @settings(max_examples=200)
    def test_root_squares_back(self, p, a):
        r = sqrt_mod(a, p)
        if r is not None:
            assert 0 <= r <= p // 2
            assert r * r % p == a % p


class TestValuation:
    def test_examples(self):
        assert valuation(25, 5) == 2
        assert valuation(-432, 3) == 3
        assert valuation(0, 7) == math.inf
        assert valuation(7, 5) == 0

    def test_fractions(self):
        from fractions import Fraction

        assert valuation(Fraction(5, 8), 2) == -3
        assert valuation(Fraction(9, 2), 3) == 2

    def test_needs_prime(self):
        with pytest.raises(InputError):
            valuation(10, 6)

    @given(st.integers(min_value=1, max_value=10**12),
           st.sampled_from([2, 3, 5, 7, 11, 13]))
    def test_exact_division(self, n, p):
        v = valuation(n, p)
        assert n % p**v == 0
        assert n % p ** (v + 1) != 0


class TestFactorize:
    def test_small(self):
        assert factorize(-720) == {2: 4, 3: 2, 5: 1}
        assert factorize(97) == {97: 1}

    def test_large_prime_cofactor_kept(self):
        q = 10**9 + 7
        assert factorize(12 * q) == {2: 2, 3: 1, q: 1}

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=100)
    def test_product_restores(self, n):
        prod = 1
        for q, e in factorize(n).items():
            assert is_prime(q)
            prod *= q**e
        assert prod == n
