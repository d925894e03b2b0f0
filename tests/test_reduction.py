import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellorders import reduction
from ellorders.arith import factorize, is_prime, legendre, primes_in_range, sqrt_mod, valuation
from ellorders.curve import (
    QuadInt,
    _invariant_kernel,
    curve,
    curve_K,
    e1k,
    everywhere_good_6,
    everywhere_good_33,
    invariants_K,
    kubert5,
    transformed,
)
from ellorders.errors import (
    BadReductionError,
    DataIntegrityError,
    InputError,
    ResourceError,
    SingularModelError,
    UnsupportedPrimeError,
)
from ellorders.reduction import (
    Kodaira,
    ReductionType,
    _count_chunk,
    _count_table,
    _finder_rng,
    _fp_finder_count,
    _fq_enumerate,
    _fq_field,
    _fq_finder_count,
    _fq_group_order,
    _fq_norm,
    _lane_round,
    _order_finder,
    _pt_add,
    _pt_neg,
    _window_annihilators,
    bad_primes,
    count_curveK_at_prime,
    count_extension,
    count_fp2_direct,
    count_points_fp,
    local_data,
    twist_count_identity_check,
)
from ellorders.walk import quadratic_walk
from ellorders.survey import gcd_orders_quadratic


def _table(ai, p):
    """The table's count of one model at one prime."""
    [n] = _count_table([ai], [p])
    return n


class TestLocalData:
    def test_multiplicative_split_small_disc(self):
        ld = local_data(kubert5(1), 11)
        assert ld.kodaira.label == "I1"
        assert ld.rtype is ReductionType.SPLIT
        assert ld.reduced_count - 1 == 10  # nonsingular points: F_p^*
        assert ld.reduced_count == 11

    def test_mixed_bad_primes(self):
        c = curve([0, 1, 0, -333, -3537])
        assert local_data(c, 2).rtype is ReductionType.ADDITIVE
        assert local_data(c, 5).rtype is ReductionType.ADDITIVE
        ld3 = local_data(c, 3)
        assert ld3.rtype is ReductionType.SPLIT
        assert ld3.kodaira.label == "I3"

    def test_additive_seventeen(self):
        ld = local_data(curve([1, -1, 1, -199, 510]), 17)
        assert ld.rtype is ReductionType.ADDITIVE
        assert ld.reduced_count == 18

    def test_family_row_of_multiplicative_types(self):
        # the one-parameter 5^k family has type I_{5k} at 5
        for k in (1, 2):
            ld = local_data(e1k(k), 5)
            assert ld.kodaira.label == f"I{5 * k}"
            assert ld.rtype is ReductionType.SPLIT

    def test_scaling_does_not_change_local_data(self):
        c = kubert5(1)
        big = transformed(c, u=Fraction(1, 10))
        assert not local_data(big, 2).v_disc_min
        assert not local_data(big, 5).v_disc_min
        ld = local_data(big, 11)
        assert ld.kodaira.label == "I1"

    def test_stepwise_types_at_two(self):
        # worked through the algorithm by hand for these two
        assert local_data(curve([0, 0, 0, 0, 2]), 2).kodaira.label == "II"
        assert local_data(curve([0, 0, 0, 0, 4]), 2).kodaira.label == "IV*"

    def test_large_prime_table_types(self):
        assert local_data(curve([0, 0, 0, 5**3, 0]), 5).kodaira.label == "III*"
        assert local_data(curve([0, 0, 0, 0, 5**5]), 5).kodaira.label == "II*"
        assert local_data(curve([0, 0, 0, 5**2, 5**3]), 5).kodaira.label == "I0*"
        assert local_data(curve([0, 0, 0, 0, 5**2]), 5).kodaira.label == "IV"

    def test_nonprime_rejected(self):
        with pytest.raises(InputError):
            local_data(kubert5(1), 10)

    def test_kodaira_labels(self):
        assert Kodaira("I", 4).label == "I4"
        assert Kodaira("I*", 0).label == "I0*"
        assert str(Kodaira("III*")) == "III*"

    def test_transform_invariance_sweep(self):
        rng = random.Random(2024)
        done = 0
        while done < 60:
            ai = [rng.randrange(-20, 21) for _ in range(5)]
            try:
                c = curve(ai)
            except SingularModelError:
                continue
            done += 1
            for p in (2, 3, 5):
                ld = local_data(c, p)
                count_points_fp(c, p)  # raises if the count disagrees with the type
                moved = transformed(
                    c,
                    r=rng.randrange(-3, 4),
                    s=rng.randrange(-3, 4),
                    t=rng.randrange(-3, 4),
                )
                scaled = transformed(moved, u=Fraction(1, 6))
                for other in (moved, scaled):
                    ld2 = local_data(other, p)
                    assert ld2.kodaira == ld.kodaira
                    assert ld2.rtype == ld.rtype
                    assert ld2.v_disc_min == ld.v_disc_min


class TestCounting:
    def test_counts_at_bad_primes_match_reduced_curve(self):
        c = curve([0, 1, 0, -333, -3537])
        assert count_points_fp(c, 5).count == 6
        assert count_points_fp(c, 2).count == 3
        assert count_points_fp(c, 3).count == 3

    def test_good_count_has_trace(self):
        pc = count_points_fp(curve([0, 0, 0, -12, -11]), 7)
        assert pc.trace is not None
        assert pc.count == 7 + 1 - pc.trace

    def test_bad_count_has_no_trace(self):
        assert count_points_fp(kubert5(1), 11).trace is None

    def test_count_ceiling(self):
        with pytest.raises(ResourceError):
            count_points_fp(kubert5(1), 10**8 + 7)

    def test_brute_force_oracle_small_primes(self):
        # direct affine enumeration, written independently of the library path
        c = curve([1, -1, 1, -199, 510])
        a1, a2, a3, a4, a6 = (int(a) for a in c.ainvs)
        for p in (3, 5, 7, 11, 13):
            pts = 1
            for x in range(p):
                for y in range(p):
                    lhs = y * y + a1 * x * y + a3 * y
                    rhs = x**3 + a2 * x * x + a4 * x + a6
                    if (lhs - rhs) % p == 0:
                        pts += 1
            assert count_points_fp(c, p).count == pts

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-15, 15), min_size=5, max_size=5), st.sampled_from([3, 5, 7, 11, 13, 17]))
    def test_hasse_bound_random(self, ai, p):
        try:
            c = curve(ai)
        except SingularModelError:
            return
        pc = count_points_fp(c, p)
        if pc.trace is not None:
            assert pc.trace * pc.trace <= 4 * p

    def test_extension_recurrence_closed_forms(self):
        pc = count_points_fp(curve([0, 0, 0, -12, -11]), 7)
        n1, a = pc.count, pc.trace
        e2 = count_extension(pc, n=2)
        assert e2.count == n1 * (2 * 7 + 2 - n1)
        dual = 2 * 7 + 2 - n1
        e3 = count_extension(pc, n=3)
        assert e3.count == n1 * (7 * 7 - 7 + 1 + 8 * dual - n1 * dual)

    def test_supersingular_square(self):
        # trace zero in degree one forces (p+1)^2 in degree two
        assert count_extension(0, 7, 2).count == 64

    def test_extension_needs_good_reduction(self):
        with pytest.raises(InputError):
            count_extension(count_points_fp(kubert5(1), 11), n=2)

    def test_bare_trace_needs_prime(self):
        with pytest.raises(InputError):
            count_extension(3, None, 2)
        with pytest.raises(InputError):
            count_extension(30, 7, 2)  # violates the Hasse bound

    def test_degree_two_oracle(self):
        for ai, p in (
            ([0, 0, 0, -12, -11], 7),
            ([1, -1, 1, -199, 510], 11),
            ([0, 1, 0, -333, -3537], 13),
            ([0, -1, -1, 0, 0], 23),
        ):
            c = curve(ai)
            assert count_extension(count_points_fp(c, p), n=2).count == count_fp2_direct(c, p)

    def test_twist_identity(self):
        for p in (7, 11, 13, 37, 101):
            assert twist_count_identity_check(curve([0, 0, 0, -12, -11]), p)

    def test_twist_identity_on_non_minimal_models(self):
        # u = 1/7 and 1/11 make 7 and 11 divide the model's discriminant,
        # though the curve stays good there
        c = curve([0, 0, 0, -12, -11])
        for u, p in ((Fraction(1, 7), 7), (Fraction(1, 11), 11)):
            moved = transformed(c, u=u)
            assert _invariant_kernel(reduction._ints(moved))[6] % p == 0
            assert twist_count_identity_check(moved, p)
            assert count_points_fp(moved, p).count == count_points_fp(c, p).count

    def test_twist_identity_needs_good_prime(self):
        with pytest.raises(InputError):
            twist_count_identity_check(kubert5(1), 11)


def _walked_orders(c, d, X):
    """{p: (split, order)} from quadratic_walk of a rational curve."""
    return {p: (split, n) for p, split, n in quadratic_walk(c, d, X)}


class TestSplitting:
    # p splits in Q(sqrt d) when (d|p) = 1 and ramifies when p | d, in
    # quadratic_walk and count_curveK_at_prime alike
    def test_odd_prime_kinds(self):
        c = curve([0, 0, 0, -12, -11])
        ck = curve_K(c.ainvs, 33)
        walked = _walked_orders(c, 33, 17)
        assert walked[17][0] and len(count_curveK_at_prime(ck, 17)) == 2
        assert not walked[7][0] and len(count_curveK_at_prime(ck, 7)) == 1
        assert 11 not in walked
        with pytest.raises(UnsupportedPrimeError, match="ramifies"):
            count_curveK_at_prime(curve_K(c.ainvs, -15), 5)

    def test_bad_d_rejected(self):
        c = curve([0, 0, 0, -12, -11])
        for d in (12, 1):
            with pytest.raises(InputError):
                list(quadratic_walk(c, d, 50))
            with pytest.raises(InputError):
                curve_K(c.ainvs, d)

    def test_composite_p_rejected(self):
        ck = curve_K([0, 0, 0, -12, -11], 33)
        for p in (15, 1):
            with pytest.raises(InputError, match="need a prime"):
                count_curveK_at_prime(ck, p)


class TestQuadraticCounts:
    # a rational curve's orders at the places of K above p: quadratic_walk
    # yields them, and count_curveK_at_prime refuses where the walk skips
    def test_split_prime_gives_rational_count(self):
        c = curve([0, 0, 0, -12, -11])
        assert _walked_orders(c, 33, 17)[17] == (True, count_points_fp(c, 17).count)

    def test_inert_prime_gives_degree_two_count(self):
        c = curve([0, 0, 0, -12, -11])
        n2 = count_extension(count_points_fp(c, 7), n=2).count
        assert _walked_orders(c, 33, 7)[7] == (False, n2)

    def test_ramified_refused(self):
        c = curve([0, 0, 0, -12, -11])
        assert 11 not in _walked_orders(c, 33, 11)
        with pytest.raises(UnsupportedPrimeError):
            count_curveK_at_prime(curve_K(c.ainvs, 33), 11)

    def test_two_refused(self):
        c = curve([0, 0, 0, -12, -11])
        assert 2 not in _walked_orders(c, 33, 11)
        with pytest.raises(UnsupportedPrimeError):
            count_curveK_at_prime(curve_K(c.ainvs, 33), 2)

    def test_bad_reduction_flagged(self):
        c = kubert5(1)
        assert 11 not in _walked_orders(c, 6, 11)
        with pytest.raises(BadReductionError):
            count_curveK_at_prime(curve_K(c.ainvs, 6), 11)


_C = curve([0, 0, 0, -12, -11])


class TestArgumentTypes:
    # a prime, degree or integer argument that is no integer is refused
    # before it meets a comparison, a pow() or an int() that would take it
    @pytest.mark.parametrize("call", [
        lambda: is_prime(7.0),
        lambda: factorize(12.5),
        lambda: valuation(12.5, 2),
        lambda: valuation(12, 7.0),
        lambda: legendre(3, 7.0),
        lambda: sqrt_mod(2, 7.0),
        lambda: QuadInt(1, 2, 5.5),
        lambda: local_data(_C, 7.0),
        lambda: local_data(_C, "7"),
        lambda: count_points_fp(_C, 7.0),
        lambda: count_extension(0, 7.0, 2),
        lambda: count_extension(0, 7, 2.5),
        lambda: count_fp2_direct(_C, 7.0),
        lambda: twist_count_identity_check(_C, 7.0),
        lambda: count_curveK_at_prime(everywhere_good_33(), 7.0),
        lambda: count_curveK_at_prime(everywhere_good_33(), "7"),
        lambda: legendre(2.5, 7),
        lambda: sqrt_mod(2.5, 7),
        lambda: QuadInt(1.5, 2, 5),
        lambda: QuadInt(1, 2.5, 5),
        lambda: curve_K([0, 0, 0, 1.5, 1], 5),
        lambda: curve_K([0, 0, 0, Fraction(3, 2), 1], 5),
    ], ids=["is_prime", "factorize", "valuation-n", "valuation-p", "legendre",
            "sqrt_mod", "QuadInt", "local_data", "local_data-str",
            "count_points_fp", "count_extension-p", "count_extension-n",
            "count_fp2_direct", "twist_identity", "count_curveK",
            "count_curveK-str", "legendre-a", "sqrt_mod-a", "QuadInt-u",
            "QuadInt-v", "curve_K-float", "curve_K-fraction"])
    def test_non_integer_refused(self, call):
        with pytest.raises(InputError, match="must be an integer"):
            call()

    def test_numpy_integers_are_stored_as_ints(self):
        # a numpy int never reaches a QuadInt product, where int64 wraps
        z = QuadInt(np.int64(3), np.int64(1), np.int64(5))
        ck = curve_K([0, 0, 0, np.int64(-12), -11], np.int64(5))
        for x in (z.u, z.v, z.d, ck.a4.u, ck.a4.v, ck.d):
            assert type(x) is int


class TestCurveKCounts:
    def test_no_walked_prime_is_re_proved(self, monkeypatch):
        # the walk's sieve proves each p prime; neither the (d|p) test
        # nor the split places' square root proves it again
        from ellorders import arith, survey

        proofs = Counter()
        real = arith.is_prime

        def spy(n):
            proofs[n] += 1
            return real(n)

        for mod in (arith, reduction, survey):
            monkeypatch.setattr(mod, "is_prime", spy)
        assert gcd_orders_quadratic(everywhere_good_33(), X=500) == 3
        assert not proofs.keys() & set(primes_in_range(3, 500))

    def test_walk_yields_the_counts_of_each_prime(self):
        # every odd unramified p <= 500: the walk's orders above p are
        # count_curveK_at_prime's, and it skips exactly the p that raise
        for ck in (everywhere_good_33(), everywhere_good_6()):
            walked = {}
            for p, split, n in quadratic_walk(ck, ck.d, 500):
                assert split == (legendre(ck.d, p) == 1)
                walked.setdefault(p, []).append(n)
            skipped = []
            for p in primes_in_range(3, 500):
                if ck.d % p == 0:
                    assert p not in walked
                    continue
                try:
                    counts = count_curveK_at_prime(ck, p)
                except BadReductionError:
                    skipped.append(p)
                    assert p not in walked
                    continue
                assert walked.pop(p) == counts, (ck.d, p)
            assert walked == {}
            assert len(skipped) < 10

    def test_inert_prime_above_the_ceiling_refused(self):
        # an inert p is counted over F_{p^2}, outside _count_chunk; it is
        # refused like the split places and the F_p counts are
        p = 10000079
        assert p > reduction.COUNT_CEILING and legendre(33, p) == -1
        with pytest.raises(ResourceError, match="ceiling"):
            count_curveK_at_prime(everywhere_good_33(), p)

    def test_rational_model_agrees_with_quadratic_count(self):
        cq = curve([0, 0, 0, -12, -11])
        ck = curve_K([0, 0, 0, -12, -11], 33)
        walked = _walked_orders(cq, 33, 29)
        for p in (7, 13, 17, 19, 29):
            split, agg = walked[p]
            assert split == (legendre(33, p) == 1)
            assert count_curveK_at_prime(ck, p) == [agg] * (2 if split else 1)

    def test_split_counts_ordered_by_smaller_root(self):
        ck = curve_K([0, 0, 0, QuadInt(0, 1, 33), 2], 33)
        for p in (17, 29, 37):
            r = sqrt_mod(33 % p, p)
            expect = [_table((0, 0, 0, rr, 2), p) for rr in (r, p - r)]
            assert count_curveK_at_prime(ck, p) == expect

    def test_everywhere_good_curves_count_everywhere_odd_unramified(self):
        for ck in (everywhere_good_33(), everywhere_good_6()):
            for p in (5, 7, 13, 17, 19, 23):
                ch = legendre(ck.d, p)
                if ch == 0:
                    continue  # ramified
                try:
                    counts = count_curveK_at_prime(ck, p)
                except BadReductionError:
                    continue  # model-level bad prime; allowed, just skipped
                for n in counts:
                    q = p if ch == 1 else p * p
                    assert abs(q + 1 - n) <= 2 * int(q**0.5) + 1

    def test_bsgs_agrees_with_enumeration(self):
        # just above the enumeration cutoff, including supersingular cases
        g6 = everywhere_good_6()
        inv = invariants_K(g6)
        for p in (223, 227, 229):
            counts = count_curveK_at_prime(g6, p)
            if legendre(6, p) == -1:
                inv2 = pow(2, p - 2, p)
                b246 = []
                for a in (inv.b2, inv.b4, inv.b6):
                    u, v = a.doubled()
                    b246.append(((u * inv2) % p, (v * inv2) % p))
                assert counts == [_fq_enumerate(tuple(b246), p, 6 % p)]

    def test_fq_twist_counts_sum_to_2q_plus_2(self):
        # |E(F_q)| + |E^g(F_q)| = 2q + 2 for q = p^2 and a nonsquare g; both
        # sides of the enumeration cutoff at 211, both everywhere-good curves
        for ck, primes in ((everywhere_good_6(), (7, 11, 13, 223)),
                           (everywhere_good_33(), (5, 13, 19, 241))):
            inv = invariants_K(ck)
            for p in primes:
                assert legendre(ck.d, p) == -1
                r, inv2 = ck.d % p, pow(2, p - 2, p)

                def red(z):
                    u, v = z.doubled()
                    return ((u * inv2) % p, (v * inv2) % p)

                n = _fq_enumerate((red(inv.b2), red(inv.b4), red(inv.b6)), p, r)
                assert count_curveK_at_prime(ck, p) == [n]
                # E: y^2 = x^3 - c4/48 x - c6/864; its twist by a nonsquare
                # g of F_{p^2}, one whose norm u^2 - r is a nonresidue
                g = next((u, 1) for u in range(p) if legendre(u * u - r, p) == -1)
                mul = _fq_field(p, r)[2]
                g2 = mul(g, g)
                a4 = mul(red(-inv.c4), g2)
                a6 = mul(red(-inv.c6), mul(g2, g))
                a4 = mul(a4, (pow(48, -1, p), 0))
                a6 = mul(a6, (pow(864, -1, p), 0))
                # the twist is short: b2 = 0, b4 = 2 a4, b6 = 4 a6
                tw = ((0, 0), (2 * a4[0] % p, 2 * a4[1] % p),
                      (4 * a6[0] % p, 4 * a6[1] % p))
                assert n + _fq_enumerate(tw, p, r) == 2 * p * p + 2

    def test_supersingular_disambiguation(self):
        # 223 is inert in Q(sqrt 6) and the reduction is supersingular there:
        # the group is (Z/(p-1))^2, the hardest case for order finding
        assert count_curveK_at_prime(everywhere_good_6(), 223) == [222 * 222]

    @given(st.integers(-30, 30), st.integers(-30, 30), st.sampled_from([5, 6, 33]),
           st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_twist_by_delta_follows_its_norm(self, a4, a6, d, u, v):
        # E: y^2 = x^3 + a4 x + a6 over Q and its twist (a4 delta^2,
        # a6 delta^3) over K: at an inert p not dividing N(delta), the
        # twist's order is E's m0 = |E(F_{p^2})| when delta is a square of
        # F_{p^2}, i.e. when N(delta) is a square mod p, and 2p^2 + 2 - m0
        # when not.  At a split p each place's order is the table's count
        # of the twist's model embedded there, the smaller root of d first.
        # |disc| / 16 = |4 a4^3 + 27 a6^2| < 3^12, so E is minimal at every
        # odd p and its base change (delta = 1) walks exactly the rational
        # primes.
        assume(4 * a4**3 + 27 * a6**2 != 0 and (u, v) != (0, 0))
        X = 150
        E = curve([0, 0, 0, a4, a6])
        rational = list(quadratic_walk(E, d, X))
        base = list(quadratic_walk(curve_K(E.ainvs, d), d, X))
        assert base == [t for t in rational for _ in range(1 + t[1])]
        m0 = {p: n for p, split, n in rational if not split}
        delta = QuadInt(u, v, d)
        twisted = curve_K([0, 0, 0, a4 * delta**2, a6 * delta**3], d)
        got, split_got = {}, {}
        for p, split, n in quadratic_walk(twisted, d, X):
            if split:
                split_got.setdefault(p, []).append(n)
            else:
                got[p] = n
        nd = delta.norm()
        assert got.keys() == {p for p in m0 if nd % p}
        for p, n in got.items():
            want = m0[p] if legendre(nd, p) == 1 else 2 * p * p + 2 - m0[p]
            assert n == want, (a4, a6, d, u, v, p)
        assert split_got.keys() == {p for p, split, _ in rational if split and nd % p}
        for p, ns in split_got.items():
            root, inv2 = sqrt_mod(d, p), pow(2, -1, p)
            want = []
            for rt in (root, p - root):
                doubled = (a.doubled() for a in twisted.ainvs)
                model = tuple((U + V * rt) * inv2 % p for U, V in doubled)
                want.append(_table(model, p))
            assert ns == want, (a4, a6, d, u, v, p)

    def test_ramified_and_two_refused(self):
        with pytest.raises(UnsupportedPrimeError):
            count_curveK_at_prime(everywhere_good_33(), 3)
        with pytest.raises(UnsupportedPrimeError):
            count_curveK_at_prime(everywhere_good_33(), 2)


def _reduce_quad(p):
    inv2 = pow(2, p - 2, p)

    def red(z):
        u, v = z.doubled()
        return ((u * inv2) % p, (v * inv2) % p)

    return red


def _inert_args(ck, p):
    """_fq_group_order's arguments for ck at an inert p, as _place_orders
    builds them."""
    inv, red = invariants_K(ck), _reduce_quad(p)
    b246 = (red(inv.b2), red(inv.b4), red(inv.b6))
    return (tuple(red(a) for a in ck.ainvs), p, ck.d % p, b246,
            (red(inv.c4), red(inv.c6)))


def _j_in_fp(c46, p, r):
    """None when c4 c6 = 0 in F_{p^2}, else whether t = c4^3 / c6^2, and
    with it j = 1728 t / (t - 1), lies in F_p."""
    c4, c6 = c46
    if (0, 0) in (c4, c6):
        return None
    _, _, mul, inv, _ = _fq_field(p, r)
    return mul(mul(c4, c4), mul(c4, inv(mul(c6, c6))))[1] == 0


class TestOrderFinder:
    # j = 0 and j = 1728 (supersingular at half the primes), full rational
    # 2-torsion, and the first density curve
    CURVES = ((0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 1, 0, -2, 0), (1, 1, 0, -700, 34000))

    def test_fp_finder_matches_table(self):
        # every good p from Mestre's bound to 5000, and at least 2000 above
        # the lane floor, where count_points_fp uses the finder
        floor = reduction._LANE_FLOOR
        primes = primes_in_range(230, max(5000, floor + 2000))
        supersingular = 0
        for ai in self.CURVES:
            _, _, _, _, c4, c6, disc = _invariant_kernel(ai)
            for p in primes:
                if disc % p == 0:
                    continue
                want = _table(ai, p)
                got = _fp_finder_count(c4, c6, p, _finder_rng(p, ai))
                assert got == want, (ai, p)
                if p > floor:
                    assert count_points_fp(curve(list(ai)), p).count == want
                supersingular += want == p + 1
        assert supersingular > 200

    def test_fq_finder_matches_enumeration(self):
        # every inert p from 11 to the old enumeration cutoff 211, and three
        # of the quadratic benchmark's range (211, 500]; 277 is supersingular
        for ck, more in ((everywhere_good_6(), [257, 277]), (everywhere_good_33(), [311])):
            inv = invariants_K(ck)
            for p in list(primes_in_range(11, 211)) + more:
                if legendre(ck.d, p) != -1:
                    continue
                red, r = _reduce_quad(p), ck.d % p
                want = _fq_enumerate((red(inv.b2), red(inv.b4), red(inv.b6)), p, r)
                got = _fq_finder_count((red(inv.c4), red(inv.c6)), p, r,
                                       _finder_rng(p, (p,)))
                assert got == want, (ck.d, p)
                assert count_curveK_at_prime(ck, p) == [want]

    def test_fq_law_matches_generic_law(self, monkeypatch):
        # the finder's own draws at every inert p in [11, 500]: each is
        # (x f, f^2) on y^2 = x^3 + a4 f^2 x + a6 f^3, so its model is
        # read off the point; the multiples j P, j <= 12, give sums and
        # doublings, and P + (-P) and the identity close the cases
        draws = []
        monkeypatch.setattr(reduction, "_order_finder",
                            lambda q, draw, rng: draws.append(draw))
        checked = 0
        for ck in (everywhere_good_6(), everywhere_good_33()):
            inv = invariants_K(ck)
            for p in primes_in_range(11, 500):
                if legendre(ck.d, p) != -1:
                    continue
                red, r = _reduce_quad(p), ck.d % p
                _fq_finder_count((red(inv.c4), red(inv.c6)), p, r, None)
                draw, rng = draws.pop(), random.Random(p)
                F = _fq_field(p, r)
                a4 = F[2](red(inv.c4), (-27 % p, 0))
                for drawn in filter(None, (draw(rng) for _ in range(3))):
                    P, _, add = drawn
                    ai = ((0, 0), (0, 0), (0, 0), F[2](a4, P[1]), (0, 0))
                    jP = P
                    for _ in range(12):
                        assert add(jP, jP) == _pt_add(jP, jP, ai, F), (ck.d, p)
                        nxt = add(jP, P)
                        assert nxt == _pt_add(jP, P, ai, F), (ck.d, p)
                        jP = nxt
                    assert add(P, _pt_neg(P, ai, F)) is None
                    assert add(None, P) == add(P, None) == P
                    assert add(None, None) is None
                    checked += 1
        assert checked > 150

    def test_fallbacks_return_the_oracle_values(self, monkeypatch):
        ai = self.CURVES[3]
        p = primes_in_range(reduction._LANE_FLOOR + 1, 10**5)[0]
        want = _table(ai, p)
        # j of y^2 = x^3 + (1 + sqrt 33) x + 1 is not in F_241, so its order
        # is the finder's, and with no draws the character sum's
        ck, q = curve_K([0, 0, 0, QuadInt(1, 1, 33), 1], 33), 241
        assert legendre(33, q) == -1
        args = _inert_args(ck, q)
        assert _j_in_fp(args[4], q, args[2]) is False
        want_q = _fq_enumerate(args[3], q, args[2])
        monkeypatch.setattr(reduction, "_FINDER_DRAWS", 0)
        _, _, _, _, c4, c6, _ = _invariant_kernel(ai)
        assert _fp_finder_count(c4, c6, p, _finder_rng(p, ai)) is None
        assert _count_chunk(ai, [p]) == [want]
        assert _fq_group_order(*args) == want_q

    def test_rational_j_rule_matches_enumeration(self, monkeypatch):
        # both built-in curves have rational j: at every inert 5 <= p <= 250
        # with c4 c6 != 0 mod P, count_curveK_at_prime takes the order from
        # one F_p count of the rational curve they twist, which gives the
        # character sum's order, and both square classes of c4 c6 occur; at
        # p = 7 c4 c6 = 0 mod P for both
        def refuse(*args):
            raise AssertionError("the rational twist should decide")

        for ck in (everywhere_good_33(), everywhere_good_6()):
            classes = Counter()
            for p in primes_in_range(5, 250):
                if legendre(ck.d, p) != -1:
                    continue
                _, _, r, b246, (c4, c6) = _inert_args(ck, p)
                want = _fq_enumerate(b246, p, r)
                in_fp = _j_in_fp((c4, c6), p, r)
                if in_fp is None:
                    # the model is bad at 7 too, which count_curveK_at_prime
                    # refuses; the order maker on the model still agrees
                    assert p == 7
                    assert _fq_group_order(*_inert_args(ck, p)) == want
                    continue
                assert in_fp, (ck.d, p)
                with monkeypatch.context() as m:
                    m.setattr(reduction, "_fq_finder_count", refuse)
                    m.setattr(reduction, "_fq_enumerate", refuse)
                    assert count_curveK_at_prime(ck, p) == [want], (ck.d, p)
                classes[legendre(_fq_norm(c4, p, r) * _fq_norm(c6, p, r), p)] += 1
            assert classes[1] >= 10 and classes[-1] >= 10, (ck.d, classes)

    def test_rule_fallbacks_match_the_oracle(self, monkeypatch):
        # where the rule does not apply it counts nothing over F_p, and the
        # finder (p >= 11) or enumeration gives the character sum's order:
        # j outside F_p, j = 0 and j = 1728 over Q(sqrt 33), and p = 3,
        # inert in Q(sqrt 5), where t = c4^3 / c6^2 = b2^6 / b2^6 = 1 would
        # make E0 singular
        E = curve([1, 0, 0, 0, 1])
        assert count_curveK_at_prime(curve_K(E.ainvs, 5), 3) == [
            count_extension(count_points_fp(E, 3), n=2).count]
        counted = []
        monkeypatch.setattr(reduction, "_count_chunk",
                            lambda *args: counted.append(args))
        s33 = QuadInt(1, 1, 33)
        cases = ((curve_K([0, 0, 0, s33, 1], 33), False),
                 (curve_K([0, 0, 0, 0, s33], 33), None),
                 (curve_K([0, 0, 0, s33, 0], 33), None))
        checked = 0
        for ck, in_fp in cases:
            disc = invariants_K(ck).disc
            for p in primes_in_range(5, 120):
                if legendre(33, p) != -1 or disc.norm() % p == 0:
                    continue
                args = _inert_args(ck, p)
                _, _, r, b246, c46 = args
                assert _j_in_fp(c46, p, r) is in_fp, (ck, p)
                assert _fq_group_order(*args) == _fq_enumerate(b246, p, r), (ck, p)
                checked += 1
        phi = QuadInt(1, 1, 5, half=True)
        for ck in (curve_K(E.ainvs, 5), curve_K([1, 0, 0, phi, 1], 5)):
            assert invariants_K(ck).disc.norm() % 3
            _, _, r, b246, c46 = args = _inert_args(ck, 3)
            assert _j_in_fp(c46, 3, r) is True
            assert _fq_group_order(*args) == _fq_enumerate(b246, 3, r)
            checked += 1
        assert counted == [] and checked > 40

    def test_window_without_annihilator_raises(self):
        # a point of order 1000 drawn at q = 1150, whose Hasse window
        # [1084, 1218] holds no multiple of 1000
        def draw(rng):
            return _toy_point(1000, 3), False, _toy_add(1000)

        with pytest.raises(DataIntegrityError):
            _order_finder(1150, draw, random.Random(0))

    def test_window_annihilators_match_brute_force(self):
        # for a window width w the baby steps run to m + 1, m = isqrt(w // 2) + 1:
        # orders up to m + 1 end at an identity, the even 2j <= 2m and the
        # odd i + j <= 2m + 1 at an x collision, and 2m + 2 and up go to the
        # giant steps; orders to 420 cover all of them for every width here
        for width in (0, 1, 2, 3, 5, 8, 31, 64, 127, 200, 301, 333):
            for o in range(1, 421):
                g, add = _toy_point(o, 1), _toy_add(o)
                for lo in (1, o, 3 * o - 1, 997):
                    hi = lo + width
                    want = [k for k in range(lo, hi + 1) if k % o == 0]
                    got = sorted(_window_annihilators(g, lo, hi, add))
                    assert got == want, (o, lo, hi)


class TestLaneFinder:
    @staticmethod
    def _pinned(monkeypatch):
        """Spy on the lane rounds: [lanes, lanes pinned] over every round."""
        seen = [0, 0]
        real = reduction._lane_round

        def spy(*args):
            got = real(*args)
            seen[0] += len(got)
            seen[1] += sum(n is not None for n in got)
            return got

        monkeypatch.setattr(reduction, "_lane_round", spy)
        return seen

    def _matches_table(self, monkeypatch, lo, hi):
        """_count_chunk on each curve's good primes in [lo, hi] equals the
        table, and the lanes pin most of them."""
        wants = {}
        for ai in TestOrderFinder.CURVES:
            disc = _invariant_kernel(ai)[6]
            primes = [p for p in primes_in_range(lo, hi) if disc % p]
            wants[ai] = primes, _count_table([ai] * len(primes), primes)
        seen = self._pinned(monkeypatch)
        for ai, (primes, want) in wants.items():
            assert _count_chunk(ai, primes) == want, ai
        assert seen[1] > 0.8 * sum(len(ps) for ps, _ in wants.values())

    def test_chunk_matches_table_far_above_lane_floor(self, monkeypatch):
        floor = reduction._LANE_FLOOR
        self._matches_table(monkeypatch, floor + 1501, floor + 3500)

    def test_chunk_matches_table_just_above_lane_floor(self, monkeypatch):
        floor = reduction._LANE_FLOOR
        self._matches_table(monkeypatch, floor + 1, floor + 1500)

    def test_narrow_chunk_runs_no_lane_round(self, monkeypatch):
        ai = TestOrderFinder.CURVES[3]
        disc = _invariant_kernel(ai)[6]
        primes = [p for p in primes_in_range(reduction._LANE_FLOOR + 1, 10**4)
                  if disc % p][:reduction._LANE_MIN - 1]
        want = _count_table([ai] * len(primes), primes)
        seen = self._pinned(monkeypatch)
        assert _count_chunk(ai, primes) == want
        assert seen[0] == 0

    @staticmethod
    def _methods(monkeypatch):
        """Spy on the table and the scalar finder: the primes each counted."""
        seen = {"table": [], "scalar": []}
        table, scalar = reduction._count_table, reduction._fp_finder_count
        monkeypatch.setattr(reduction, "_count_table",
                            lambda models, ps: seen["table"].extend(ps) or table(models, ps))
        monkeypatch.setattr(
            reduction, "_fp_finder_count",
            lambda c4, c6, p, rng: seen["scalar"].append(p) or scalar(c4, c6, p, rng))
        return seen

    def test_one_prime_chunk_above_lane_floor_is_a_scalar_finder_count(self, monkeypatch):
        ai = TestOrderFinder.CURVES[3]
        disc = _invariant_kernel(ai)[6]
        p = next(p for p in primes_in_range(reduction._LANE_FLOOR + 1, 10**4) if disc % p)
        want = _table(ai, p)
        methods = self._methods(monkeypatch)
        seen = self._pinned(monkeypatch)
        assert _count_chunk(ai, [p]) == [want]
        assert methods == {"table": [], "scalar": [p]}
        assert seen[0] == 0

    def test_one_prime_chunk_at_lane_floor_is_a_table_count(self, monkeypatch):
        ai = TestOrderFinder.CURVES[3]
        p = primes_in_range(2, reduction._LANE_FLOOR)[-1]
        assert _invariant_kernel(ai)[6] % p
        want = _table(ai, p)
        methods = self._methods(monkeypatch)
        seen = self._pinned(monkeypatch)
        assert _count_chunk(ai, [p]) == [want]
        assert methods == {"table": [p], "scalar": []}
        assert seen[0] == 0

    def test_block_draws_from_one_generator(self, monkeypatch):
        # one lane round over the whole block leaves at least three lanes
        # unpinned, too few for a second round, so they go to the scalar
        # finder; the round and the finder draw from one generator
        ai = TestOrderFinder.CURVES[3]
        disc = _invariant_kernel(ai)[6]
        primes = [p for p in primes_in_range(5000, 10**4)
                  if disc % p][:reduction._LANE_MIN + 8]
        want = _count_table([ai] * len(primes), primes)
        seeded, rngs, scalar = [], [], []
        real_rng, real_round, real_scalar = (
            reduction._finder_rng, reduction._lane_round, reduction._fp_finder_count)

        def finder_rng(*args):
            seeded.append(args)
            return real_rng(*args)

        def lane_round(ps, c4s, c6s, rng):
            rngs.append(rng)
            return [None] * 3 + real_round(ps, c4s, c6s, rng)[3:]

        def fp_finder_count(c4, c6, p, rng):
            rngs.append(rng)
            scalar.append(p)
            return real_scalar(c4, c6, p, rng)

        monkeypatch.setattr(reduction, "_finder_rng", finder_rng)
        monkeypatch.setattr(reduction, "_lane_round", lane_round)
        monkeypatch.setattr(reduction, "_fp_finder_count", fp_finder_count)
        assert _count_chunk(ai, primes) == want
        assert len(seeded) == 1
        assert len(scalar) >= 3 and len(rngs) == 1 + len(scalar)
        assert all(rng is rngs[0] for rng in rngs)

    def test_count_chunk_alone_names_the_count_methods(self):
        # a second place that picks how an F_p count is made would have to
        # name the table, the scalar finder or a lane round; the package
        # source names them only in their definitions and in _count_chunk.
        # Likewise over F_{p^2}: _fq_group_order alone names the finder, and
        # the character sum only it and the count_fp2_direct oracle
        users = {}

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{where}.{node.name}"
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            for name in names - {None}:
                users.setdefault(name, set()).add(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        sources = sorted(Path(reduction.__file__).parent.glob("*.py"))
        assert len(sources) > 5
        for path in sources:
            visit(ast.parse(path.read_text(), str(path)), path.stem)
        for kernel in ("_count_table", "_fp_finder_count", "_lane_round"):
            assert users[kernel] == {"reduction._count_chunk"}, kernel
        assert users["_fq_finder_count"] == {"reduction._fq_group_order"}
        assert users["_fq_enumerate"] == {"reduction._fq_group_order",
                                          "reduction.count_fp2_direct"}

    def test_no_function_catches_a_skip_error(self):
        # scans skip primes by predicate: no handler in the package may
        # steer a loop by catching BadReductionError or UnsupportedPrimeError
        skips = {"BadReductionError", "UnsupportedPrimeError"}
        catchers = []
        for path in sorted(Path(reduction.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    names = {getattr(n, "id", None) or getattr(n, "attr", None)
                             for n in ast.walk(node.type)}
                    if names & skips:
                        catchers.append(f"{path.stem}:{node.lineno}")
        assert catchers == []

    def test_imports_name_the_defining_module(self):
        # every `from .m import name` in the package names something m
        # itself defines at module level, not a name m re-exports
        package = Path(reduction.__file__).parent
        trees = {path.stem: ast.parse(path.read_text(), str(path))
                 for path in sorted(package.glob("*.py"))}
        defined = {}
        for stem, tree in trees.items():
            names = defined[stem] = set()
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(n.id for t in targets for n in ast.walk(t)
                                 if isinstance(n, ast.Name))
        misses = [f"{stem}:{node.lineno} {alias.name} from {node.module}"
                  for stem, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names
                  if alias.name not in defined[node.module]]
        assert misses == []

    def test_every_imported_name_is_read(self):
        # each name an import binds in the package, the tests, the demos and
        # the tools
        # is read in that file; the __future__ import binds no name
        root = Path(__file__).resolve().parents[1]
        unread = []
        for folder in ("src/ellorders", "tests", "demos", "tools"):
            for path in sorted((root / folder).glob("*.py")):
                tree = ast.parse(path.read_text(), str(path))
                read = {n.id for n in ast.walk(tree)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread += [f"{folder}/{path.name}:{node.lineno} {name}"
                           for node in ast.walk(tree)
                           if isinstance(node, (ast.Import, ast.ImportFrom))
                           and getattr(node, "module", None) != "__future__"
                           for alias in node.names
                           for name in [alias.asname or alias.name.split(".")[0]]
                           if name not in read]
        assert unread == []

    def test_environment_is_read_only_for_deployment_settings(self):
        # the cache directory is the only setting taken from the
        # environment, and only catalog reads it
        package = Path(reduction.__file__).parent
        knobs, readers = set(), set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and node.value.startswith("ELLORDERS_")):
                    knobs.add(node.value)
                if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                        and isinstance(node.value, ast.Name) and node.value.id == "os"):
                    readers.add(path.name)
        assert knobs == {"ELLORDERS_CACHE_DIR"}
        assert readers == {"catalog.py"}

    def test_chunk_matches_scalar_finder_near_count_ceiling(self, monkeypatch):
        ai = TestOrderFinder.CURVES[3]
        *_, c4, c6, disc = _invariant_kernel(ai)
        top = reduction.COUNT_CEILING
        primes = [p for p in primes_in_range(top - 10**4, top) if disc % p]
        assert len(primes) > 600
        want = [_fp_finder_count(c4, c6, p, _finder_rng(p, ai)) for p in primes]
        seen = self._pinned(monkeypatch)
        assert _count_chunk(ai, primes) == want
        assert seen[1] > 0.9 * len(primes)

    def test_single_count_is_one_chunk_without_a_lane_round(self, monkeypatch):
        ai = TestOrderFinder.CURVES[3]
        p = primes_in_range(reduction._LANE_FLOOR + 1, 10**5)[0]
        chunks = []
        real = reduction._count_chunk
        monkeypatch.setattr(reduction, "_count_chunk",
                            lambda ai, ps: chunks.append(ps) or real(ai, ps))
        seen = self._pinned(monkeypatch)
        assert count_points_fp(curve(list(ai)), p).count == _table(ai, p)
        assert chunks == [[p]]
        assert seen[0] == 0

    def test_chunk_refuses_primes_above_count_ceiling(self):
        with pytest.raises(ResourceError):
            _count_chunk(TestOrderFinder.CURVES[3], [10**7 + 19])

    def test_chunk_unchanged_when_no_lane_is_pinned(self, monkeypatch):
        # the scalar path alone must give the same counts, bad primes and a
        # non-minimal one included: 7 is good on this model scaled by u = 1/7
        primes = primes_in_range(2, 9000)
        for ai in (TestOrderFinder.CURVES[3], (0, 0, 0, -12 * 7**4, -11 * 7**6)):
            want = _count_chunk(ai, primes)
            with monkeypatch.context() as m:
                m.setattr(reduction, "_lane_round", lambda ps, *_: [None] * len(ps))
                assert _count_chunk(ai, primes) == want

    def test_empty_window_raises(self, monkeypatch):
        # a window holding only p + 1 misses |E| at an ordinary prime, so
        # some lane is left without a candidate; neither finder may return
        ai = TestOrderFinder.CURVES[3]
        *_, c4, c6, _ = _invariant_kernel(ai)
        ps = primes_in_range(3000, 3200)
        monkeypatch.setattr(reduction, "_hasse_window", lambda q: (q + 1, q + 1))
        with pytest.raises(DataIntegrityError):
            _lane_round(ps, [c4] * len(ps), [c6] * len(ps), random.Random(0))
        with pytest.raises(DataIntegrityError):
            _fp_finder_count(c4, c6, 3001, _finder_rng(3001, ai))


class TestCountArithmetic:
    """The int64 edges of the table and the lanes, which numpy would pass
    silently if they overflowed."""

    def test_table_at_large_bad_prime(self):
        # y^2 = x (x - q)(x - t), t = (q + 1)/4, has type I2 at q, and
        # b2 = -4 (q + t) is q - 1 mod q: at 5 q^3 > 2^63 a cubic reduced
        # only once would wrap
        q = next(p for p in primes_in_range(1_250_000, 1_260_000) if p % 4 == 3)
        assert 5 * q**3 > 2**63
        t = (q + 1) // 4
        ai = (0, -(q + t), 0, q * t, 0)
        ld = local_data(curve(list(ai)), q)
        assert ld.kodaira.label == "I2"
        assert _table(ai, q) == ld.reduced_count
        assert _count_chunk(ai, [q]) == [ld.reduced_count]

    def test_lane_law_matches_generic_law_near_count_ceiling(self):
        # the affine values of the Jacobian formulas against _pt_add over
        # F_p, in the dtype a round at P runs, at the last int32 prime
        # 46,327 and the largest prime below COUNT_CEILING, for every input
        # P - 1 and for a seeded mix with P - 1 planted; each output is
        # reduced and keeps the dtype
        assert reduction._lane_dtype(46327) is np.int32
        assert reduction._lane_dtype(46337) is np.int64
        top = primes_in_range(reduction.COUNT_CEILING - 100, reduction.COUNT_CEILING)[-1]
        for P in (46327, top):
            dt = reduction._lane_dtype(P)
            rng = random.Random(14)
            inputs = [[P - 1] * 6]
            for _ in range(300):
                inputs.append([rng.choice((P - 1, rng.randrange(1, P))) for _ in range(6)])
            X, Y, Z, A, x2, y2 = (np.array(c, dtype=dt) for c in zip(*inputs))
            Pa = np.full(len(inputs), P, dtype=dt)
            F = _fq_field(P, 0)

            def affine(Xs, Ys, Zs):
                out = []
                for c in (Xs, Ys, Zs):
                    assert c.dtype == dt and c.min() >= 0 and c.max() < P
                for x, y, z in zip(Xs.tolist(), Ys.tolist(), Zs.tolist()):
                    zi = pow(z, -1, P) if z else 0
                    out.append(None if z == 0 else
                               ((x * zi * zi % P, 0), (y * zi**3 % P, 0)))
                return out

            before = affine(X, Y, Z)
            dbl = affine(*reduction._lane_dbl(X, Y, Z, A, Pa))
            madd = affine(*reduction._lane_madd(X, Y, Z, x2, y2, Pa))
            for i, pt in enumerate(before):
                ai = ((0, 0), (0, 0), (0, 0), (int(A[i]), 0), (0, 0))
                assert dbl[i] == _pt_add(pt, pt, ai, F), (P, i)
                other = ((int(x2[i]), 0), (int(y2[i]), 0))
                if other[0] == pt[0]:  # a doubling or the identity: Z = 0
                    assert madd[i] is None, (P, i)
                else:
                    assert madd[i] == _pt_add(pt, other, ai, F), (P, i)
            # the all P - 1 lane is a sum with the negative: the identity
            assert madd[0] is None

    @staticmethod
    def _round_dtypes(monkeypatch):
        """Spy on the lane rounds and the kernels they call: per round, its
        largest prime and the dtypes of every array a kernel took or gave."""
        rounds = []
        real_round = reduction._lane_round

        def lane_round(ps, *args):
            rounds.append((max(ps), set()))
            return real_round(ps, *args)

        def spied(real):
            def spy(*args):
                out = real(*args)
                for a in args + (out if isinstance(out, tuple) else (out,)):
                    if isinstance(a, np.ndarray):
                        rounds[-1][1].add(a.dtype)
                return out
            return spy

        monkeypatch.setattr(reduction, "_lane_round", lane_round)
        for name in ("_lane_dbl", "_lane_madd", "_lane_affine", "_lane_pow"):
            monkeypatch.setattr(reduction, name, spied(getattr(reduction, name)))
        return rounds

    @staticmethod
    def _random_round(rng, lo, hi, n):
        """n primes in [lo, hi] and per-lane c4, c6 of random curves good there."""
        ps = sorted(rng.sample(primes_in_range(lo, hi), n))
        c4s, c6s = [], []
        for p in ps:
            while True:
                c4, c6 = rng.randrange(-10**9, 10**9), rng.randrange(-10**9, 10**9)
                if (c4**3 - c6**2) % p:
                    break
            c4s.append(c4)
            c6s.append(c6)
        return ps, c4s, c6s

    def test_int32_and_int64_rows_give_one_round(self, monkeypatch):
        # seeded rounds on random short curves, p from 1000 to the last
        # int32 prime 46,327, return the same list on int32 rows as on
        # int64 rows; a round whose largest prime is 46,337 runs int64
        rng = random.Random(29)
        rounds = [self._random_round(rng, lo, 46327, n)
                  for lo, n in ((1000, 300), (30000, 200), (44000, 150), (46000, 20))]
        straddle = primes_in_range(46300, 46337)
        assert straddle[-2:] == [46327, 46337]
        rounds.append((straddle, [0] * len(straddle), [7] * len(straddle)))
        seen = self._round_dtypes(monkeypatch)
        got = [reduction._lane_round(*r, random.Random(i)) for i, r in enumerate(rounds)]
        assert [dts for _, dts in seen] == [{np.dtype(np.int32)}] * 4 + [{np.dtype(np.int64)}]
        assert sum(n is not None for g in got for n in g) > 0.8 * sum(map(len, got))
        monkeypatch.setattr(reduction, "_lane_dtype", lambda top: np.int64)
        assert [reduction._lane_round(*r, random.Random(i))
                for i, r in enumerate(rounds)] == got
        assert all(dts == {np.dtype(np.int64)} for _, dts in seen[5:])

    def test_int32_round_keeps_its_rows_int32(self, monkeypatch):
        # every array the lane kernels take and give in a round whose
        # largest prime is 46,327 stays int32, so a silent upcast (numpy's
        # legacy promotion differs from NEP 50) shows here; the round with
        # 46,337 runs int64 throughout
        ai = TestOrderFinder.CURVES[3]
        *_, c4, c6, disc = _invariant_kernel(ai)
        seen = self._round_dtypes(monkeypatch)
        for top, dt in ((46327, np.int32), (46337, np.int64)):
            ps = [p for p in primes_in_range(45000, top) if disc % p]
            assert ps[-1] == top
            got = reduction._lane_round(ps, [c4] * len(ps), [c6] * len(ps), random.Random(3))
            assert seen[-1] == (top, {np.dtype(dt)})
            assert sum(n is not None for n in got) > 0.8 * len(ps)

    def test_chunk_across_the_int32_bound_matches_table(self, monkeypatch):
        # a block of good primes to 47800 in rounds of 64 lanes: an int32
        # round below 46,327, a round from there to 46,337, which runs
        # int64, then int64 rounds; carried lanes ride in later rounds
        ai = TestOrderFinder.CURVES[3]
        disc = _invariant_kernel(ai)[6]
        good = [p for p in primes_in_range(40000, 47800) if disc % p]
        primes = good[good.index(46337) - 127:]
        assert 46327 in primes[64:128] and primes[127] == 46337
        want = _count_table([ai] * len(primes), primes)
        monkeypatch.setattr(reduction, "_LANES", 64)
        seen = self._round_dtypes(monkeypatch)
        assert _count_chunk(ai, primes) == want
        assert all(dts == {np.dtype(np.int32 if top <= 46327 else np.int64)}
                   for top, dts in seen)
        assert seen[1][0] == 46337
        assert {top <= 46327 for top, _ in seen} == {True, False}

    def test_lane_windows_match_scalar_windows(self):
        top = reduction.COUNT_CEILING
        near_squares = [p for k in (40, 100, 317, 1000, 2000, 3162)
                        for p in primes_in_range(k * k - 60, k * k + 60)]
        qs = (primes_in_range(1000, 10**5) + near_squares
              + primes_in_range(top - 2000, top))
        lo, hi = reduction._hasse_window(np.array(qs, dtype=np.int64))
        assert list(zip(lo.tolist(), hi.tolist())) == [
            reduction._hasse_window(q) for q in qs]
        # up to the docstring's 2^60, at and around squares, where the
        # float root of 4q rounds both ways and the integer steps decide
        big = [k * k + e for k in (2**24 - 3, 10**7 - 1, 2**29 + 3, 10**9 - 7, 2**30 - 1)
               for e in (-k, -1, 0, 1, k)]
        assert max(big) < 2**60
        lo, hi = reduction._hasse_window(np.array(big, dtype=np.int64))
        assert list(zip(lo.tolist(), hi.tolist())) == [
            reduction._hasse_window(q) for q in big]

    def test_table_matches_character_sum(self, monkeypatch):
        # p + 1 + sum of (B(x) | p), written out in Python, on one mixed
        # batch in shuffled order: seeded models with large and negative
        # coefficients, p = 2 and 3, bad primes on their minimal models, the
        # same prime under several models, segments filled past their
        # boundary, a prime longer than a segment, and the last int32 prime
        # 20719 beside the first int64 one 20731, each on a model with
        # b2 = 2 b4 = -1 mod p, whose B(x) meets 5p^2 + p before the first
        # reduction
        rng = random.Random(7)
        models = [tuple(rng.randrange(-10**30, 10**30) for _ in range(5))
                  for _ in range(3)] + [(0, 1, 0, -333, -3537), (1, -1, 1, -199, 510)]
        seg = reduction._TABLE_SEGMENT
        assert 5 * 20719**2 + 20719 < 2**31 < 5 * 20731**2 + 20731 and seg < 20719
        big = primes_in_range(seg + 1, seg + 100)[0]
        pairs = [(ai, p) for ai in models for p in primes_in_range(2, 200)]
        pairs.append((models[0], big))
        for p in (20719, 20731):
            edge = (1, -pow(2, -1, p) % p, 0, -pow(4, -1, p) % p, 0)
            b2, b4, *_ = _invariant_kernel(edge)
            assert b2 % p == 2 * b4 % p == p - 1
            pairs += [(edge, p), (models[3], p)]
        for ai in models[3:]:
            for p in bad_primes(curve(list(ai))):
                pairs.append((local_data(curve(list(ai)), p).minimal_ainvs, p))
        rng.shuffle(pairs)
        assert sum(p for _, p in pairs if p > 2) > 4 * seg

        def character_sum(ai, p):
            if p == 2:
                a1, a2, a3, a4, a6 = ai
                return 1 + sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x
                                - a4 * x - a6) % 2 == 0 for x in (0, 1) for y in (0, 1))
            b2, b4, b6, *_ = _invariant_kernel(ai)
            total = p + 1
            for x in range(p):
                v = (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % p
                total += 0 if v == 0 else 1 if pow(v, (p - 1) // 2, p) == 1 else -1
            return total

        sizes = []
        segment = reduction._table_segment

        def spy(rows, size, out):
            sizes.append((len(rows), size))
            segment(rows, size, out)

        monkeypatch.setattr(reduction, "_table_segment", spy)
        got = _count_table(*zip(*pairs))
        assert got == [character_sum(ai, p) for ai, p in pairs]
        # segments of several primes hold at most _TABLE_SEGMENT x values,
        # and a longer prime is a segment of its own
        several = [size for n, size in sizes if n > 1]
        assert len(several) > 1 and max(several) <= seg
        assert {big, 20719, 20731} <= {size for n, size in sizes if n == 1}

    def test_block_table_primes_and_finder_misses_reach_the_table_at_once(
            self, monkeypatch):
        # a block of primes to 3000 on y^2 = x^3 + x + 7, bad at 2 and at
        # 1327 = 4 + 27 * 7^2, past the lane floor: the primes to the floor,
        # the bad 1327 and the primes the scalar finder misses make one
        # _count_table call, after the lanes
        ai = (0, 0, 0, 1, 7)
        assert bad_primes(curve(list(ai))) == {2, 1327}
        primes = primes_in_range(2, 3000)
        want = _count_chunk(ai, primes)
        missed = set(primes_in_range(reduction._LANE_FLOOR + 1, 3000)[-5:])
        calls = []
        table, scalar = reduction._count_table, reduction._fp_finder_count
        monkeypatch.setattr(reduction, "_count_table",
                            lambda models, ps: calls.append(ps) or table(models, ps))
        monkeypatch.setattr(reduction, "_fp_finder_count",
                            lambda c4, c6, p, rng: None if p in missed
                            else scalar(c4, c6, p, rng))
        monkeypatch.setattr(reduction, "_lane_round", lambda ps, *_: [None] * len(ps))
        assert _count_chunk(ai, primes) == want
        [ps] = calls
        floor = reduction._LANE_FLOOR
        table_primes = [p for p in primes if p <= floor] + [1327]
        assert list(ps[:len(table_primes)]) == table_primes
        assert sorted(ps[len(table_primes):]) == sorted(missed)

    def test_unpinned_lane_rides_in_a_later_batch(self, monkeypatch):
        # one block of more than _LANES lanes: the lanes that the first
        # round leaves join the tail, so no round runs on carried lanes
        # alone; no lane gets more than _LANE_ROUNDS draws, and no round
        # has fewer than _LANE_MIN lanes
        ai = TestOrderFinder.CURVES[3]
        disc = _invariant_kernel(ai)[6]
        primes = [p for p in primes_in_range(reduction._LANE_FLOOR + 1, 10**5)
                  if disc % p][:reduction._LANES + 3 * reduction._LANE_MIN]
        want = _count_table([ai] * len(primes), primes)
        batches = []
        real = reduction._lane_round

        def spy(ps, *args):
            batches.append(list(ps))
            return real(ps, *args)

        monkeypatch.setattr(reduction, "_lane_round", spy)
        assert _count_chunk(ai, primes) == want
        assert all(reduction._LANE_MIN <= len(b) <= reduction._LANES for b in batches)
        draws = Counter(p for b in batches for p in b)
        assert max(draws.values()) <= reduction._LANE_ROUNDS
        first, second = set(batches[0]), set(batches[1])
        assert second & first and second - first


def _toy_point(n, a):
    """a in the cyclic group Z/n as (min(a, -a), a), so that x(-P) = x(P)."""
    a %= n
    return None if a == 0 else (min(a, n - a), a)


def _toy_add(n):
    return lambda P, Q: _toy_point(n, (P[1] if P else 0) + (Q[1] if Q else 0))
