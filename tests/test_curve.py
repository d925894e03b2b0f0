from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ellorders.curve import (
    QuadInt,
    curve,
    curve_K,
    e1k,
    e2k,
    everywhere_good_6,
    everywhere_good_33,
    family3,
    family5,
    integral_model,
    invariants,
    invariants_K,
    isomorphic,
    kkp,
    kubert5,
    make_family,
    quadratic_twist,
    short_model,
    transformed,
)
from ellorders.errors import InputError, SingularModelError

small_rats = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


def _random_curves():
    # nonsingular curves with small exact coefficients
    return st.tuples(
        st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
        st.integers(-30, 30), st.integers(-80, 80),
    ).map(lambda t: t if invariants(t).disc != 0 else None).filter(bool).map(curve)


class TestInvariants:
    def test_known_values(self):
        inv = invariants(curve([0, 0, 0, -12, -11]))
        assert (inv.c4, inv.c6, inv.disc) == (576, 9504, 58320)

    def test_singular_sequences_allowed(self):
        inv = invariants([0, 0, 0, 0, 0])
        assert inv.disc == 0 and inv.j is None

    def test_singular_curve_rejected(self):
        with pytest.raises(SingularModelError):
            curve([0, 0, 0, 0, 0])

    @given(_random_curves())
    @settings(max_examples=150)
    def test_identities(self, c):
        inv = invariants(c)
        assert 1728 * inv.disc == inv.c4**3 - inv.c6**2
        assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4**2
        assert inv.j == inv.c4**3 / inv.disc

    @given(_random_curves(), small_rats, small_rats, small_rats,
           st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4))
    @settings(max_examples=100)
    def test_j_is_model_independent(self, c, r, s, t, u):
        inv1 = invariants(c)
        inv2 = invariants(transformed(c, r=r, s=s, t=t, u=u))
        assert inv1.j == inv2.j
        assert inv2.disc * u**12 == inv1.disc


class TestShortModel:
    @given(_random_curves())
    @settings(max_examples=100)
    def test_preserves_c_invariants(self, c):
        sh = short_model(c)
        i1, i2 = invariants(c), invariants(sh)
        assert sh.a1 == sh.a2 == sh.a3 == 0
        assert (i1.c4, i1.c6, i1.disc) == (i2.c4, i2.c6, i2.disc)

    @given(_random_curves())
    @settings(max_examples=50)
    def test_idempotent(self, c):
        sh = short_model(c)
        assert short_model(sh) == sh

    def test_integral_model(self):
        c = curve([F(1, 2), 0, F(3, 4), 0, 1])
        ic = integral_model(c)
        assert ic.is_integral()
        assert invariants(ic).j == invariants(c).j


class TestTwist:
    def test_twist_preserves_j(self):
        c = curve([1, 1, 0, -700, 34000])
        tw = quadratic_twist(c, 5)
        assert invariants(tw).j == invariants(c).j
        assert not isomorphic(c, tw)

    def test_twist_twice_is_isomorphic(self):
        for d in (5, -7, -15, 6):
            c = curve([1, 0, 1, 4, -6])
            assert isomorphic(c, quadratic_twist(quadratic_twist(c, d), d))

    def test_family5_is_twist_of_base(self):
        base = curve([0, -7, 0, 96, 256])
        for t in (2, 3, 5):
            assert invariants(family5(t)).j == invariants(quadratic_twist(base, t)).j

    @pytest.mark.parametrize("ainvs,u", [
        ([1, -1, 1, -199, 510], F(1, 10**40)),
        ([1, -1, 1, -199, 510], F(10**40)),
        ([0, 0, 0, 0, 1], F(1, 10**20)),  # j = 0: sixth powers
        ([0, 0, 0, 1, 0], F(1, 10**40)),  # j = 1728: fourth powers
    ])
    def test_isomorphic_under_extreme_scaling(self, ainvs, u):
        # the scaling factors are far beyond float precision
        c = curve(ainvs)
        assert isomorphic(c, transformed(c, u=u))
        assert isomorphic(c, transformed(c, u=u, r=3, s=-1, t=2))
        assert not isomorphic(c, quadratic_twist(transformed(c, u=u), 2))

    @pytest.mark.parametrize("d", [2.5, 5.0, True, F(5), "5"])
    def test_non_integer_d_refused(self, d):
        # int(d) would truncate 2.5 to 2 and read True as 1
        with pytest.raises(InputError, match="must be an integer"):
            quadratic_twist(curve([0, 0, 0, -12, -11]), d)

    def test_nonsquarefree_rejected(self):
        with pytest.raises(InputError):
            quadratic_twist(curve([0, 0, 0, -12, -11]), 12)
        with pytest.raises(InputError):
            quadratic_twist(curve([0, 0, 0, -12, -11]), 0)


class TestFamilies:
    def test_kkp_coefficients(self):
        t = F(4)
        c = kkp(t)
        assert c.ainvs == (0, 0, 0, -(6 * t + 3), -(3 * t * t + 6 * t + 2))

    def test_family3_disc_and_short_scaling(self):
        for t in (1, 2, F(-3), F(1, 2)):
            c = family3(t)
            inv = invariants(c)
            assert inv.disc == -432 * t**4 * (9 + 4 * t * t)
            # the integral rescaling of the short model, u = 6
            assert -27 * inv.c4 == -3888 * t**4 - 7776 * t**2
            assert -54 * inv.c6 == -93312 * t**6 - 279936 * t**4 - 139968 * t**2

    def test_family5_disc(self):
        for t in (1, 2, -3):
            assert invariants(family5(t)).disc == -121634816 * F(t) ** 6

    def test_kubert5_invariants(self):
        for lam in (F(1, 2), 3, -2):
            inv = invariants(kubert5(lam))
            assert inv.disc == lam**5 * (lam * lam - 11 * lam - 1)
            assert inv.c4 == 1 + 12 * lam + 14 * lam**2 - 12 * lam**3 + lam**4

    def test_e1k_disc(self):
        for k in (1, 2, 3):
            for eps in (1, -1):
                lam = eps * 5**k
                inv = invariants(e1k(k, eps))
                assert inv.disc == F(lam) ** 5 * (F(lam) ** 2 - 11 * lam - 1)
                assert inv.c4 == 1 + 12 * lam + 14 * 5 ** (2 * k) - 12 * lam**3 + lam**4

    def test_e2k_model(self):
        c = e2k(1, 1)
        assert c.ainvs == (4, -5, -25, 0, 0)

    def test_family_dispatch(self):
        assert make_family("kubert5", 1) == kubert5(1)
        assert make_family("e1k", 2) == e1k(2)
        with pytest.raises(InputError):
            make_family("nope", 1)

    def test_degenerate_parameters(self):
        with pytest.raises(InputError):
            family3(0)
        with pytest.raises(InputError):
            kubert5(0)
        with pytest.raises(InputError):
            e1k(0, 1)

    def test_non_integer_exponent_refused(self):
        # 5**k at k = 3/2 is a float, and so were the curve's coefficients
        for family in (e1k, e2k):
            for k in (F(3, 2), 1.5, 2.0):
                with pytest.raises(InputError, match="k must be an integer"):
                    family(k)


class TestQuadInt:
    def test_half_closure(self):
        phi = QuadInt(1, 1, 5, half=True)
        psi = QuadInt(1, -1, 5, half=True)
        assert phi * psi == QuadInt.of_int(-1, 5)
        assert phi + psi == QuadInt.of_int(1, 5)
        assert phi.norm() == -1 and phi.trace() == 1

    def test_half_validation(self):
        with pytest.raises(InputError):
            QuadInt(1, 0, 5, half=True)  # parity
        with pytest.raises(InputError):
            QuadInt(1, 1, 6, half=True)  # d = 2 mod 4
        with pytest.raises(InputError):
            QuadInt(1, 1, 12)  # not squarefree

    def test_mixed_fields_rejected(self):
        with pytest.raises(InputError):
            QuadInt(1, 1, 5) + QuadInt(1, 1, 6)

    def test_even_half_normalises(self):
        assert QuadInt(4, 2, 5, half=True) == QuadInt(2, 1, 5)

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50),
           st.sampled_from([2, 3, 5, 6, -1, -2, 33]))
    @settings(max_examples=150)
    def test_norm_multiplicative(self, u1, v1, u2, v2, d):
        x = QuadInt(u1, v1, d)
        y = QuadInt(u2, v2, d)
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


class TestQuadraticCurves:
    def test_everywhere_good_33_disc(self):
        dk = invariants_K(everywhere_good_33()).disc
        assert dk.norm() == 2**72 * 3**24 * 7**24 * 11**12

    def test_everywhere_good_6_unit_disc(self):
        dk = invariants_K(everywhere_good_6()).disc
        assert dk.norm() == 1

    def test_rational_coefficients_embed(self):
        c = curve_K([0, 0, 0, -12, -11], d=5)
        assert invariants_K(c).disc == QuadInt.of_int(58320, 5)

    def test_mixed_field_curve_rejected(self):
        with pytest.raises(InputError):
            from ellorders.curve import CurveK

            CurveK(
                QuadInt(0, 1, 5), QuadInt.of_int(0, 6), QuadInt.of_int(0, 5),
                QuadInt.of_int(1, 5), QuadInt.of_int(1, 5),
            )
