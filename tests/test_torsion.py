import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellorders import reduction, torsion, walk
from ellorders.arith import legendre, primes_in_range, sqrt_mod
from ellorders.curve import (
    curve,
    family3,
    family5,
    integral_model,
    invariants,
    kubert5,
    quadratic_twist,
    transformed,
)
from ellorders.errors import DataIntegrityError, InputError, ResourceError
from ellorders.reduction import _fq_pt_mul, count_points_fp
from ellorders.torsion import (
    MAZUR_STRUCTURES,
    QUADRATIC_GROWTH,
    TorsionGroup,
    division_polynomial,
    division_value_mod,
    ec_add,
    ec_mul,
    odd_torsion_over_quadratic,
    point_order,
    quadratic_torsion_bound,
    torsion_over_Q,
)
from ellorders.torsion import _integer_cubic_roots


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _on_input_model(c, pt):
    x, y = Fraction(pt[0]), Fraction(pt[1])
    a1, a2, a3, a4, a6 = c.ainvs
    return y * y + a1 * x * y + a3 * y == x**3 + a2 * x * x + a4 * x + a6


def _random_good_curve(rng, p):
    while True:
        ai = [rng.randrange(-4, 5) for _ in range(5)]
        try:
            c = curve(ai)
        except Exception:
            continue
        if int(invariants(c).disc) % p:
            return c


def _some_affine_point(c, p, rng):
    ai = tuple(int(a) for a in integral_model(c).ainvs)
    a1, a2, a3, a4, a6 = ai
    xs = list(range(p))
    rng.shuffle(xs)
    for x in xs:
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0:
                return (x, y)
    return None


class TestCatalogs:
    def test_mazur_list(self):
        assert len(MAZUR_STRUCTURES) == 15
        for n1, n2 in MAZUR_STRUCTURES:
            assert n2 % n1 == 0
            assert n1 in (1, 2)

    def test_growth_table_keys_are_the_rational_structures(self):
        assert set(QUADRATIC_GROWTH) == set(MAZUR_STRUCTURES)

    def test_growth_table_contains_the_base_structure(self):
        for struct, options in QUADRATIC_GROWTH.items():
            assert struct in options

    def test_growth_orders_stay_admissible(self):
        # the torsion orders possible over a quadratic field
        orders = set(range(1, 17)) | {18, 20, 24}
        for options in QUADRATIC_GROWTH.values():
            for h1, h2 in options:
                assert h2 % h1 == 0
                assert h1 * h2 in orders


class TestDivisionPolynomials:
    def test_short_model_cubic_multiplier(self):
        # psi_3 on y^2 = x^3 + Ax + B is 3x^4 + 6Ax^2 + 12Bx - A^2
        for A, B in ((-1, 1), (2, 3), (0, -4), (-7, 10)):
            psi = division_polynomial(curve([0, 0, 0, A, B]), 3)
            assert psi.coefficients == (-A * A, 12 * B, 6 * A, 0, 3)
            assert not psi.squared
            assert psi.degree == 4

    def test_three_torsion_of_rigid_family_factors(self):
        # psi_3 splits off the root x = 1 with a parameter-free linear part
        for t in (1, 2, -2, 5):
            cof = [1 + 4 * t * t, 4 * t * t - 3, 3 + 4 * t * t, -1]
            expected = tuple(_pmul([3, -3], cof))
            psi = division_polynomial(family3(t), 3)
            assert psi.coefficients == expected

    def test_five_torsion_of_sqrt5_family_factors(self):
        # psi_5 = x (x - 16t) * (degree-10 cofactor), lead 5
        for t in (1, 2, -3):
            psi = division_polynomial(family5(t), 5)
            assert psi.degree == 12
            assert psi.coefficients[-1] == 5
            assert psi(0) == 0
            assert psi(16 * t) == 0
            # divide out x, then x - 16t, exactly
            quot = list(psi.coefficients[1:])
            cof = [0] * (len(quot) - 1)
            acc = 0
            for k in range(len(quot) - 1, 0, -1):
                acc = quot[k] + 16 * t * acc
                cof[k - 1] = acc
            assert quot[0] + 16 * t * acc == 0
            assert len(cof) == 11
            assert cof[-1] == 5
            assert cof[0] == 343597383680 * t**10

    def test_odd_degree_formula(self):
        rng = random.Random(7)
        for _ in range(10):
            c = _random_good_curve(rng, 5)
            for m in (3, 5, 7, 9):
                psi = division_polynomial(c, m)
                assert psi.degree == (m * m - 1) // 2

    def test_even_m_stores_square_form(self):
        c = curve([1, 0, 1, -3, 2])
        psi4 = division_polynomial(c, 4)
        assert psi4.squared
        # deg psi_m^2 = 3 + 2 * (m^2 - 4)/2 for even m
        assert psi4.degree == 3 + (4 * 4 - 4)

    def test_roots_mod_p_are_torsion_abscissae(self):
        # over F_{p^2} every x in F_p carries a point; m-torsion below m P = O
        rng = random.Random(11)
        cases = [
            (curve([0, 0, 0, -1, 1]), 3),
            (curve([0, 0, 0, 2, 3]), 3),
            (curve([1, 0, 1, -3, 2]), 4),
            (family5(1), 5),
        ]
        for c, m in cases:
            ci = integral_model(c)
            ai = tuple(int(a) for a in ci.ainvs)
            disc = int(invariants(ci).disc)
            psi = division_polynomial(ci, m)
            for p in primes_in_range(3, 31):
                if disc % p == 0 or m % p == 0:
                    continue
                r = next(n for n in range(2, p) if legendre(n, p) == -1)
                emb = tuple((a % p, 0) for a in ai)
                a1, a2, a3, a4, a6 = (a % p for a in ai)
                expected = set()
                for x in range(p):
                    rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
                    bx = ((a1 * x + a3) ** 2 + 4 * rhs) % p
                    w = sqrt_mod(bx, p)
                    if w is not None:
                        y = ((w - a1 * x - a3) * pow(2, p - 2, p)) % p
                        pt = ((x, 0), (y, 0))
                    else:
                        t = sqrt_mod(bx * pow(r, p - 2, p) % p, p)
                        half = pow(2, p - 2, p)
                        y = ((p - a1 * x - a3) * half % p, t * half % p)
                        pt = ((x, 0), y)
                    if _fq_pt_mul(m, pt, emb, p, r) is None:
                        expected.add(x)
                roots = {x for x in range(p) if psi(x) % p == 0}
                assert roots == expected

    def test_value_recurrence_matches_polynomial(self):
        c = curve([1, -1, 1, -199, 510])
        for p in (7, 11, 101):
            for m in (3, 5, 8, 13):
                for x0 in (0, 1, 5, p - 2):
                    val = division_value_mod(c, m, x0, p)
                    if m <= 30:
                        psi = division_polynomial(c, m)
                        if psi.squared:
                            inv = invariants(integral_model(c))
                            bx = (
                                4 * x0**3 + int(inv.b2) * x0 * x0
                                + 2 * int(inv.b4) * x0 + int(inv.b6)
                            )
                            assert psi(x0) % p == bx * val * val % p
                        else:
                            assert psi(x0) % p == val % p

    def test_guard_and_input_errors(self):
        c = curve([0, 0, 0, -1, 1])
        with pytest.raises(InputError):
            division_polynomial(c, 1)
        with pytest.raises(ResourceError):
            division_polynomial(c, 31)
        with pytest.raises(InputError):
            division_value_mod(c, 5, 0, 2)
        with pytest.raises(InputError):
            division_value_mod(c, 5, 0, 15)
        with pytest.raises(InputError):
            division_value_mod(c, -1, 0, 7)

    def test_guard_boundary_is_inclusive(self):
        psi = division_polynomial(curve([0, 0, 0, 0, 1]), 29)
        assert psi.degree == (29 * 29 - 1) // 2


class TestGroupLaw:
    def test_identity(self):
        c = curve([1, -1, 1, -199, 510])
        P = _some_affine_point(c, 7, random.Random(1))
        assert ec_add(7, c, P, None) == P
        assert ec_add(7, c, None, P) == P
        assert ec_add(7, c, None, None) is None

    def test_commutative_and_associative(self):
        rng = random.Random(23)
        for p in (5, 7, 11, 13):
            c = _random_good_curve(rng, p)
            pts = []
            while len(pts) < 3:
                pt = _some_affine_point(c, p, rng)
                pts.append(pt)
            P, Q, R = pts
            assert ec_add(p, c, P, Q) == ec_add(p, c, Q, P)
            left = ec_add(p, c, ec_add(p, c, P, Q), R)
            right = ec_add(p, c, P, ec_add(p, c, Q, R))
            assert left == right

    def test_lagrange_annihilation(self):
        rng = random.Random(5)
        primes = list(primes_in_range(5, 47))
        for _ in range(20):
            p = rng.choice(primes)
            c = _random_good_curve(rng, p)
            P = _some_affine_point(c, p, rng)
            if P is None:
                continue
            n = count_points_fp(c, p).count
            assert ec_mul(p, c, n, P) is None

    def test_two_torsion_point_doubles_to_identity(self):
        c = curve([0, 0, 0, -12, -11])
        for p in (7, 13, 17):
            assert ec_mul(p, c, 2, (p - 1, 0)) is None

    def test_off_curve_rejected(self):
        c = curve([0, 0, 0, -12, -11])
        with pytest.raises(InputError):
            ec_add(7, c, (0, 1), None)
        with pytest.raises(InputError):
            ec_mul(7, c, 2, (0, 1))

    def test_bad_prime_rejected(self):
        c = curve([0, 0, 0, -12, -11])  # disc = -2^4 3^6 5
        with pytest.raises(InputError):
            ec_add(5, c, None, None)

    def test_point_order_divides_group_order(self):
        rng = random.Random(17)
        for p in (7, 11, 19, 31):
            c = _random_good_curve(rng, p)
            P = _some_affine_point(c, p, rng)
            n = count_points_fp(c, p).count
            o = point_order(p, c, P)
            assert n % o == 0
            assert ec_mul(p, c, o, P) is None
            for q in (2, 3, 5, 7):
                if o % q == 0:
                    assert ec_mul(p, c, o // q, P) is not None

    def test_point_order_of_identity(self):
        assert point_order(7, curve([0, 0, 0, -12, -11]), None) == 1


class TestTorsionOverQ:
    def test_two_torsion_line(self):
        c = curve([1, 1, 0, -700, 34000])
        t = torsion_over_Q(c)
        assert t.structure == (1, 2)
        assert str(t) == "Z/2"

    def test_twist_by_five_grows_to_ten(self):
        c = quadratic_twist(curve([1, 1, 0, -700, 34000]), 5)
        t = torsion_over_Q(c)
        assert t.structure == (1, 10)
        assert t.order == 10

    def test_cyclic_four(self):
        t = torsion_over_Q(curve([1, -1, 1, -199, 510]))
        assert t.structure == (1, 4)
        assert str(t) == "Z/4"

    def test_full_two_torsion(self):
        t = torsion_over_Q(curve([1, -1, 0, -1773, -5720]))
        assert t.structure == (2, 2)
        assert str(t) == "Z/2 x Z/2"
        assert t.order == 4

    def test_five_torsion_family_members(self):
        for lam in (1, 3, Fraction(1, 2)):
            assert torsion_over_Q(kubert5(lam)).structure == (1, 5)

    def test_cyclic_three(self):
        assert torsion_over_Q(curve([0, 1, 0, -333, -3537])).structure == (1, 3)

    def test_trivial(self):
        c = quadratic_twist(kubert5(3), 5)
        t = torsion_over_Q(c)
        assert t.structure == (1, 1)
        assert str(t) == "trivial"
        assert t.generators == ()

    def test_generators_lie_on_the_input_model(self):
        for ai in ([1, 1, 0, -700, 34000], [1, -1, 1, -199, 510],
                   [1, -1, 0, -1773, -5720]):
            c = curve(ai)
            t = torsion_over_Q(c)
            assert len(t.generators) == (2 if t.n1 == 2 else 1)
            for pt in t.generators:
                assert _on_input_model(c, pt)

    def test_generators_follow_scaled_coordinates(self):
        c = curve([1, -1, 1, Fraction(-199), Fraction(510)])
        scaled = curve([Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8),
                        Fraction(-199, 16), Fraction(510, 64)])
        t = torsion_over_Q(scaled)
        assert t.structure == (1, 4)
        for pt in t.generators:
            assert _on_input_model(scaled, pt)

    def test_every_fixture_lands_in_the_rational_list(self):
        for ai in ([1, 1, 0, -700, 34000], [1, -1, 1, -199, 510],
                   [1, -1, 0, -1773, -5720], [0, 1, 0, -333, -3537]):
            t = torsion_over_Q(curve(ai))
            assert t.structure in MAZUR_STRUCTURES

    def test_torsion_order_shortcut(self):
        assert torsion_over_Q(curve([1, -1, 1, -199, 510])).order == 4
        assert torsion_over_Q(kubert5(1)).order == 5

    def test_injection_into_good_fibres(self):
        for ai in ([1, 1, 0, -700, 34000], [1, -1, 1, -199, 510],
                   [1, -1, 0, -1773, -5720], [0, 1, 0, -333, -3537]):
            c = curve(ai)
            order = torsion_over_Q(c).order
            disc = int(invariants(integral_model(c)).disc)
            for p in primes_in_range(3, 1000):
                if disc % p == 0:
                    continue
                assert count_points_fp(c, p).count % order == 0

    def test_bound_not_a_multiple_of_the_order_is_refused(self, monkeypatch):
        walk = torsion.prime_walk

        def skewed(c, lo, X, keep=None):
            for p, n in walk(c, lo, X, keep):
                yield p, n + 1

        monkeypatch.setattr(torsion, "prime_walk", skewed)
        torsion_over_Q.cache_clear()
        try:
            with pytest.raises(DataIntegrityError):
                torsion_over_Q(curve([1, -1, 1, -199, 510]))
        finally:
            torsion_over_Q.cache_clear()

    @staticmethod
    def _counted(monkeypatch):
        """Spy on the walks' _count_chunk: the primes of every block counted."""
        blocks = []
        real = reduction._count_chunk
        monkeypatch.setattr(walk, "_count_chunk",
                            lambda ai, ps: blocks.append(list(ps)) or real(ai, ps))
        return blocks

    def test_stop_at_the_first_check_counts_eight_primes(self, monkeypatch):
        blocks = self._counted(monkeypatch)
        torsion_over_Q.cache_clear()
        try:
            assert torsion_over_Q(curve([1, -1, 1, -199, 510])).structure == (1, 4)
        finally:
            torsion_over_Q.cache_clear()
        assert sum(map(len, blocks)) == 8

    def test_walk_to_the_end_counts_only_the_good_primes_to_4000(self, monkeypatch):
        c = curve([0, 0, 0, -9, -11])
        disc = int(invariants(integral_model(c)).disc)
        blocks = self._counted(monkeypatch)
        torsion_over_Q.cache_clear()
        try:
            assert torsion_over_Q(c).order == 1
        finally:
            torsion_over_Q.cache_clear()
        assert [p for ps in blocks for p in ps] == [
            p for p in primes_in_range(3, 4000) if disc % p]

    def test_prime_walk_blocks_double_from_eight(self, monkeypatch):
        blocks = self._counted(monkeypatch)
        walked = list(walk.prime_walk(curve([0, 0, 1, -1, 0]), 2, 50000))
        widths = [8 << k for k in range(9)]
        assert widths[-1] == reduction.CHUNK
        assert [len(ps) for ps in blocks] == widths + [len(walked) - sum(widths)]

    def test_huge_discriminant_refused(self):
        # B = q^2 with q = 10000019 prime: (0, +-q) has order 3, so every gcd
        # of counts stays a multiple of 3 and only the divisor search decides
        c = curve([0, 0, 0, 0, 10000019**2])
        with pytest.raises(ResourceError):
            torsion_over_Q(c)

    def test_unfactored_discriminant_with_gcd_one_is_trivial(self):
        # 4 + 27 B^2 = 2^4 * 66670759 * 253109473 and 27 * 999999937^2 defeat
        # factorize, but the gcd of good odd counts reaches 1, for the first
        # curve and its twist by 5 too
        c = curve([0, 0, 0, 1, 100000002])
        for e in (c, quadratic_twist(c, 5), curve([0, 0, 0, 0, 999999937])):
            assert torsion_over_Q(e) == TorsionGroup(1, 1, ())

    def test_group_string_forms(self):
        assert str(TorsionGroup(1, 1, ())) == "trivial"
        assert str(TorsionGroup(1, 7, ())) == "Z/7"
        assert str(TorsionGroup(2, 8, ())) == "Z/2 x Z/8"
        assert TorsionGroup(2, 6, ()).order == 12


class TestQuadraticTorsion:
    def test_odd_part_from_trivial_base(self):
        c = quadratic_twist(kubert5(3), 5)
        assert odd_torsion_over_quadratic(c, 5) == 5

    def test_odd_part_from_three_torsion_base(self):
        c = quadratic_twist(curve([1, -2, -4, 0, 0]), 5)
        assert torsion_over_Q(c).structure == (1, 3)
        assert odd_torsion_over_quadratic(c, 5) == 15

    def test_twist_pair_is_symmetric(self):
        assert odd_torsion_over_quadratic(kubert5(3), 5) == 5
        assert odd_torsion_over_quadratic(curve([1, -2, -4, 0, 0]), 5) == 15

    def test_odd_part_fixed_when_twist_adds_nothing(self):
        assert odd_torsion_over_quadratic(kubert5(1), 6) == 5

    def test_d_one_names_no_quadratic_field(self):
        # the twist by 1 is the curve itself, so its Z/5 would count twice
        with pytest.raises(InputError):
            odd_torsion_over_quadratic(curve([0, -1, 1, -10, -20]), 1)

    def test_gaussian_bound_on_small_conductor_curve(self):
        c = curve([1, -1, 1, -1, -14])
        assert quadratic_torsion_bound(c, -1, 2000) == 8

    def test_bound_is_a_multiple_of_the_odd_torsion(self):
        cases = [
            (curve([1, -1, 1, -1, -14]), -1),
            (kubert5(1), 6),
            (quadratic_twist(curve([1, -2, -4, 0, 0]), 5), 5),
        ]
        for c, d in cases:
            bound = quadratic_torsion_bound(c, d, 2000)
            assert bound % odd_torsion_over_quadratic(c, d) == 0

    def test_bound_monotone_in_the_prime_cutoff(self):
        for c, d in ((curve([1, -1, 1, -1, -14]), -1), (kubert5(1), 6)):
            wide = quadratic_torsion_bound(c, d, 2000)
            narrow = quadratic_torsion_bound(c, d, 500)
            assert narrow % wide == 0

    def test_bound_needs_a_real_cutoff(self):
        with pytest.raises(InputError):
            quadratic_torsion_bound(kubert5(1), 6, 99)

    @pytest.mark.parametrize("d", [0, 1, 12])
    def test_bound_needs_a_field(self, d):
        with pytest.raises(InputError):
            quadratic_torsion_bound(curve([1, 1, 0, -700, 34000]), d)

    def test_observed_growth_is_an_admissible_row(self):
        # structure over Q, observed bound: some quadratic row must explain it
        cases = [
            (curve([1, -1, 1, -1, -14]), -1),
            (kubert5(1), 6),
        ]
        for c, d in cases:
            base = torsion_over_Q(c).structure
            bound = quadratic_torsion_bound(c, d, 2000)
            options = QUADRATIC_GROWTH[base]
            assert any(bound % (h1 * h2) == 0 for h1, h2 in options)


_INVARIANCE_CURVES = (
    [0, 1, 0, -1, 0],
    [1, -1, 1, -199, 510],
    [1, 1, 0, -700, 34000],
    [0, 1, 0, -333, -3537],
    [1, -1, 0, -1773, -5720],
    [1, 0, 1, -76, 298],
)
_small_rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_scalings = st.tuples(
    st.sampled_from((1, -1)),
    st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12),
).map(lambda su: su[0] * su[1])


class TestModelIndependence:
    @given(st.sampled_from(_INVARIANCE_CURVES), _small_rats, _small_rats,
           _small_rats, _scalings)
    @settings(max_examples=50, deadline=None)
    def test_torsion_is_invariant_under_transformed(self, ai, r, s, t, u):
        c = curve(ai)
        moved = transformed(c, r=r, s=s, t=t, u=u)
        tors = torsion_over_Q(moved)
        assert tors.structure == torsion_over_Q(c).structure
        for pt in tors.generators:
            assert _on_input_model(moved, pt)

    @pytest.mark.parametrize("u", [Fraction(1, 10**20), Fraction(1, 10**40), 100])
    def test_far_from_minimal_models_of_cyclic_four(self, u):
        moved = transformed(curve([1, -1, 1, -199, 510]), u=u)
        tors = torsion_over_Q(moved)
        assert tors.structure == (1, 4)
        for pt in tors.generators:
            assert _on_input_model(moved, pt)

    def test_cross_check_walk_is_the_same_on_scaled_models(self):
        # u = 1/3 and 1/5 put 3 and 5 into the model's discriminant, but the
        # curve is good there, so the walk must still count them
        c = curve([1, -1, 1, -199, 510])
        bounds = list(torsion._reduction_bounds(c))
        assert len(bounds) == 548
        for u in (Fraction(1, 3), Fraction(1, 5)):
            assert list(torsion._reduction_bounds(transformed(c, u=u))) == bounds


def _brute_roots(A, c, reach=60):
    return [x for x in range(-reach, reach + 1) if x**3 + A * x + c == 0]


class TestIntegerCubicRoots:
    def test_matches_brute_force_on_a_grid(self):
        # every root of these has |x| <= max(sqrt(2|A|), cbrt(2|c|)) < 60
        for A in range(-120, 121, 3):
            consts = set(range(-600, 601, 25))
            consts |= {-(x**3 + A * x) + d for x in range(-15, 16) for d in (-1, 0, 1)}
            for c in consts:
                assert _integer_cubic_roots(A, c) == _brute_roots(A, c), (A, c)

    def test_planted_roots_up_to_ten_to_the_forty(self):
        rng = random.Random(9)
        for _ in range(200):
            r1 = rng.randint(-10**40, 10**40)
            r2 = rng.choice((r1, -r1, rng.randint(-10**40, 10**40)))
            # (x - r1)(x - r2)(x + r1 + r2) = x^3 + Ax + c
            A = r1 * r2 - (r1 + r2) ** 2
            c = r1 * r2 * (r1 + r2)
            assert _integer_cubic_roots(A, c) == sorted({r1, r2, -r1 - r2})
            assert _integer_cubic_roots(A, c + 1) == []

    def test_double_root(self):
        # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
        assert _integer_cubic_roots(-3, 2) == [-2, 1]
        assert _integer_cubic_roots(-3, -2) == [-1, 2]

    def test_nonnegative_linear_term(self):
        assert _integer_cubic_roots(0, 0) == [0]
        assert _integer_cubic_roots(0, 8) == [-2]
        assert _integer_cubic_roots(2, -3) == [1]  # (x - 1)(x^2 + x + 3)
        assert _integer_cubic_roots(5, 1) == []

    def test_constants_beyond_float_range(self):
        big = 10**120
        assert _integer_cubic_roots(5, -(big**3 + 5 * big)) == [big]
        r1, r2 = 10**110, -3 * 10**105 + 7
        A, c = r1 * r2 - (r1 + r2) ** 2, r1 * r2 * (r1 + r2)
        assert abs(c) > 10**300
        assert _integer_cubic_roots(A, c) == sorted({r1, r2, -r1 - r2})
        assert _integer_cubic_roots(0, 10**400 + 1) == []
        assert _integer_cubic_roots(0, -(10**402)) == [10**134]
