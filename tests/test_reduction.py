import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellorders import reduction
from ellorders.arith import legendre, primes_in_range, sqrt_mod
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
    SplitKind,
    _count_chunk,
    _count_model_mod_p,
    _finder_rng,
    _fp_finder_count,
    _fq_enumerate,
    _fq_finder_count,
    _fq_group_order,
    _fq_mul,
    _lane_round,
    _order_finder,
    _window_annihilators,
    count_at_quadratic_prime,
    count_curveK_at_prime,
    count_extension,
    count_fp2_direct,
    count_points_fp,
    local_data,
    smooth_locus_order,
    splitting,
    twist_count_identity_check,
)
from ellorders.survey import _scan_chunk


class TestLocalData:
    def test_multiplicative_split_small_disc(self):
        ld = local_data(kubert5(1), 11)
        assert ld.kodaira.label == "I1"
        assert ld.rtype is ReductionType.SPLIT
        assert smooth_locus_order(ld) == 10
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

    def test_smooth_locus_needs_bad_reduction(self):
        with pytest.raises(InputError):
            smooth_locus_order(local_data(kubert5(1), 7))

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

    def test_twist_identity_needs_good_prime(self):
        with pytest.raises(InputError):
            twist_count_identity_check(kubert5(1), 11)


class TestSplitting:
    def test_odd_prime_kinds(self):
        assert splitting(33, 17).kind is SplitKind.SPLIT
        assert splitting(33, 7).kind is SplitKind.INERT
        assert splitting(33, 11).kind is SplitKind.RAMIFIED
        assert splitting(-15, 5).kind is SplitKind.RAMIFIED

    def test_two_follows_d_mod_eight(self):
        assert splitting(33, 2).kind is SplitKind.SPLIT  # 33 = 1 mod 8
        assert splitting(5, 2).kind is SplitKind.INERT
        assert splitting(6, 2).kind is SplitKind.RAMIFIED
        assert splitting(-1, 2).kind is SplitKind.RAMIFIED

    def test_invariants_of_kinds(self):
        sp = splitting(6, 7)
        assert (sp.e, sp.f) == (1, 2)
        assert sp.kind is SplitKind.INERT

    def test_bad_d_rejected(self):
        with pytest.raises(InputError):
            splitting(12, 7)
        with pytest.raises(InputError):
            splitting(1, 7)


class TestQuadraticCounts:
    def test_split_prime_gives_rational_count(self):
        c = curve([0, 0, 0, -12, -11])
        assert count_at_quadratic_prime(c, 33, 17) == count_points_fp(c, 17).count

    def test_inert_prime_gives_degree_two_count(self):
        c = curve([0, 0, 0, -12, -11])
        n2 = count_extension(count_points_fp(c, 7), n=2).count
        assert count_at_quadratic_prime(c, 33, 7) == n2

    def test_ramified_refused(self):
        with pytest.raises(UnsupportedPrimeError):
            count_at_quadratic_prime(curve([0, 0, 0, -12, -11]), 33, 11)

    def test_two_refused(self):
        with pytest.raises(UnsupportedPrimeError):
            count_at_quadratic_prime(curve([0, 0, 0, -12, -11]), 33, 2)

    def test_bad_reduction_flagged(self):
        with pytest.raises(BadReductionError):
            count_at_quadratic_prime(kubert5(1), 6, 11)


class TestCurveKCounts:
    def test_rational_model_agrees_with_quadratic_count(self):
        cq = curve([0, 0, 0, -12, -11])
        ck = curve_K([0, 0, 0, -12, -11], 33)
        for p in (7, 13, 17, 19, 29):
            counts = count_curveK_at_prime(ck, p)
            agg = count_at_quadratic_prime(cq, 33, p)
            if splitting(33, p).kind is SplitKind.SPLIT:
                assert counts == [agg, agg]
            else:
                assert counts == [agg]

    def test_split_counts_ordered_by_smaller_root(self):
        ck = curve_K([0, 0, 0, QuadInt(0, 1, 33), 2], 33)
        for p in (17, 29, 37):
            r = sqrt_mod(33 % p, p)
            expect = [_count_model_mod_p((0, 0, 0, rr, 2), p) for rr in (r, p - r)]
            assert count_curveK_at_prime(ck, p) == expect

    def test_everywhere_good_curves_count_everywhere_odd_unramified(self):
        for ck in (everywhere_good_33(), everywhere_good_6()):
            for p in (5, 7, 13, 17, 19, 23):
                sp = splitting(ck.d, p)
                if sp.kind is SplitKind.RAMIFIED:
                    continue
                try:
                    counts = count_curveK_at_prime(ck, p)
                except BadReductionError:
                    continue  # model-level bad prime; allowed, just skipped
                for n in counts:
                    q = p if sp.kind is SplitKind.SPLIT else p * p
                    assert abs(q + 1 - n) <= 2 * int(q**0.5) + 1

    def test_bsgs_agrees_with_enumeration(self):
        # just above the enumeration cutoff, including supersingular cases
        g6 = everywhere_good_6()
        inv = invariants_K(g6)
        for p in (223, 227, 229):
            counts = count_curveK_at_prime(g6, p)
            if splitting(6, p).kind is SplitKind.INERT:
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
                assert splitting(ck.d, p).kind is SplitKind.INERT
                r, inv2 = ck.d % p, pow(2, p - 2, p)

                def red(z):
                    u, v = z.doubled()
                    return ((u * inv2) % p, (v * inv2) % p)

                n = _fq_enumerate((red(inv.b2), red(inv.b4), red(inv.b6)), p, r)
                assert count_curveK_at_prime(ck, p) == [n]
                # E: y^2 = x^3 - c4/48 x - c6/864; its twist by a nonsquare
                # g of F_{p^2}, one whose norm u^2 - r is a nonresidue
                g = next((u, 1) for u in range(p) if legendre(u * u - r, p) == -1)
                g2 = _fq_mul(g, g, p, r)
                a4 = _fq_mul(red(-inv.c4), g2, p, r)
                a6 = _fq_mul(red(-inv.c6), _fq_mul(g2, g, p, r), p, r)
                a4 = _fq_mul(a4, (pow(48, -1, p), 0), p, r)
                a6 = _fq_mul(a6, (pow(864, -1, p), 0), p, r)
                # the twist is short: b2 = 0, b4 = 2 a4, b6 = 4 a6
                tw = ((0, 0), (2 * a4[0] % p, 2 * a4[1] % p),
                      (4 * a6[0] % p, 4 * a6[1] % p))
                assert n + _fq_enumerate(tw, p, r) == 2 * p * p + 2

    def test_supersingular_disambiguation(self):
        # 223 is inert in Q(sqrt 6) and the reduction is supersingular there:
        # the group is (Z/(p-1))^2, the hardest case for order finding
        assert count_curveK_at_prime(everywhere_good_6(), 223) == [222 * 222]

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


class TestOrderFinder:
    # j = 0 and j = 1728 (supersingular at half the primes), full rational
    # 2-torsion, and the first density curve
    CURVES = ((0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 1, 0, -2, 0), (1, 1, 0, -700, 34000))

    def test_fp_finder_matches_table(self):
        # every good p from Mestre's bound to 5000, the crossover before the
        # finder stopped computing point orders, and at least 2000 above the
        # crossover, where count_points_fp uses it
        cross = reduction._FINDER_CROSSOVER
        primes = primes_in_range(230, max(5000, cross + 2000))
        supersingular = 0
        for ai in self.CURVES:
            _, _, _, _, c4, c6, disc = _invariant_kernel(ai)
            for p in primes:
                if disc % p == 0:
                    continue
                want = _count_model_mod_p(ai, p)
                got = _fp_finder_count(c4, c6, p, _finder_rng(p, ai))
                assert got == want, (ai, p)
                if p > cross:
                    assert count_points_fp(curve(list(ai)), p).count == want
                supersingular += want == p + 1
        assert supersingular > 200

    def test_fq_finder_matches_enumeration(self):
        # every inert p from 11 to the old enumeration cutoff 211
        for ck in (everywhere_good_6(), everywhere_good_33()):
            inv = invariants_K(ck)
            for p in primes_in_range(11, 211):
                if splitting(ck.d, p).kind is not SplitKind.INERT:
                    continue
                red, r = _reduce_quad(p), ck.d % p
                want = _fq_enumerate((red(inv.b2), red(inv.b4), red(inv.b6)), p, r)
                got = _fq_finder_count((red(inv.c4), red(inv.c6)), p, r,
                                       _finder_rng(p, (p,)))
                assert got == want, (ck.d, p)
                assert count_curveK_at_prime(ck, p) == [want]

    def test_fallbacks_return_the_oracle_values(self, monkeypatch):
        ai = self.CURVES[3]
        p = primes_in_range(reduction._FINDER_CROSSOVER + 1, 10**5)[0]
        want = _count_model_mod_p(ai, p)
        ck = everywhere_good_6()
        inv, q, red = invariants_K(ck), 229, _reduce_quad(229)
        assert splitting(6, q).kind is SplitKind.INERT
        b246 = (red(inv.b2), red(inv.b4), red(inv.b6))
        args = (tuple(red(a) for a in ck.ainvs), q, 6, b246,
                (red(inv.c4), red(inv.c6)))
        want_q = _fq_enumerate(b246, q, 6)
        monkeypatch.setattr(reduction, "_FINDER_DRAWS", 0)
        _, _, _, _, c4, c6, _ = _invariant_kernel(ai)
        assert _fp_finder_count(c4, c6, p, _finder_rng(p, ai)) is None
        assert _count_chunk(ai, [p]) == [want]
        assert _fq_group_order(*args) == want_q

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

    def test_chunk_matches_table_above_crossover(self, monkeypatch):
        cross = reduction._FINDER_CROSSOVER
        wants = {}
        for ai in TestOrderFinder.CURVES:
            disc = _invariant_kernel(ai)[6]
            primes = [p for p in primes_in_range(cross + 1, cross + 2000) if disc % p]
            wants[ai] = primes, [_count_model_mod_p(ai, p) for p in primes]
        seen = self._pinned(monkeypatch)
        for ai, (primes, want) in wants.items():
            assert _count_chunk(ai, primes) == want, ai
        assert seen[1] > 0.8 * sum(len(ps) for ps, _ in wants.values())

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
        p = primes_in_range(reduction._FINDER_CROSSOVER + 1, 10**5)[0]
        chunks = []
        real = reduction._count_chunk
        monkeypatch.setattr(reduction, "_count_chunk",
                            lambda ai, ps: chunks.append(ps) or real(ai, ps))
        seen = self._pinned(monkeypatch)
        assert count_points_fp(curve(list(ai)), p).count == _count_model_mod_p(ai, p)
        assert chunks == [[p]]
        assert seen[0] == 0

    def test_chunk_refuses_primes_above_count_ceiling(self):
        with pytest.raises(ResourceError):
            _count_chunk(TestOrderFinder.CURVES[3], [10**7 + 19])

    def test_scan_chunk_unchanged_when_no_lane_is_pinned(self, monkeypatch):
        # the scalar path alone must give the same table, bad primes and a
        # non-minimal one included: 7 is good on this model scaled by u = 1/7
        for ai in (TestOrderFinder.CURVES[3], (0, 0, 0, -12 * 7**4, -11 * 7**6)):
            job = (ai, 12, 5, primes_in_range(2, 9000))
            want = _scan_chunk(job)
            with monkeypatch.context() as m:
                m.setattr(reduction, "_lane_round", lambda ps, *_: [None] * len(ps))
                assert _scan_chunk(job) == want

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


def _toy_point(n, a):
    """a in the cyclic group Z/n as (min(a, -a), a), so that x(-P) = x(P)."""
    a %= n
    return None if a == 0 else (min(a, n - a), a)


def _toy_add(n):
    return lambda P, Q: _toy_point(n, (P[1] if P else 0) + (Q[1] if Q else 0))
