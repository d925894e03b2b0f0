"""Scan module: congruence tables, densities, gcd folds, family checks."""

import dataclasses
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellorders import reduction, survey, walk
from ellorders.arith import legendre, primes_in_range, sqrt_mod
from ellorders.curve import (
    QuadInt,
    _invariant_kernel,
    curve,
    curve_K,
    everywhere_good_33,
    everywhere_good_6,
    kubert5,
    make_family,
    quadratic_twist,
)
from ellorders.errors import DataIntegrityError, InputError, ResourceError
from ellorders.reduction import COUNT_CEILING, _fq_pt_mul, bad_primes, count_points_fp
from ellorders.walk import quadratic_walk
from ellorders.survey import (
    CongruenceTable,
    ExpectedTable,
    ScanReport,
    SurveySpec,
    Violation,
    check_kubert_conditions,
    congruence_survey,
    empirical_density,
    gcd_orders,
    gcd_orders_quadratic,
    scan_anomalous,
    scan_supersingular,
    verify_expected,
    verify_family,
)
from ellorders.torsion import torsion_over_Q

SIX_CURVE = [0, 0, 0, -12, -11]  # bad at 2,3,5; counts land in {0,6} mod 12
# the same curve on a model scaled by u = 1/7: not minimal at the good prime 7
SCALED_SIX_CURVE = [0, 0, 0, -12 * 7**4, -11 * 7**6]
# scaled by u = 1/2521: 2521 is above the lane floor, where the order finders count
SCALED_2521_SIX_CURVE = [0, 0, 0, -12 * 2521**4, -11 * 2521**6]
Z10_CURVE = [1, 1, 0, -700, 34000]  # Z/2 over Q, Z/10 over Q(sqrt 5)
SEVENTEEN = [1, -1, 1, -1, -14]  # conductor 17, Z/4
# 4 + 27 B^2 = 2^4 * 66670759 * 253109473 for B = 100000002: the cofactor
# past 2^4 has no prime factor within factorize's trial bound
UNFACTORED_DISC = [0, 0, 0, 1, 100000002]
# 47#, the product of the primes to 47: every prime to 50 divides 2 m N
# for m = 47#, so a survey to 50 scans none
PRIMORIAL_47 = 614889782588491410


def _lie_at_good_primes(monkeypatch):
    """Make every good table count one past the top of the Hasse window."""
    real = reduction._count_table

    def lying(models, primes):
        return [p + 2 + math.isqrt(4 * p) if _invariant_kernel(ai)[6] % p else n
                for ai, p, n in zip(models, primes, real(models, primes))]

    monkeypatch.setattr(reduction, "_count_table", lying)


def _twelve_twenty_table(X=10**4, workers=1):
    return congruence_survey(curve(SIX_CURVE), SurveySpec(12, 20, X), workers=workers)


def _twelve_twenty_expected():
    rows = {s: frozenset({0}) for s in (1, 9, 11, 13, 17, 19)}
    rows.update({s: frozenset({6}) for s in (3, 7)})
    return ExpectedTable(12, 20, rows)


class TestSurveySpec:
    def test_bounds(self):
        with pytest.raises(InputError):
            SurveySpec(0, 4, 100)
        with pytest.raises(InputError):
            SurveySpec(4, 0, 100)
        with pytest.raises(InputError):
            SurveySpec(4, 4, 49)

    def test_unit_moduli_allowed(self):
        spec = SurveySpec(1, 1, 50)
        assert spec.m == spec.N == 1

    def test_non_integer_bounds_refused(self):
        for args in ((10, 5, 100.5), ("10", 5, 100), (10, 5.0, 100)):
            with pytest.raises(InputError, match="must be an integer"):
                SurveySpec(*args)
        # numpy integers are integers
        assert SurveySpec(np.int64(10), np.int32(5), np.int64(100)).X == 100

    def test_stored_fields(self):
        # one field per fact: the rest of a table is computed from its cells
        assert [f.name for f in dataclasses.fields(SurveySpec)] == ["m", "N", "X"]
        assert [f.name for f in dataclasses.fields(ScanReport)] == ["violations", "total"]
        assert [f.name for f in dataclasses.fields(CongruenceTable)] == [
            "m", "N", "X", "ainvs", "primes_by_cell"]


class TestCongruenceSurvey:
    def test_twelve_twenty_split(self):
        # the two residue classes split exactly by p mod 20
        t = _twelve_twenty_table()
        assert set(t.rows) == {1, 3, 7, 9, 11, 13, 17, 19}
        for s in (1, 9, 11, 13, 17, 19):
            assert set(t.rows[s]) == {0}
        for s in (3, 7):
            assert set(t.rows[s]) == {6}

    def test_both_residues_occur(self):
        t = _twelve_twenty_table()
        zero = sum(t.cell(s, 0) for s in t.rows)
        six = sum(t.cell(s, 6) for s in t.rows)
        assert zero > 0 and six > 0
        assert zero + six == t.total

    def test_seventeen_rows(self):
        t = congruence_survey(curve(SEVENTEEN), SurveySpec(8, 4, 3000))
        assert set(t.rows[1]) == {0}
        assert set(t.rows[3]) <= {0, 4}

    def test_unit_modulus_single_bucket(self):
        t = congruence_survey(curve(SIX_CURVE), SurveySpec(1, 1, 200))
        assert set(t.rows) == {0}
        assert set(t.rows[0]) == {0}
        assert t.total == t.rows[0][0] > 0

    def test_single_residue_is_zero(self):
        # when only one residue class shows up at all, it is 0
        t = congruence_survey(kubert5(1), SurveySpec(5, 1, 10**4))
        assert t.rows == {0: {0: t.total}}

    def test_counts_sum_to_total(self):
        t = _twelve_twenty_table()
        assert sum(n for _, _, n in t.cells()) == t.total

    def test_primes_by_cell_consistent(self):
        t = _twelve_twenty_table(X=2000)
        seen = []
        for (s, tt), ps in t.primes_by_cell.items():
            assert len(ps) == t.rows[s][tt]
            assert all(p % 20 == s for p in ps)
            seen.extend(ps)
        assert len(seen) == len(set(seen)) == t.total

    def test_bad_and_modulus_primes_skipped(self):
        t = _twelve_twenty_table(X=2000)
        scanned = {p for ps in t.primes_by_cell.values() for p in ps}
        assert not scanned & {2, 3, 5}

    def test_parallel_determinism(self):
        # 2262 primes to 2*10^4: two blocks of CHUNK, so workers=3 runs a
        # pool of two processes on two or more CPUs, and this process
        # stores the same traces
        def stored():
            return [(c4, c6, ps.tolist(), aps.tolist())
                    for c4, c6, ps, aps in walk._TRACES.values()]

        serial = _twelve_twenty_table(X=20000)
        serial_store = stored()
        walk._TRACES.clear()
        pooled = _twelve_twenty_table(X=20000, workers=3)
        assert pooled.total > reduction.CHUNK
        assert pooled == serial
        assert stored() == serial_store

    def test_worker_count_below_one_refused(self, monkeypatch):
        # refused before any prime is sieved
        monkeypatch.setattr(survey, "primes_in_range", None)
        for workers in (0, -3):
            with pytest.raises(InputError, match="worker"):
                _twelve_twenty_table(X=500, workers=workers)

    @pytest.mark.parametrize("workers", [1.5, "2"])
    def test_non_integer_worker_count_refused(self, monkeypatch, workers):
        monkeypatch.setattr(survey, "primes_in_range", None)
        with pytest.raises(InputError, match="workers must be an integer"):
            _twelve_twenty_table(X=500, workers=workers)

    def test_non_minimal_model_gives_the_same_table(self):
        # scaled by u = 1/7, so 7 divides the model's discriminant, yet the
        # curve has good reduction there; 7 must land in the cell of N_7 = 6
        spec = SurveySpec(12, 3, 200)
        t = congruence_survey(curve(SCALED_SIX_CURVE), spec)
        base = congruence_survey(curve(SIX_CURVE), spec)
        assert t.ainvs != base.ainvs
        assert (t.rows, t.primes_by_cell) == (base.rows, base.primes_by_cell)
        assert 7 in t.primes_by_cell[(1, 6)]

    def test_non_minimal_model_through_the_lanes(self):
        spec = SurveySpec(12, 20, 3000)
        t = congruence_survey(curve(SCALED_2521_SIX_CURVE), spec)
        base = congruence_survey(curve(SIX_CURVE), spec)
        assert t.ainvs != base.ainvs
        assert (t.rows, t.primes_by_cell) == (base.rows, base.primes_by_cell)
        n = count_points_fp(curve(SIX_CURVE), 2521).count
        assert 2521 in t.primes_by_cell[(2521 % 20, n % 12)]

    def test_bound_above_count_ceiling_refused_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(ResourceError):
            congruence_survey(curve(SIX_CURVE), SurveySpec(10, 5, COUNT_CEILING + 1))
        assert time.perf_counter() - t0 < 1.0

    def test_count_outside_the_hasse_window_raises(self, monkeypatch):
        _lie_at_good_primes(monkeypatch)
        with pytest.raises(DataIntegrityError, match="Hasse"):
            congruence_survey(curve(SIX_CURVE), SurveySpec(12, 20, 500))

    def test_survey_never_imports_numpy_random(self):
        # importing numpy.random alone costs several MB of resident memory
        code = (
            "import sys\n"
            "from ellorders.curve import curve\n"
            "from ellorders.survey import SurveySpec, congruence_survey\n"
            "congruence_survey(curve([1, 1, 0, -700, 34000]), SurveySpec(10, 5, 5000))\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


class TestVerifyExpected:
    def test_pass(self):
        t = _twelve_twenty_table()
        rep = verify_expected(t, _twelve_twenty_expected())
        assert rep.passed
        assert rep.violations == ()
        assert rep.total == t.total

    def test_corrupted_row_first_prime(self):
        rows = dict(_twelve_twenty_expected().rows)
        rows[3] = frozenset({0})  # lie: class 3 actually lands on 6
        rep = verify_expected(_twelve_twenty_table(), ExpectedTable(12, 20, rows))
        assert not rep.passed
        first = rep.violations[0]
        assert first.p == 23
        assert first.observed == 6
        assert first.count % 12 == 6
        assert first.count == count_points_fp(curve(SIX_CURVE), 23).count

    def test_recount_on_non_minimal_model(self):
        spec = SurveySpec(12, 3, 200)
        t = congruence_survey(curve(SCALED_SIX_CURVE), spec)
        rep = verify_expected(t, ExpectedTable(12, 3, {1: frozenset({0}),
                                                       2: frozenset({0, 6})}))
        v = next(v for v in rep.violations if v.p == 7)
        assert v.count == count_points_fp(curve(SIX_CURVE), 7).count == 6

    def test_missing_row_is_violation(self):
        rows = dict(_twelve_twenty_expected().rows)
        del rows[7]
        rep = verify_expected(_twelve_twenty_table(X=2000), ExpectedTable(12, 20, rows))
        assert not rep.passed
        assert any("no expected row" in v.context for v in rep.violations)

    def test_modulus_mismatch(self):
        with pytest.raises(InputError):
            verify_expected(_twelve_twenty_table(X=2000), ExpectedTable(12, 10, {1: frozenset({0})}))
        with pytest.raises(InputError):
            verify_expected(_twelve_twenty_table(X=2000), ExpectedTable(6, 20, {1: frozenset({0})}))

    def test_vacuous_pass(self):
        t = congruence_survey(curve(SIX_CURVE), SurveySpec(PRIMORIAL_47, 1, 50))
        rep = verify_expected(t, ExpectedTable(PRIMORIAL_47, 1, {0: frozenset({0})}))
        assert rep.passed
        assert rep.total == 0

    def test_containment_allows_unseen_residues(self):
        rows = {s: frozenset({0, 2, 4, 6}) for s in range(20)}
        rep = verify_expected(_twelve_twenty_table(X=2000), ExpectedTable(12, 20, rows))
        assert rep.passed

    def test_empty_allowed_set_rejected(self):
        with pytest.raises(InputError):
            ExpectedTable(12, 20, {1: frozenset()})

    def test_passed_means_no_violations(self):
        assert ScanReport((), 3).passed
        assert not ScanReport((Violation(7, 8, 2, frozenset({0})),), 3).passed


class TestEmpiricalDensity:
    def test_ten_cycle_densities(self):
        t = congruence_survey(curve(Z10_CURVE), SurveySpec(10, 5, 2 * 10**4))
        zero = sum(t.cell(s, 0) for s in t.rows)
        six = sum(t.cell(s, 6) for s in t.rows)
        eight = sum(t.cell(s, 8) for s in t.rows)
        assert zero + six + eight == t.total
        assert abs(zero / t.total - 0.5) < 0.05
        assert abs(six / t.total - 0.25) < 0.05
        assert abs(eight / t.total - 0.25) < 0.05

    def test_exact_fraction(self):
        t = _twelve_twenty_table(X=2000)
        frac, dec = empirical_density(t, 1, 0)
        assert frac == Fraction(t.cell(1, 0), t.total)
        assert dec == float(frac)

    def test_unit_modulus_density_one(self):
        t = congruence_survey(curve(SIX_CURVE), SurveySpec(1, 1, 200))
        assert empirical_density(t, 0, 0) == (Fraction(1), 1.0)

    def test_empty_table(self):
        t = congruence_survey(curve(SIX_CURVE), SurveySpec(PRIMORIAL_47, 1, 50))
        assert t.primes_by_cell == {} and t.rows == {} and t.total == 0
        with pytest.raises(InputError):
            empirical_density(t, 1, 0)


class TestGcdOrders:
    def test_known_values(self):
        assert gcd_orders(curve([1, -1, 1, -199, 510]), 1000) == 2
        assert gcd_orders(curve([0, 1, 0, -333, -3537]), 1000) == 3
        assert gcd_orders(kubert5(1), 1000) == 1

    def test_printed_coefficient_slip(self):
        # the nearby vector ending -5270 has trivial torsion and gcd 1; the
        # transposed -5720 model carries full 2-torsion but is good at 2
        # with N_2 = 2, capping the all-primes gcd at 2
        assert gcd_orders(curve([1, -1, 0, -1773, -5270]), 1000) == 1
        assert gcd_orders(curve([1, -1, 0, -1773, -5720]), 1000) == 2

    def test_gcd_four_witness(self):
        # nonsplit at 2 with a 4-element component group at every bad prime
        assert gcd_orders(curve([0, 1302, 0, -27783, 0]), 1000) == 4

    def test_exclude_bad(self):
        # dropping the additive fibre at 17 leaves the full 4-torsion visible
        assert gcd_orders(curve([1, -1, 1, -199, 510]), 1000, include_bad=False) == 4

    def test_monotone_in_bound(self):
        for ai in ([1, -1, 1, -199, 510], [0, 1302, 0, -27783, 0]):
            g_small = gcd_orders(curve(ai), 100)
            g_big = gcd_orders(curve(ai), 1000)
            assert g_small % g_big == 0

    def test_bound_validation(self):
        with pytest.raises(InputError):
            gcd_orders(curve(SIX_CURVE), 49)
        with pytest.raises(InputError, match="must be an integer"):
            gcd_orders(curve(SIX_CURVE), 100.0)

    def test_bound_above_count_ceiling_refused_at_once(self):
        # refused even though this curve's gcd reaches 1 at the first primes
        t0 = time.perf_counter()
        with pytest.raises(ResourceError):
            gcd_orders(kubert5(1), COUNT_CEILING + 1)
        assert time.perf_counter() - t0 < 1.0

    def test_early_exit_counts_one_small_block(self, monkeypatch):
        counted = []
        real = reduction._count_chunk

        def spy(ai, primes):
            counted.extend(primes)
            return real(ai, primes)

        monkeypatch.setattr(walk, "_count_chunk", spy)
        assert gcd_orders(kubert5(1), 10**4) == 1
        assert 0 < len(counted) <= 64

    def test_count_outside_the_hasse_window_raises(self, monkeypatch):
        _lie_at_good_primes(monkeypatch)
        with pytest.raises(DataIntegrityError, match="Hasse"):
            gcd_orders(curve(SIX_CURVE), 500)

    def test_wrong_count_at_a_bad_prime_raises(self, monkeypatch):
        real = reduction._count_table

        def lying(models, primes):
            return [n + 1 if _invariant_kernel(ai)[6] % p == 0 else n
                    for ai, p, n in zip(models, primes, real(models, primes))]

        monkeypatch.setattr(reduction, "_count_table", lying)
        with pytest.raises(DataIntegrityError, match="reduced count"):
            gcd_orders(curve(SIX_CURVE), 500)


class TestGcdOrdersQuadratic:
    def test_field_curves(self):
        assert gcd_orders_quadratic(everywhere_good_33(), X=2000) == 3
        assert gcd_orders_quadratic(everywhere_good_6(), X=2000) == 6

    def test_rational_curve_with_twist(self):
        c = quadratic_twist(curve([1, -2, -4, 0, 0]), 5)
        assert gcd_orders_quadratic(c, 5, 2000) % 15 == 0

    def test_field_mismatch(self):
        with pytest.raises(InputError):
            gcd_orders_quadratic(everywhere_good_33(), d=6)

    def test_missing_d(self):
        with pytest.raises(InputError):
            gcd_orders_quadratic(curve(SIX_CURVE))

    def test_bound_validation(self):
        with pytest.raises(InputError):
            gcd_orders_quadratic(everywhere_good_33(), X=99)
        with pytest.raises(InputError, match="must be an integer"):
            gcd_orders_quadratic(everywhere_good_33(), X=100.5)

    @pytest.mark.parametrize("d, X", [(5.5, 500), ("5", 500), (Fraction(5), 500),
                                      (5, "500"), (5, 500.0)])
    def test_non_integer_field_or_bound_refused(self, d, X):
        with pytest.raises(InputError, match="must be an integer"):
            gcd_orders_quadratic(curve(SIX_CURVE), d, X)

    def test_bound_above_count_ceiling_refused_at_once(self):
        # a curve over the field walks its own primes, and must refuse too
        t0 = time.perf_counter()
        with pytest.raises(ResourceError):
            gcd_orders_quadratic(everywhere_good_33(), X=2 * 10**7)
        assert time.perf_counter() - t0 < 1.0

    def test_split_count_outside_the_hasse_window_raises(self, monkeypatch):
        # 17 splits in Q(sqrt 33); a rational curve's walk meets a lying
        # count at its first good prime
        _lie_at_good_primes(monkeypatch)
        with pytest.raises(DataIntegrityError, match="Hasse"):
            list(quadratic_walk(curve(SIX_CURVE), 33, 17))
        with pytest.raises(DataIntegrityError, match="Hasse"):
            reduction.count_curveK_at_prime(curve_K(SIX_CURVE, 33), 17)

    def test_inert_order_outside_the_hasse_window_raises(self, monkeypatch):
        # 7 is inert in Q(sqrt 33); p^2 + 2p + 2 is one past the window's
        # top.  j of y^2 = x^3 + (1 + sqrt 33) x + 1 is not rational, so
        # its order comes from _fq_group_order on its own model
        monkeypatch.setattr(reduction, "_fq_group_order",
                            lambda ai, p, *_: p * p + 2 * p + 2)
        with pytest.raises(DataIntegrityError, match="Hasse"):
            reduction.count_curveK_at_prime(
                curve_K([0, 0, 0, QuadInt(1, 1, 33), 1], 33), 7)
        # a rational j's order comes from one F_p count of the rational
        # curve it twists, which is checked there
        _lie_at_good_primes(monkeypatch)
        with pytest.raises(DataIntegrityError, match="Hasse"):
            reduction.count_curveK_at_prime(curve_K(SIX_CURVE, 33), 7)


class TestScanSupersingular:
    def test_exact_set_mod_three(self):
        c = curve([0, -6, 0, -3, 0])
        listed = scan_supersingular(c, 500, 3)
        assert all(res == 2 for _, res in listed)
        got = {p for p, _ in listed}
        expect = {
            p
            for p in primes_in_range(5, 500)
            if p % 3 == 2 and p not in bad_primes(c)
        }
        assert got == expect

    def test_ten_cycle_classes(self):
        listed = scan_supersingular(curve(Z10_CURVE), 4000, 10)
        assert listed
        assert all(res == 9 for _, res in listed)

    def test_five_torsion_twist_classes(self):
        c = quadratic_twist(kubert5(3), 5)
        listed = scan_supersingular(c, 4000, 5)
        assert listed
        assert all(res == 4 for _, res in listed)

    def test_default_modulus(self):
        listed = scan_supersingular(curve(Z10_CURVE), 200)
        assert listed
        assert all(res == 0 for _, res in listed)

    def test_bound_validation(self):
        with pytest.raises(InputError):
            scan_supersingular(curve(SIX_CURVE), 49)
        for modulus in (0, -3):
            with pytest.raises(InputError, match="modulus must be positive"):
                scan_supersingular(curve(Z10_CURVE), 100, modulus)
        with pytest.raises(InputError, match="must be an integer"):
            scan_supersingular(curve(Z10_CURVE), 100, 2.5)

    def test_bound_above_count_ceiling_refused_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(ResourceError):
            scan_supersingular(curve(Z10_CURVE), 2 * 10**7)
        assert time.perf_counter() - t0 < 1.0


class TestScanAnomalous:
    def test_brute_force_agreement(self):
        c = curve(SIX_CURVE)
        listed = scan_anomalous(c, 500)
        direct = [
            (p, 0)
            for p in primes_in_range(2, 500)
            if p not in bad_primes(c) and count_points_fp(c, p).count % p == 0
        ]
        assert listed == direct

    def test_positive_control(self):
        listed = scan_anomalous(curve([0, 0, 1, -1, 0]), 3000, 2)
        assert [p for p, _ in listed] == [53, 127, 443, 599]
        assert all(r == p % 2 for p, r in listed)

    def test_four_torsion_empty_past_hasse(self):
        # N_p = p is forced for p >= 7, and 4 | p is impossible
        c = curve(SEVENTEEN)
        assert torsion_over_Q(c).order == 4
        listed = [p for p, _ in scan_anomalous(c, 10**4) if p >= 7]
        assert listed == []

    def test_validation(self):
        with pytest.raises(InputError):
            scan_anomalous(curve(SIX_CURVE), 49)
        with pytest.raises(InputError):
            scan_anomalous(curve(SIX_CURVE), 500, 0)
        with pytest.raises(InputError, match="must be an integer"):
            scan_anomalous(curve(SIX_CURVE), 100, 2.5)
        with pytest.raises(InputError, match="must be an integer"):
            scan_anomalous(curve(SIX_CURVE), 100.0)


def _twist_table(ell, N):
    """The split/inert rule over Q(sqrt 5), for Z/ell torsion there on which
    conjugation acts by -1, as a table mod ell over p mod N, 5 | N: 0 at
    split p (p = +-1 mod 5), 2p + 2 at inert p.  Every class prime to N is
    a row, even classes of an odd N included."""
    return ExpectedTable(ell, N, {
        s: frozenset({0 if s % 5 in (1, 4) else (2 * s + 2) % ell})
        for s in range(N) if math.gcd(s, N) == 1})


def _twist_survey(ai, ell, X):
    """The survey of ai against _twist_table over N = lcm(5, ell), and that
    table."""
    exp = _twist_table(ell, math.lcm(5, ell))
    return congruence_survey(curve(ai), SurveySpec(exp.m, exp.N, X)), exp


def _twist_check(ai, ell, X):
    """verify_expected on _twist_survey: the check that N_p mod ell is fixed
    by whether p splits in Q(sqrt 5)."""
    return verify_expected(*_twist_survey(ai, ell, X))


class TestTwistDichotomy:
    def test_ten_cycle_passes(self):
        table, exp = _twist_survey(Z10_CURVE, 5, 2000)
        rep = verify_expected(table, exp)
        assert rep.passed
        assert rep.total == table.total > 250
        split = sum(empirical_density(table, s, 0)[0] for s in (1, 4))
        assert abs(float(split) - 0.5) < 0.1

    def test_wrong_modulus_fails(self):
        rep = _twist_check(Z10_CURVE, 7, 2000)
        assert not rep.passed
        assert rep.violations

    def test_split_primes_only_checked_against_ell(self):
        table, exp = _twist_survey(Z10_CURVE, 5, 1000)
        assert verify_expected(table, exp).passed
        for p in (p for ps in table.primes_by_cell.values() for p in ps):
            n = count_points_fp(curve(Z10_CURVE), p).count
            if legendre(5 % p, p) == 1:
                assert n % 5 == 0
            else:
                assert n % 5 == (2 * p + 2) % 5

    def test_validation(self):
        with pytest.raises(InputError):
            _twist_check(Z10_CURVE, 5, 49)


class TestVerifyFamily:
    def test_three_families_pass(self):
        r3 = verify_family("family3", list(range(1, 11)), 5000)
        assert r3.passed and r3.total > 6000
        r5 = verify_family("family5", [2, 3, 7], 5000)
        assert r5.passed and r5.total > 900
        rk = verify_family("kkp", list(range(1, 11)), 5000)
        assert rk.passed and rk.total > 6000

    def test_total_counts_checked_pairs(self):
        # one per (t, p) whose p is good and meets the family's hypothesis
        rep = verify_family("family3", [1, 2], 500)
        assert rep.passed
        assert rep.total == sum(
            1 for t in (1, 2) for p in primes_in_range(2, 500)
            if p not in bad_primes(make_family("family3", t))
            and survey._family3_ok(t, p))

    def test_unknown_family(self):
        with pytest.raises(InputError):
            verify_family("family7", [1], 500)

    def test_bound_validation(self):
        with pytest.raises(InputError):
            verify_family("family3", [1], 49)
        with pytest.raises(InputError, match="must be an integer"):
            verify_family("family3", [1], 500.0)


class TestUnfactoredDiscriminant:
    """Scans decide good reduction at each walked prime, so a discriminant
    that factorize cannot split stops none of them; only 2 is bad here."""

    def test_scans_to_a_thousand(self):
        c = curve(UNFACTORED_DISC)
        with pytest.raises(ResourceError):
            bad_primes(c)
        odd = primes_in_range(3, 1000)
        counts = {p: count_points_fp(c, p).count for p in odd}
        away = [p for p in odd if p != 5]  # 5 divides 2 m N and d below
        table = congruence_survey(c, SurveySpec(4, 5, 1000))
        assert sorted(p for ps in table.primes_by_cell.values() for p in ps) == away
        assert all((p % 5, counts[p] % 4) == key
                   for key, ps in table.primes_by_cell.items() for p in ps)
        assert gcd_orders(c, 1000, include_bad=False) == math.gcd(*counts.values())
        assert scan_supersingular(c, 1000) == [
            (p, 0) for p in odd if p >= 5 and counts[p] == p + 1]
        assert scan_anomalous(c, 1000) == [(p, 0) for p in odd if counts[p] % p == 0]
        twist, exp = _twist_survey(UNFACTORED_DISC, 3, 1000)
        scanned = sorted(p for ps in twist.primes_by_cell.values() for p in ps)
        assert scanned == [p for p in away if p != 3]
        report = verify_expected(twist, exp)
        assert report.total == len(scanned)
        assert {v.p for v in report.violations} <= set(scanned)
        assert list(quadratic_walk(c, 5, 1000)) == [
            (p, legendre(5, p) == 1,
             counts[p] if legendre(5, p) == 1 else counts[p] * (2 * p + 2 - counts[p]))
            for p in away]


class TestKubertConditions:
    def test_singular_reason(self):
        v = check_kubert_conditions([0, 0, 0, 0, 0], 1, 5)
        assert not v.accepted and v.reason == "singular"

    def test_no_z_reason(self):
        # x = 1 on y^2 = x^3 + x: y^2 = 2, and 2 is not a square mod 5
        v = check_kubert_conditions([0, 0, 0, 1, 0], 1, 5)
        assert not v.accepted and v.reason == "no z_T"

    def test_nonzero_division_value(self):
        v = check_kubert_conditions([0, 0, 0, 1, 0], 2, 5)
        assert not v.accepted
        assert v.reason == "division polynomial nonzero at T"
        assert v.psi_value not in (None, 0)

    def test_exhaustive_f5_short_models(self):
        accepted = []
        for a4 in range(5):
            for a6 in range(5):
                for T in range(5):
                    v = check_kubert_conditions([0, 0, 0, a4, a6], T, 5)
                    if v.accepted:
                        assert v.count % 5 == 0
                        accepted.append((a4, a6, T))
        assert accepted  # the search is not vacuous

    def test_accepted_point_has_order_p(self):
        for a4 in range(5):
            for a6 in range(5):
                for T in range(5):
                    v = check_kubert_conditions([0, 0, 0, a4, a6], T, 5)
                    if not v.accepted:
                        continue
                    z = sqrt_mod((T**3 + a4 * T + a6) % 5, 5)
                    assert z is not None
                    # P = (T, z) is affine, so P != O, and 5 is prime
                    P = ((T, 0), (z, 0))
                    ai = ((0, 0), (0, 0), (0, 0), (a4, 0), (a6, 0))
                    assert P is not None and _fq_pt_mul(5, P, ai, 5, 0) is None

    def test_validation(self):
        with pytest.raises(InputError):
            check_kubert_conditions([0, 0, 0, 1, 0], 1, 2)
        with pytest.raises(InputError):
            check_kubert_conditions([0, 0, 0, 1, 0], 1, 37)
        with pytest.raises(InputError):
            check_kubert_conditions([0, 0, 0, 1], 1, 5)


class TestDivisibilityBaseline:
    @pytest.mark.parametrize(
        "ai,n",
        [
            ([1, -1, 1, -199, 510], 4),
            ([0, 1, 0, -333, -3537], 3),
            (Z10_CURVE, 2),
            ([-2, -3, -3, 0, 0], 5),  # kubert5(3)
        ],
    )
    def test_torsion_divides_good_odd_counts(self, ai, n):
        c = curve(ai)
        assert torsion_over_Q(c).order == n
        bad = bad_primes(c)
        for p in primes_in_range(3, 2000):
            if p in bad:
                continue
            assert count_points_fp(c, p).count % n == 0


class TestRenderers:
    def test_markdown_layout(self):
        t = _twelve_twenty_table(X=2000)
        md = t.as_markdown()
        assert md.startswith("| p mod 20 | counts mod 12 | primes |")
        assert md.count("\n") == 2 + len(t.rows)


def _disc_nonzero(ai):
    a1, a2, a3, a4, a6 = ai
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6 != 0


_nonsingular_small = (
    st.tuples(*[st.integers(-3, 3)] * 5).filter(_disc_nonzero).map(lambda ai: curve(list(ai)))
)


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(_nonsingular_small, st.integers(1, 12), st.integers(1, 12))
    def test_table_partitions_scanned_primes(self, c, m, N):
        t = congruence_survey(c, SurveySpec(m, N, 300))
        assert sum(n for _, _, n in t.cells()) == t.total
        seen = sorted(p for ps in t.primes_by_cell.values() for p in ps)
        assert len(seen) == t.total
        bad = bad_primes(c)
        for p in seen:
            assert p not in bad
            assert (2 * m * N) % p != 0
            n = count_points_fp(c, p).count
            assert t.cell(p % N, n % m) > 0

    @settings(max_examples=8, deadline=None)
    @given(_nonsingular_small, st.integers(1, 12), st.integers(1, 12),
           st.integers(50, 1500))
    def test_table_views_agree_with_cells(self, c, m, N, X):
        t = congruence_survey(c, SurveySpec(m, N, X))
        for (s, tt), ps in t.primes_by_cell.items():
            assert t.rows[s][tt] == t.cell(s, tt) == len(ps) > 0
            assert list(ps) == sorted(ps)
        assert sum(map(len, t.rows.values())) == len(t.primes_by_cell)
        bad = bad_primes(c)
        assert t.total == sum(1 for p in primes_in_range(2, X)
                              if p not in bad and (2 * m * N) % p)
        keys = [(s, tt) for s, tt, _ in t.cells()]
        assert keys == sorted(keys) == sorted(t.primes_by_cell)

    @settings(max_examples=10, deadline=None)
    @given(_nonsingular_small)
    def test_gcd_divides_every_count(self, c):
        g = gcd_orders(c, 200)
        bad = bad_primes(c)
        for p in primes_in_range(2, 200):
            if p not in bad:
                assert count_points_fp(c, p).count % g == 0
