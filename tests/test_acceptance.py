"""Release acceptance: one test per advertised guarantee, in order.

These are end-to-end checks of the shipped behavior: the bundled corpus
scans clean, the documented gcd and torsion values reproduce, the oracle
pairs agree exactly, and the density figures land within the recorded
tolerance.  Runtime bounds are asserted where a bound is part of the
guarantee.

The corpus transcribes the claims "Z/2 x Z/2 torsion, gcd 4" for the
printed coefficients [1,-1,0,-1773,-5270], and those coefficients cannot
carry them: 2 and 7 are good primes with N_2 = 2 and N_7 = 9.  A2 and A6
therefore assert what the coefficients do carry, gcd 1 and trivial
torsion, with both values derived from a brute-force count in this file
that does not use the package.  Each of them also asserts that its result
still contradicts the transcribed claim, so reconciling the claim or the
coefficients turns it red until it asserts the stated claim again.
"""

import math
import random
import time

from ellorders.arith import legendre, primes_in_range, sqrt_mod
from ellorders.catalog import as_curve, bundled_corpus, resolve_label
from ellorders.curve import (
    curve,
    everywhere_good_33,
    everywhere_good_6,
    family5,
    integral_model,
    invariants,
    kubert5,
    quadratic_twist,
)
from ellorders.errors import InputError
from ellorders.reduction import (
    _fq_pt_mul,
    count_extension,
    count_fp2_direct,
    count_points_fp,
    twist_count_identity_check,
)
from ellorders.survey import (
    SurveySpec,
    congruence_survey,
    gcd_orders,
    gcd_orders_quadratic,
    scan_anomalous,
    scan_supersingular,
    verify_expected,
    verify_family,
)
from ellorders.torsion import (
    division_polynomial,
    odd_torsion_over_quadratic,
    torsion_over_Q,
)


def _resolved(label):
    return as_curve(resolve_label(label, offline=True))


def test_a1_golden_table_clean_to_ten_thousand():
    # every good prime <= 10^4 outside a row's exclusions must land in
    # the allowed residue set, for all 24 rows, in under two minutes
    rows = [r for r in bundled_corpus() if r.needs_resolution]
    assert len(rows) == 24
    start = time.perf_counter()
    failures = []
    for rec in rows:
        exp = rec.expected.table
        table = congruence_survey(_resolved(rec.label), SurveySpec(exp.m, exp.N, 10**4))
        report = verify_expected(table, exp)
        if not report.passed:
            failures.append((rec.label, report.violations[:3]))
    elapsed = time.perf_counter() - start
    assert not failures, f"rows with violations: {failures}"
    assert elapsed < 120.0, f"scan took {elapsed:.1f}s"


# printed coefficients whose transcribed claims (Z/2 x Z/2, gcd 4) they
# cannot carry; see _disputed_counts
DISPUTED = (1, -1, 0, -1773, -5270)


def _brute_count(ai, p):
    """|E(F_p)| from all p^2 affine pairs plus the point at infinity.

    Independent of the package on purpose; only meant for tiny p.
    """
    a1, a2, a3, a4, a6 = ai
    return 1 + sum(
        1 for x in range(p) for y in range(p)
        if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
    )


def _discriminant(ai):
    a1, a2, a3, a4, a6 = ai
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _disputed_counts():
    """N_2 and N_7 of DISPUTED, both at primes of good reduction.

    gcd(N_2, N_7) = 1 bounds the all-primes gcd.  N_7 is odd and rational
    torsion injects into E~(F_7), so there is no rational 2-torsion; the
    whole torsion group then has odd order, injects into E~(F_2) as well,
    and its order divides gcd(N_2, N_7) = 1.
    """
    disc = _discriminant(DISPUTED)
    assert disc == 3**5 * 97 * 14539669
    assert disc % 2 and disc % 7
    n2, n7 = _brute_count(DISPUTED, 2), _brute_count(DISPUTED, 7)
    assert (n2, n7) == (2, 9)
    return n2, n7


def _disputed_record():
    match = [r for r in bundled_corpus() if r.a_invariants == DISPUTED]
    assert len(match) == 1
    return match[0]


def test_a2_gcd_over_Q_examples_and_corpus_bound():
    assert gcd_orders(kubert5(1), 1000) == 1
    # nothing in the corpus over Q may reach 5; the records without
    # coefficients that need no resolution are the Q(sqrt d) curves of A3
    skipped = []
    for rec in bundled_corpus():
        if rec.a_invariants is None and not rec.needs_resolution:
            skipped.append(rec.d)
            continue
        c = _resolved(rec.label) if rec.needs_resolution else as_curve(rec)
        g = gcd_orders(c, 1000)
        assert g in {1, 2, 3, 4}, f"gcd {g} for {rec.label or rec.a_invariants}"
    assert sorted(skipped) == [6, 33]
    # the three worked examples, bad-prime contributions included; the
    # third is the disputed vector, whose good primes 2 and 7 force gcd 1
    n2, n7 = _disputed_counts()
    disputed = curve(list(DISPUTED))
    assert count_points_fp(disputed, 2).count == n2
    assert count_points_fp(disputed, 7).count == n7
    g1 = gcd_orders(curve([1, -1, 1, -199, 510]), 1000)
    g2 = gcd_orders(curve([0, 1, 0, -333, -3537]), 1000)
    g3 = gcd_orders(disputed, 1000)
    assert (g1, g2, g3) == (2, 3, math.gcd(n2, n7))
    # red once the transcribed gcd and the coefficients are reconciled;
    # then assert the stated value again
    assert g3 != _disputed_record().expected.gcd_all_primes


def test_a3_gcd_over_quadratic_fields():
    # everywhere-good curves over Q(sqrt 33) and Q(sqrt 6), odd unramified
    # good primes of residue characteristic <= 2000
    assert gcd_orders_quadratic(everywhere_good_33(), X=2000) == 3
    assert gcd_orders_quadratic(everywhere_good_6(), X=2000) == 6


def test_a4_family_scans_clean():
    runs = [
        ("family3", list(range(1, 11))),
        ("family5", [2, 3, 7]),
        ("kkp", list(range(1, 11))),
    ]
    for name, params in runs:
        report = verify_family(name, params, 5000)
        assert report.passed, f"{name}: {report.violations[:3]}"
        assert not report.violations


def _random_curves(rng, want):
    out, seen = [], set()
    while len(out) < want:
        ai = tuple(rng.randrange(-8, 9) for _ in range(5))
        if ai in seen:
            continue
        seen.add(ai)
        try:
            out.append(curve(list(ai)))
        except InputError:
            continue
    return out


def test_a5_extension_count_oracles_agree():
    rng = random.Random(520)
    curves = _random_curves(rng, 20)
    for c in curves:
        disc = int(invariants(integral_model(c)).disc)
        for p in primes_in_range(3, 47):
            if disc % p == 0:
                continue
            pc = count_points_fp(c, p)
            assert count_extension(pc, p, 2).count == count_fp2_direct(c, p)
            assert twist_count_identity_check(c, p)
        # cubic extension: recurrence against the closed form, exact
        for p in primes_in_range(3, 1000):
            if disc % p == 0:
                continue
            pc = count_points_fp(c, p)
            a = pc.trace
            assert count_extension(pc, p, 3).count == p**3 + 1 - (a**3 - 3 * p * a)


def test_a6_torsion_fixtures_exact():
    two = curve([1, 1, 0, -700, 34000])
    assert torsion_over_Q(two).structure == (1, 2)
    assert torsion_over_Q(quadratic_twist(two, 5)).structure == (1, 10)
    assert torsion_over_Q(curve([1, -1, 1, -199, 510])).structure == (1, 4)
    assert torsion_over_Q(curve([0, 1, 0, -333, -3537])).structure == (1, 3)
    assert odd_torsion_over_quadratic(_resolved("50a3"), 5) == 15
    # the disputed vector: its torsion order divides gcd(N_2, N_7) = 1
    n2, n7 = _disputed_counts()
    assert math.gcd(n2, n7) == 1
    got = torsion_over_Q(curve(list(DISPUTED))).structure
    assert got == (1, 1)
    # red once the transcribed Z/2 x Z/2 and the coefficients are
    # reconciled; then assert the stated structure again
    assert got != _disputed_record().expected.torsion_Q


def test_a7_supersingular_and_anomalous_congruences():
    # twist-by-1 member of the twist family: supersingular exactly at
    # p = 2 mod 3 within [5, 500]
    ss = {p for p, _ in scan_supersingular(curve([0, -6, 0, -3, 0]), 500)}
    expected = {p for p in primes_in_range(5, 500) if p % 3 == 2}
    assert ss == expected
    # the Z/10 row: every supersingular prime to 10^4 is 9 mod 10
    ten = {p for p, _ in scan_supersingular(_resolved("150b3"), 10**4)}
    assert ten and all(p % 10 == 9 for p in ten)
    # the 175b2 row: anomalous primes in [11, 10^4] are all 1 mod 3
    anomalous = [p for p, _ in scan_anomalous(_resolved("175b2"), 10**4) if p >= 11]
    assert anomalous and all(p % 3 == 1 for p in anomalous)


def _marginal(table, t):
    hits = sum(by_t.get(t, 0) for by_t in table.rows.values())
    return hits / table.total


def test_a8_density_estimates_within_tolerance():
    start = time.perf_counter()
    ten = congruence_survey(
        curve([1, 1, 0, -700, 34000]), SurveySpec(10, 5, 10**5))
    for residue, target in ((0, 0.5), (6, 0.25), (8, 0.25)):
        got = _marginal(ten, residue)
        assert abs(got - target) <= 0.05, f"residue {residue}: {got:.4f}"
    twelve = congruence_survey(
        curve([0, 0, 0, -12, -11]), SurveySpec(12, 20, 10**5))
    for residue, target in ((0, 0.75), (6, 0.25)):
        got = _marginal(twelve, residue)
        assert abs(got - target) <= 0.05, f"residue {residue}: {got:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"density surveys took {elapsed:.1f}s"


def _torsion_xs_fq(ai, m, p):
    """x in F_p carrying an m-torsion point over F_{p^2}, by enumeration."""
    r = next(n for n in range(2, p) if legendre(n, p) == -1)
    emb = tuple((a % p, 0) for a in ai)
    a1, a2, a3, a4, a6 = (a % p for a in ai)
    half = pow(2, p - 2, p)
    found = set()
    for x in range(p):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
        bx = ((a1 * x + a3) ** 2 + 4 * rhs) % p
        w = sqrt_mod(bx, p)
        if w is not None:
            y = ((w - a1 * x - a3) * half % p, 0)
        else:
            t = sqrt_mod(bx * pow(r, p - 2, p) % p, p)
            y = ((p - a1 * x - a3) * half % p, t * half % p)
        if _fq_pt_mul(m, ((x, 0), y), emb, p, r) is None:
            found.add(x)
    return found


def test_a9_property_spot_checks():
    # Hasse bound on a deterministic sample
    rng = random.Random(93)
    for c in _random_curves(rng, 6):
        disc = int(invariants(integral_model(c)).disc)
        for p in primes_in_range(3, 300):
            if disc % p == 0:
                continue
            assert count_points_fp(c, p).trace ** 2 <= 4 * p

    # rational torsion injects at good odd primes away from the order
    fixtures = [
        (curve([1, -1, 1, -199, 510]), 4),
        (curve([0, 1, 0, -333, -3537]), 3),
        (curve([1, 1, 0, -700, 34000]), 2),
        (_resolved("50a3"), 3),
    ]
    for c, order in fixtures:
        disc = int(invariants(integral_model(c)).disc)
        for p in primes_in_range(3, 1000):
            if disc % p == 0 or order % p == 0:
                continue
            assert count_points_fp(c, p).count % order == 0

    # division polynomial roots mod p are exactly the torsion abscissae
    cases = [(curve([0, 0, 0, -1, 1]), 3), (curve([1, 0, 1, -3, 2]), 4), (family5(1), 5)]
    for c, m in cases:
        ci = integral_model(c)
        ai = tuple(int(a) for a in ci.ainvs)
        disc = int(invariants(ci).disc)
        psi = division_polynomial(ci, m)
        for p in primes_in_range(3, 31):
            if disc % p == 0 or m % p == 0:
                continue
            roots = {x for x in range(p) if psi(x) % p == 0}
            assert roots == _torsion_xs_fq(ai, m, p)

    # odd division polynomials have degree (m^2 - 1) / 2
    for c in (curve([0, 0, 0, -1, 1]), curve([1, -1, 1, -199, 510])):
        for m in (3, 5, 7, 9):
            assert division_polynomial(c, m).degree == (m * m - 1) // 2

    # worker count must not change a survey in any observable way
    c = curve([1, 1, 0, -700, 34000])
    spec = SurveySpec(10, 5, 4000)
    one = congruence_survey(c, spec, workers=1)
    three = congruence_survey(c, spec, workers=3)
    assert one.rows == three.rows
    assert one.total == three.total
    assert one.primes_by_cell == three.primes_by_cell
