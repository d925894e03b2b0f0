"""Reduction data and point counts.

local_data runs Tate's algorithm: the full stepwise version with translation
searches at p = 2, 3 and the (v(c4), v(disc)) classification at p >= 5.
Point counts are taken on the p-minimal model, so a count at a bad prime is
the count of the reduced singular curve, which is what the gcd and survey
layers want.  At odd p a numpy residue table counts singular reductions and
small p; above the lane floor, and over F_{p^2} from p = 11 on, a
Shanks-Mestre order finder counts good reductions in about O(q^(1/4)) group
operations.  It never computes a point order: each drawn point gives the set
of Hasse window numbers that annihilate it, and their intersection pins |E|.
A curve over Q(sqrt d) whose j is rational, other than 0 and 1728, needs
neither a finder nor a count of its own at almost every p: it is a
quadratic twist of a rational curve E0, and one F_p count of E0 gives the
orders at every place above p.

Every F_p count goes through _count_chunk, which alone picks the method by
one rule: the table, the oracle, counts every prime up to the lane floor and
every bad prime, and an order finder every good prime above it.  A single
count is a block of one prime.  walk.prime_walk and congruence_survey hand
it blocks of a prime range through walk's store of Frobenius traces per
twist class, which reads the traces the class already holds and passes on
only the other primes; single counts and curves over Q(sqrt d) never touch
the store.  Above the floor a block's good primes run at once as numpy
lanes (one draw per lane and round, Jacobian coordinates whose products are
reduced before any sum, so int32 below p = 46,337 and int64 above, one
Fermat ladder per lane for the baby rows' inversion and the twist's Euler
criterion, another for the giant rows' x), in rounds of at least _LANE_MIN
lanes; a lane a round leaves unpinned rides in a later batch of its block.
The lanes no round pins go to the scalar finder, and the table takes only
its misses.  The table counts all of a block's table primes in one call,
whose numpy passes each cover a segment of primes, the residue symbols
taken from the segment's own squares.  Every F_p count and every inert
F_{p^2} order passes _checked_count.

The scalar finders add on plain-int short laws of their own, _fp_law over
F_p and _fq_law over F_{p^2}, not on _pt_add, the long-model law for any
field, which costs them two to three times as much per addition.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (
    COUNT_CEILING,
    _bound,
    _euler,
    _sqrt_mod,
    factorize,
    is_prime,
    legendre,
    valuation,
)
from .curve import (
    CurveK,
    CurveQ,
    QuadInt,
    _invariant_kernel,
    _squarefree,
    _transform_kernel,
    integral_model,
    invariants_K,
)
from .errors import (
    BadReductionError,
    DataIntegrityError,
    InputError,
    ResourceError,
    UnsupportedPrimeError,
)

# The one table/finder boundary: the table counts every prime up to it, and
# an order finder every good prime above it, in lane rounds where a block
# has _LANE_MIN such primes and by the scalar finder otherwise.  On int32
# lane rounds a survey block of every prime to 3000, or of CHUNK primes (to
# 17,900), takes 4.9 and 19.1 ms with the floor at 500, 5.7 and 20.5 ms at
# 1000, 6.3 and 20.1 ms at 1500 and 8.9 and 23.9 ms at 2500.  But at 500 a
# walk block of 32 or 64 primes in [500, 1000] costs 30-39 us a prime
# against the table's 15-17 us, a single count there 56 against 43 us, and
# the corpus and density benchmark passes read the same at 500 as at 1000,
# so the floor stays at 1000 (2-vCPU Xeon, CPython 3.11, numpy 2.4).
# Never below Mestre's bound 229.
_LANE_FLOOR = 1000

# Points an order finder draws before its caller falls back to its oracle.
_FINDER_DRAWS = 40

# Lanes per numpy round of a survey chunk's order finder.  More lanes spread
# numpy's per-call overhead thinner, but the round's temporaries grow with
# them.  On int32 rounds the two density surveys to 4*10^4 take about 99,
# 94 and 87 ms at 512, 768 and 1024 lanes, at a peak RSS of 39.97, 40.03
# and 40.33 MB, where 256 int64 lanes took 126 ms at 40.11 MB (alternating
# benchmark passes).  One 768-lane round peaks at 0.85 MB near 3*10^4, 2.8
# MB near 10^6 and 4.6 MB near 10^7 (tracemalloc; 2-vCPU Xeon, CPython
# 3.11, numpy 2.4).
_LANES = 768

# Lane rounds before an unpinned prime leaves the lanes.  A second draw for
# the lanes the first leaves (14% near p = 2500, 4% near 3*10^4) costs less
# than their scalar counts; a third measured no faster.
_LANE_ROUNDS = 2

CHUNK = 2048  # primes per survey job, and per prime-walk block at most

# Fewest lanes a round runs on; a narrower batch goes to the scalar finder.
# An int32 round in [1000, 3750] costs 0.85-0.96 ms at any width from 2 to
# 32 lanes (1.1 ms at 64, 1.8 ms at 256), so 16 lanes cost 53-78 us a
# prime, 24 lanes 40-72 us and 32 lanes 29-54 us, where a scalar count
# there takes 34-70 us, 37-43 us in the median (same box).
_LANE_MIN = 32

# Enumeration bound for the quadratic-field residue degree two oracle.
FP2_DIRECT_CEILING = 200


class ReductionType(str, Enum):
    GOOD = "good"
    SPLIT = "split multiplicative"
    NONSPLIT = "nonsplit multiplicative"
    ADDITIVE = "additive"


@dataclass(frozen=True)
class Kodaira:
    series: str  # "I", "I*", "II", "III", "IV", "II*", "III*", "IV*"
    n: int = 0

    @property
    def label(self) -> str:
        if self.series == "I":
            return f"I{self.n}"
        if self.series == "I*":
            return f"I{self.n}*"
        return self.series

    def __str__(self):
        return self.label


@dataclass(frozen=True)
class LocalData:
    p: int
    rtype: ReductionType
    kodaira: Kodaira
    v_disc_min: int
    # points of the reduced (singular) curve for bad p: p, p+1 or p+2.
    # None for good reduction, where it would be a full point count.
    reduced_count: int | None
    minimal_ainvs: tuple


@dataclass(frozen=True)
class PointCount:
    p: int
    n: int
    count: int
    trace: int | None


def _ints(c: CurveQ) -> tuple:
    ci = integral_model(c)
    return tuple(int(a) for a in ci.ainvs)


def _scale_down(ai, p):
    a1, a2, a3, a4, a6 = ai
    return (a1 // p, a2 // p**2, a3 // p**3, a4 // p**4, a6 // p**6)


def _tate_small(ai, p):
    """Full Tate algorithm at p in {2, 3}.

    Translation choices are found by brute search over small residues; at
    these primes the search spaces have at most a few thousand entries, and
    the search sidesteps the characteristic 2 and 3 special cases entirely.
    """
    while True:
        n = valuation(_invariant_kernel(ai)[6], p)
        if n == 0:
            return Kodaira("I", 0), ReductionType.GOOD, 0, ai

        # Step 2: move the singular point of the reduction to (0, 0).
        a1, a2, a3, a4, a6 = ai
        sing = None
        for x0 in range(p):
            for y0 in range(p):
                eq = y0 * y0 + a1 * x0 * y0 + a3 * y0 - (x0**3 + a2 * x0 * x0 + a4 * x0 + a6)
                dx = a1 * y0 - (3 * x0 * x0 + 2 * a2 * x0 + a4)
                dy = 2 * y0 + a1 * x0 + a3
                if eq % p == 0 and dx % p == 0 and dy % p == 0:
                    sing = (x0, y0)
                    break
            if sing:
                break
        if sing is None:
            raise DataIntegrityError(f"no singular point mod {p} despite v(disc) = {n}")
        ai = _transform_kernel(ai, r=sing[0], t=sing[1])
        a1, a2, a3, a4, a6 = ai
        b2, _, b6, b8, _, _, _ = _invariant_kernel(ai)

        if b2 % p != 0:
            # Multiplicative: split iff the tangent quadratic has a root.
            split = any((T * T + a1 * T - a2) % p == 0 for T in range(p))
            rt = ReductionType.SPLIT if split else ReductionType.NONSPLIT
            return Kodaira("I", n), rt, n, ai

        if a6 % p**2 != 0:
            return Kodaira("II"), ReductionType.ADDITIVE, n, ai
        if b8 % p**3 != 0:
            return Kodaira("III"), ReductionType.ADDITIVE, n, ai
        if b6 % p**3 != 0:
            return Kodaira("IV"), ReductionType.ADDITIVE, n, ai

        # Normalise for step 6: p | a1, a2; p^2 | a3, a4; p^3 | a6.
        ai = _step6_normalise(ai, p)
        a1, a2, a3, a4, a6 = ai

        # P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3) over F_p.
        c2, c4_, c6_ = a2 // p, a4 // p**2, a6 // p**3
        pdisc = (
            18 * c2 * c4_ * c6_ - 4 * c2**3 * c6_ + c2 * c2 * c4_ * c4_
            - 4 * c4_**3 - 27 * c6_ * c6_
        )
        if pdisc % p != 0:
            return Kodaira("I*", 0), ReductionType.ADDITIVE, n, ai

        rep = next(
            T for T in range(p)
            if (T**3 + c2 * T * T + c4_ * T + c6_) % p == 0
            and (3 * T * T + 2 * c2 * T + c4_) % p == 0
        )
        triple = all(
            (x - y) % p == 0
            for x, y in ((c2, -3 * rep), (c4_, 3 * rep * rep), (c6_, -rep**3))
        )
        ai = _transform_kernel(ai, r=p * rep)
        a1, a2, a3, a4, a6 = ai

        if not triple:
            # I_m* loop: alternate a quadratic in y and a quadratic in x,
            # shifting away repeated roots until one becomes separable.
            q = 2
            while True:
                A, B = a3 // p**q, a6 // p ** (2 * q)
                if (A * A + 4 * B) % p != 0:
                    m = 2 * q - 3
                    return Kodaira("I*", m), ReductionType.ADDITIVE, n, ai
                y0 = next(Y for Y in range(p) if (Y * Y + A * Y - B) % p == 0)
                ai = _transform_kernel(ai, t=p**q * y0)
                a1, a2, a3, a4, a6 = ai

                A2, A4, A6 = a2 // p, a4 // p ** (q + 1), a6 // p ** (2 * q + 1)
                if (A4 * A4 - 4 * A2 * A6) % p != 0:
                    m = 2 * q - 2
                    return Kodaira("I*", m), ReductionType.ADDITIVE, n, ai
                t0 = next(T for T in range(p) if (A2 * T * T + A4 * T + A6) % p == 0)
                ai = _transform_kernel(ai, r=p**q * t0)
                a1, a2, a3, a4, a6 = ai
                q += 1

        # Triple root: steps 8-10.
        A, B = a3 // p**2, a6 // p**4
        if (A * A + 4 * B) % p != 0:
            return Kodaira("IV*"), ReductionType.ADDITIVE, n, ai
        y0 = next(Y for Y in range(p) if (Y * Y + A * Y - B) % p == 0)
        ai = _transform_kernel(ai, t=p**2 * y0)
        a1, a2, a3, a4, a6 = ai

        if a4 % p**4 != 0:
            return Kodaira("III*"), ReductionType.ADDITIVE, n, ai
        if a6 % p**6 != 0:
            return Kodaira("II*"), ReductionType.ADDITIVE, n, ai

        # Step 11: not minimal; scale down and start over.
        ai = _scale_down(ai, p)


def _step6_normalise(ai, p):
    for s in range(p**2):
        a1s = ai[0] + 2 * s
        if a1s % p != 0:
            continue
        for r in range(p**3):
            for t in range(p**3):
                cand = _transform_kernel(ai, r=r, s=s, t=t)
                if (
                    cand[0] % p == 0 and cand[1] % p == 0
                    and cand[2] % p**2 == 0 and cand[3] % p**2 == 0
                    and cand[4] % p**3 == 0
                ):
                    return cand
    raise DataIntegrityError(f"step 6 normalisation failed at p = {p}")


def _local_large(ai, p):
    """Kodaira type at p >= 5 from the valuations of c4 and the discriminant."""
    _, _, _, _, c4, c6, disc = _invariant_kernel(ai)
    k = 0
    while (
        disc % p ** (12 * (k + 1)) == 0
        and (c4 == 0 or c4 % p ** (4 * (k + 1)) == 0)
        and (c6 == 0 or c6 % p ** (6 * (k + 1)) == 0)
    ):
        k += 1
    if k:
        c4 //= p ** (4 * k)
        c6 //= p ** (6 * k)
        disc //= p ** (12 * k)
    # A p-integral, p-minimal model with these invariants; 6 is a unit here.
    ai_min = (0, 0, 0, -27 * c4, -54 * c6)

    delta = valuation(disc, p)
    if delta == 0:
        return Kodaira("I", 0), ReductionType.GOOD, 0, ai_min
    gamma = valuation(c4, p) if c4 != 0 else delta  # c4 = 0 acts as gamma >= 3
    if gamma == 0:
        if _euler(-c6, p) == 1:
            rt = ReductionType.SPLIT
        else:
            rt = ReductionType.NONSPLIT
        return Kodaira("I", delta), rt, delta, ai_min
    add = ReductionType.ADDITIVE
    if delta == 2:
        return Kodaira("II"), add, delta, ai_min
    if delta == 3:
        return Kodaira("III"), add, delta, ai_min
    if delta == 4:
        return Kodaira("IV"), add, delta, ai_min
    if delta == 6:
        return Kodaira("I*", 0), add, delta, ai_min
    if gamma == 2:
        return Kodaira("I*", delta - 6), add, delta, ai_min
    if delta == 8:
        return Kodaira("IV*"), add, delta, ai_min
    if delta == 9:
        return Kodaira("III*"), add, delta, ai_min
    if delta == 10:
        return Kodaira("II*"), add, delta, ai_min
    raise DataIntegrityError(f"impossible valuation pair ({gamma}, {delta}) at {p}")


@lru_cache(maxsize=16384)
def _local_data_ints(ai, p):
    if p in (2, 3):
        kod, rt, v, ai_min = _tate_small(ai, p)
    else:
        kod, rt, v, ai_min = _local_large(ai, p)
    if rt is ReductionType.GOOD:
        m = None
    elif rt is ReductionType.SPLIT:
        m = p
    elif rt is ReductionType.NONSPLIT:
        m = p + 2
    else:
        m = p + 1
    return LocalData(p, rt, kod, v, m, ai_min)


def local_data(c: CurveQ, p: int) -> LocalData:
    if not is_prime(p):
        raise InputError(f"local data needs a prime, got {p}")
    return _local_data_ints(_ints(c), p)


def bad_primes(c: CurveQ) -> frozenset:
    """Primes where the p-minimal model has bad reduction."""
    ai = _ints(c)
    good = _good_at(ai)
    return frozenset(p for p in factorize(_invariant_kernel(ai)[6]) if not good(p))


def _good_at(ai):
    """Whether the curve with integral model ai has good reduction at a prime
    p, as a predicate built once per scan: it takes the discriminant here,
    and runs Tate's algorithm only at the p that divide it, so a scan need
    not factor the discriminant."""
    disc = _invariant_kernel(ai)[6]
    return lambda p: bool(disc % p) or (
        _local_data_ints(ai, p).rtype is ReductionType.GOOD)


# x values a table segment holds at most: one numpy pass counts a segment's
# primes, and a prime with more x values is a segment of its own.  A block
# of walk primes up to 500 fits one or two segments; each int32 array of a
# full segment takes 64 KB.
_TABLE_SEGMENT = 1 << 14


def _count_table(models, primes) -> list:
    """Projective points of the reduction of models[i] mod primes[i], for
    each i, in input order; each model is integral.

    Valid for good and bad reduction alike: the residue character sum
    p + 1 + sum over x of (B(x) | p), B(x) = 4x^3 + b2 x^2 + 2 b4 x + b6,
    counts points of the possibly singular reduced cubic.  It is the oracle
    the order finders are tested against; _count_chunk decides when it runs.
    At p = 2 the four affine points are tried one by one; the odd primes
    run in segments of at most _TABLE_SEGMENT x values, in input order.
    """
    out, b246, seg, size = [0] * len(primes), {}, [], 0
    for i, (ai, p) in enumerate(zip(models, primes)):
        if p == 2:
            # the affine points (x, y) of F_2^2, where x^3 = x^2 = x
            a1, a2, a3, a4, a6 = ai
            out[i] = 1 + sum((y * y + a1 * x * y + a3 * y - x - a2 * x - a4 * x - a6) % 2 == 0
                             for x in (0, 1) for y in (0, 1))
            continue
        if seg and size + p > _TABLE_SEGMENT:
            _table_segment(seg, size, out)
            seg, size = [], 0
        b2, b4, b6 = b246.get(ai) or b246.setdefault(ai, _invariant_kernel(ai)[:3])
        seg.append((i, p, size, b2 % p, 2 * b4 % p, b6 % p))
        size += p
    if seg:
        _table_segment(seg, size, out)
    return out


def _table_segment(seg, size, out):
    """The character sums of one segment's rows (index, p, start, b2, 2 b4,
    b6), coefficients reduced mod p, into out, in one numpy pass over its
    size x values.

    The primes' x ranges are concatenated, each from its start, each (x|p)
    is read off the segment's own squares, and B(x) runs by Horner reduced
    twice: below 5p^2 + p at the first reduction and p^2 at the second,
    where a single one would meet 5p^3, past 2^63 above p = 1.23*10^6.  So
    int32 holds the arithmetic and the indices up to p = 20719, and int64
    above.  Every value is nonnegative, so fmod, faster than %, reduces.  A
    segment of one prime takes its p and coefficients as Python ints, each
    below p, instead of repeating them.
    """
    idx, ps, starts, *_ = cols = tuple(zip(*seg))
    top = max(ps)
    dt = np.int32 if 5 * top * top + top < 2**31 else np.int64
    xs = np.arange(size, dtype=dt)
    if len(ps) > 1:
        rows = np.array(cols[1:], dtype=dt)
        P, base = np.repeat(rows[:2], ps, axis=1)
        xs -= base
        # each coefficient column repeated as Horner takes it, so that one
        # such array of the segment's length is alive at a time
        coeffs = (np.repeat(row, ps) for row in rows[2:])
    else:
        P, base, coeffs = ps[0], 0, (c[0] for c in cols[3:])
    chi = np.full(size, -1, dtype=np.int8)
    chi[np.fmod(xs * xs, P) + base] = 1
    chi[list(starts)] = 0
    vals = 4 * xs + next(coeffs)
    vals *= xs
    vals += next(coeffs)
    np.fmod(vals, P, out=vals)
    vals *= xs
    vals += next(coeffs)
    np.fmod(vals, P, out=vals)
    vals += base
    sums = np.add.reduceat(chi.take(vals), starts, dtype=np.int64)
    for i, p, s in zip(idx, ps, sums.tolist()):
        out[i] = p + 1 + s


def count_points_fp(c: CurveQ, p: int) -> PointCount:
    """|E(F_p)| on the p-minimal model; the trace is set only for good p."""
    if not is_prime(p):
        raise InputError(f"point count needs a prime, got {p}")
    ai = _ints(c)
    [n] = _count_chunk(ai, [p])
    return PointCount(p, 1, n, p + 1 - n if _good_at(ai)(p) else None)


def _checked_count(p, n, ld=None):
    """n, if it can be N_p: in the Hasse window at good p, and the reduced
    curve's count at bad p.  ld is the local data when p divides the disc."""
    if ld is None or ld.rtype is ReductionType.GOOD:
        if (p + 1 - n) ** 2 > 4 * p:
            raise DataIntegrityError(f"trace {p + 1 - n} at {p} violates the Hasse bound")
    elif n != ld.reduced_count:
        raise DataIntegrityError(f"reduced count {n} at {p} disagrees with type {ld.rtype}")
    return n


def count_extension(trace_or_count, p: int | None = None, n: int = 2) -> PointCount:
    """|E(F_{p^n})| from the degree one trace via the standard recurrence."""
    if isinstance(trace_or_count, PointCount):
        if trace_or_count.trace is None:
            raise InputError("extension counts need good reduction")
        a = trace_or_count.trace
        p = trace_or_count.p
    else:
        _bound(trace_or_count, -math.inf, "trace")  # any integer
        a = int(trace_or_count)
        if p is None:
            raise InputError("a bare trace needs the prime alongside it")
    _bound(n, 1, "extension degree")
    if not is_prime(p):
        raise InputError(f"need a prime, got {p}")
    if a * a > 4 * p:
        raise InputError(f"trace {a} violates the Hasse bound at {p}")
    prev, cur = 2, a
    for _ in range(n - 1):
        prev, cur = cur, a * cur - p * prev
    an = cur if n > 1 else a
    return PointCount(p, n, p**n + 1 - an, an)


def _good_model_at(ai, p, what):
    """The p-minimal model of the integral model ai, which must have good
    reduction at p; what names the caller in the refusal."""
    if _invariant_kernel(ai)[6] % p:
        return ai
    ld = _local_data_ints(ai, p)
    if ld.rtype is not ReductionType.GOOD:
        raise InputError(f"{what} needs good reduction at {p}")
    return ld.minimal_ainvs


def count_fp2_direct(c: CurveQ, p: int) -> int:
    """Enumerative |E(F_{p^2})| for small odd good p: the n = 2 oracle."""
    if not is_prime(p) or p == 2 or p > FP2_DIRECT_CEILING:
        raise InputError(
            f"direct F_p^2 enumeration supports odd primes up to {FP2_DIRECT_CEILING}"
        )
    ai = _good_model_at(_ints(c), p, "direct F_p^2 enumeration")
    b2, b4, b6, *_ = _invariant_kernel(ai)
    r = 2
    while legendre(r, p) != -1:
        r += 1
    return _fq_enumerate(((b2 % p, 0), (b4 % p, 0), (b6 % p, 0)), p, r)


def twist_count_identity_check(c: CurveQ, p: int) -> bool:
    """Check |E(F_p)| + |E^d(F_p)| = 2p + 2 for a nonresidue twist d mod p."""
    if not is_prime(p) or p == 2:
        raise InputError("twist identity check needs an odd prime")
    ai = _good_model_at(_ints(c), p, "twist identity check")
    b2, b4, b6, *_ = _invariant_kernel(ai)
    # complete the square only; eliminating the x^2 term would need p > 3
    inv2 = (p + 1) // 2
    inv4 = inv2 * inv2 % p
    a2 = b2 * inv4 % p
    a4 = b4 * inv2 % p
    a6 = b6 * inv4 % p
    d = 2
    while legendre(d, p) != -1:
        d += 1
    [n_e] = _count_chunk((0, a2, 0, a4, a6), [p])
    [n_tw] = _count_chunk(
        (0, a2 * d % p, 0, a4 * d * d % p, a6 * pow(d, 3, p)), [p])
    [base] = _count_chunk(ai, [p])
    return n_e == base and n_e + n_tw == 2 * p + 2


def _check_field(d: int) -> None:
    """Refuse a d that names no quadratic field Q(sqrt d)."""
    _bound(d, -math.inf, "d")  # any integer
    if d in (0, 1) or not _squarefree(d):
        raise InputError(f"need a nontrivial squarefree d, got {d}")


def _residue_order(n, p, split):
    """|E(O_K/P)| from N_p at an odd good p unramified in K: N_p when p
    splits, |E(F_{p^2})| = N_p (2p + 2 - N_p) when it is inert."""
    return n if split else n * (2 * p + 2 - n)


# ---------------------------------------------------------------------------
# The group law of a long Weierstrass model, once for any field (Silverman,
# AEC III.2.3).  A field is F = (add, sub, mul, inv, zero); points are
# (x, y) pairs of its elements, None is the point at infinity, and a6 never
# enters.  _QQ is Q on Fractions; _fq_field(p, r) is F_{p^2} on pairs
# (u, v) = u + v*s with s^2 = r, and r = 0 keeps F_p as the pairs (u, 0).
# Torsion over Q adds here, and the tests check the other laws and the
# counts against it over F_p and F_{p^2}.  The order finders keep their own
# plain-int short laws, _fp_law over F_p and _fq_law over F_{p^2}, and the
# survey lanes their Jacobian numpy law: see there for why.

_QQ = (operator.add, operator.sub, operator.mul, Fraction(1).__truediv__, Fraction(0))


def _fq_norm(a, p, r):
    return (a[0] * a[0] - r * a[1] * a[1]) % p


def _fq_field(p, r):
    """F_{p^2} = F_p(s), s^2 = r, as (add, sub, mul, inv, zero) on pairs."""

    def add(a, b):
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(a, b):
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def mul(a, b):
        return ((a[0] * b[0] + r * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p)

    def inv(a):
        ni = pow(_fq_norm(a, p, r), -1, p)
        return (a[0] * ni % p, -a[1] * ni % p)

    return add, sub, mul, inv, (0, 0)


def _pt_neg(pt, ai, F):
    """-(x, y) = (x, -y - a1 x - a3)."""
    if pt is None:
        return None
    add, sub, mul, _, zero = F
    a1, _, a3, _, _ = ai
    x, y = pt
    return (x, sub(sub(zero, y), add(mul(a1, x), a3)))


def _pt_add(pt1, pt2, ai, F):
    """pt1 + pt2 on y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    add, sub, mul, inv, zero = F
    a1, a2, a3, a4, _ = ai
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2:
        # y2 is y1 or -y1 - a1 x1 - a3, so den is 0 for opposite points
        # and 2 y1 + a1 x1 + a3, the doubling slope's denominator, otherwise
        den = add(add(y1, y2), add(mul(a1, x1), a3))
        if den == zero:
            return None
        xx = mul(x1, x1)
        num = sub(add(add(add(xx, xx), xx), add(mul(add(a2, a2), x1), a4)),
                  mul(a1, y1))
    else:
        num, den = sub(y2, y1), sub(x2, x1)
    lam = mul(num, inv(den))
    x3 = sub(sub(sub(add(mul(lam, lam), mul(a1, lam)), a2), x1), x2)
    y3 = sub(sub(mul(lam, sub(x1, x3)), y1), add(mul(a1, x3), a3))
    return (x3, y3)


def _fq_pt_mul(k, pt, ai, p, r):
    F = _fq_field(p, r)
    if k < 0:
        k, pt = -k, _pt_neg(pt, ai, F)
    return _mul(k, pt, lambda P, Q: _pt_add(P, Q, ai, F))


# ---------------------------------------------------------------------------
# Shanks-Mestre order finding over F_q, q = p or p^2 (Cohen, GTM 138, 7.4.3).
# A group law here is add(P, Q) on affine points with None for the identity.
# Over F_{p^2} the finder makes _fq_group_order's orders from p = 11 on, and
# the character sum _fq_enumerate what the finder leaves.


def _mul(k, pt, add):
    """k*pt for k >= 0 by double-and-add."""
    out = None
    while k:
        if k & 1:
            out = add(out, pt)
        k >>= 1
        if k:
            pt = add(pt, pt)
    return out


def _fp_law(a4, p):
    """Affine addition on y^2 = x^3 + a4 x + a6 over F_p; a6 never enters.

    The scalar F_p finder's own law, kept apart from _pt_add on purpose:
    on plain ints and the short model, a count near p = 3*10^4 takes
    0.12 ms, against 0.57 ms on _pt_add over pairs (u, 0), which would put
    the one table/finder boundary far above the lane floor.
    """

    def add(pt1, pt2):
        if pt1 is None:
            return pt2
        if pt2 is None:
            return pt1
        x1, y1 = pt1
        x2, y2 = pt2
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + a4) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return (x3, (lam * (x1 - x3) - y1) % p)

    return add


def _fq_law(a4, p, r):
    """Affine addition on y^2 = x^3 + a4 x + a6 over F_{p^2} = F_p(s),
    s^2 = r; elements are pairs (u, v) = u + v s, and a6 never enters.

    The F_{p^2} finder's own law, kept apart from _pt_add on purpose: one
    addition takes one pow(norm, -1, p) and no closure calls, 2.3 us
    against 5.8 us on _pt_add over _fq_field(p, r) at p = 307, and a
    doubling 2.5 us against 7.7 us (timeit, 2-vCPU Xeon, CPython 3.11).
    It does not replace _fp_law either: near p = 3*10^4 an F_p addition
    on pairs (u, 0) with r = 0 costs 1.9 us here against 1.5 us there.
    """
    au, av = a4

    def add(pt1, pt2):
        if pt1 is None:
            return pt2
        if pt2 is None:
            return pt1
        (x1u, x1v), (y1u, y1v) = pt1
        (x2u, x2v), (y2u, y2v) = pt2
        if x1u == x2u and x1v == x2v:
            if (y1u + y2u) % p == 0 and (y1v + y2v) % p == 0:
                return None
            # lam = (3 x1^2 + a4) / (2 y1)
            nu = 3 * (x1u * x1u + r * x1v * x1v) + au
            nv = 6 * x1u * x1v + av
            du, dv = 2 * y1u, 2 * y1v
        else:
            nu, nv = y2u - y1u, y2v - y1v
            du, dv = x2u - x1u, x2v - x1v
        # 1 / (du + dv s) = (du - dv s) / norm, and the norm is a unit of
        # F_p since r is a nonresidue
        ni = pow((du * du - r * dv * dv) % p, -1, p)
        lu = (nu * du - r * nv * dv) * ni % p
        lv = (nv * du - nu * dv) * ni % p
        x3u = (lu * lu + r * lv * lv - x1u - x2u) % p
        x3v = (2 * lu * lv - x1v - x2v) % p
        eu, ev = x1u - x3u, x1v - x3v
        return ((x3u, x3v),
                ((lu * eu + r * lv * ev - y1u) % p, (lu * ev + lv * eu - y1v) % p))

    return add


def _window_annihilators(pt, lo, hi, add):
    """{k in [lo, hi] : k*pt = O}, by one baby-step giant-step pass.

    Baby steps j pt run j = 1..m+1.  Two points with one x are equal or
    opposite, so the first identity at j, or x(i pt) = x(j pt) with i < j,
    gives the order o = j, or o = i + j: every o <= 2m + 1 shows here, and
    the set is the window's multiples of o.  Otherwise o >= 2m + 2, so a
    giant interval k - m..k + m holds at most one annihilator, and
    g = k pt finds it: g = O is k itself, and g = +-j pt, told apart by y,
    is k -+ j.  The first k is q (2m + 1) + j with j <= m + 1, in
    (lo, lo + m], so g = q (2m + 1) pt + j pt reuses the baby points.
    """
    m = math.isqrt((hi - lo) // 2) + 1
    baby, pts, cur, o = {}, [None], pt, None
    for j in range(1, m + 2):
        if cur is None:
            o = j
            break
        if cur[0] in baby:
            o = baby[cur[0]] + j
            break
        if j <= m:
            baby[cur[0]] = j
            pts.append(cur)
            cur = add(cur, pt)
    if o is not None:
        return range(lo + (-lo) % o, hi + 1, o)
    pts.append(cur)  # pts[j] = j pt for j = 0..m+1
    span = 2 * m + 1
    step = add(pts[m], cur)  # span pt, from m pt and (m + 1) pt
    found = []
    q, j = divmod(lo + m, span)
    j = min(j, m + 1)
    k = q * span + j
    g = add(_mul(q, step, add), pts[j])
    while k - m <= hi:
        if g is None:
            found.append(k)
        elif g[0] in baby:
            j = baby[g[0]]
            found.append(k - j if pts[j][1] == g[1] else k + j)
        g = add(g, step)
        k += span
    return [n for n in found if lo <= n <= hi]


def _finder_rng(p, coeffs):
    """The draws' generator, seeded from p and the model's coefficients."""
    seed = p
    for c in coeffs:
        seed = seed * 1000003 + c
    return random.Random(seed & (2**63 - 1))


def _hasse_window(q):
    """[lo, hi] = [q + 1 - t, q + 1 + t], t = floor(2 sqrt q): |E(F_q)| is in it.

    q is an int, or an int64 array of q below 2^60 for lane-wise windows:
    there the float root of 4q is within one of t, and one integer step
    each way makes it exact.
    """
    if isinstance(q, np.ndarray):
        t = np.sqrt(4 * q).astype(np.int64)
        t -= t * t > 4 * q
        t += (t + 1) * (t + 1) <= 4 * q
    else:
        t = math.isqrt(4 * q)
    return q + 1 - t, q + 1 + t


def _order_finder(q, draw, rng):
    """|E(F_q)| from the annihilator sets of points on E and on its twist E'.

    draw(rng) gives None or (pt, twisted, add): a point on E, or on E' when
    twisted, with the group law it lives on, _fp_law over F_p and _fq_law
    over F_{p^2}.  |E| lies in the Hasse window, is annihilated by every
    point of E, and |E'| = 2q + 2 - |E| by every point of E'.  So each draw
    narrows the candidates to those whose (twist-mapped) value is in the
    point's annihilator set, which is the lcm test on the orders written as
    sets.  The first time one candidate is left, it is |E|.  For prime
    q > 229 one of E, E' has a point that pins it (Mestre); E and E'
    together pin it for every q > 49 (Cremona and Sutherland, JTNB 22,
    2010).  None after _FINDER_DRAWS draws, and the caller falls back to
    its oracle.
    """
    lo, hi = _hasse_window(q)
    cands = range(lo, hi + 1)
    for _ in range(_FINDER_DRAWS):
        drawn = draw(rng)
        if drawn is None:
            continue
        pt, twisted, add = drawn
        if twisted:
            s = 2 * q + 2
            ns = [s - k for k in _window_annihilators(pt, s - hi, s - lo, add)]
        else:
            ns = _window_annihilators(pt, lo, hi, add)
        cands = {n for n in ns if n in cands}
        if len(cands) == 1:
            return cands.pop()
        if not cands:
            raise DataIntegrityError(f"no group order in the Hasse window of {q}")
        lo, hi = min(cands), max(cands)
    return None


# Each draw takes x and f = x^3 + a4 x + a6 on the short model E and puts
# (x f, f^2) on y^2 = x^3 + a4 f^2 x + a6 f^3, which is E when f is a
# square and its quadratic twist when not: no square root is taken.


def _fp_finder_count(c4, c6, p, rng):
    """|E(F_p)| for the good curve with these c4, c6, or None."""
    a4, a6 = -27 * c4 % p, -54 * c6 % p

    def draw(rng):
        x = rng.randrange(p)
        f = ((x * x + a4) * x + a6) % p
        if f == 0:
            return None
        return ((x * f % p, f * f % p), _euler(f, p) < 0,
                _fp_law(a4 * f * f % p, p))

    return _order_finder(p, draw, rng)


# ---------------------------------------------------------------------------
# The same finder over many primes at once: each good p of a survey chunk
# above the lane floor is one lane holding its own p, a4 and a6, and every
# group operation is a handful of numpy calls across the lanes.  This is the
# third group law on purpose: a 768-lane round costs about 7 us per prime
# near 3*10^4, 9.5 us near 6*10^4, 13 us near 10^5, 21 us near 10^6 and
# 31 us near 10^7, where the scalar finder on _fp_law costs 90-470 us.  Two
# lanes already cost 0.8-1.2 ms a round from 10^3 to 3.6*10^4.
# Points are Jacobian (X : Y : Z), x = X/Z^2 and y = Y/Z^3, with Z = 0 the
# identity; both formulas below leave Z = 0 on a degenerate input, and
# Z = 0 then stays 0 along a chain.  Coordinates stay reduced mod P between
# operations and every product is reduced before it meets a sum, so no
# intermediate reaches P^2 + 8P in magnitude.  A round runs its rows in
# int32 while its largest P has P^2 + 8P < 2^31, through P = 46,327, where
# a 256-lane mulmod takes about 2.2 us against int64's 2.7 us, and in int64
# above, exact to COUNT_CEILING.


def _lane_dtype(top):
    """The dtype of a lane round whose largest prime is top: int32 while
    P^2 + 8P < 2^31 (through 46,327), else int64."""
    return np.int32 if top * top + 8 * top < 2**31 else np.int64


def _lane_dbl(X, Y, Z, A, P):
    """2 (X : Y : Z) on y^2 = x^3 + A x + B, lane-wise mod P.

    Each product is reduced before it meets a sum: with inputs in [0, P),
    every intermediate is below P^2 + 8P in magnitude (M (S - X3) -
    8 (YY^2 mod P), the lowest, lies in (-P^2 - 8P, P^2)), so int32 rows
    are exact while P^2 + 8P < 2^31 and int64 rows to COUNT_CEILING.
    """
    YY, ZZ = Y * Y % P, Z * Z % P
    S = 4 * (X * YY % P) % P
    M = (3 * (X * X % P) + A * (ZZ * ZZ % P)) % P
    X3 = (M * M - (S + S)) % P
    Y3 = (M * (S - X3) - 8 * (YY * YY % P)) % P
    return X3, Y3, 2 * (Y * Z % P) % P


def _lane_madd(X, Y, Z, x2, y2, P):
    """(X : Y : Z) + (x2, y2), Jacobian plus affine, lane-wise mod P.

    Equal x (a doubling, or a sum that is the identity) gives Z = 0.  Each
    product is reduced before it meets a sum: with inputs in [0, P), every
    intermediate lies in (-P^2 - P, P^2) (R (V - X3) - (Y HHH mod P), the
    lowest), so int32 rows are exact while P^2 + 8P < 2^31 and int64 rows
    to COUNT_CEILING.
    """
    ZZ = Z * Z % P
    H = (x2 * ZZ - X) % P
    R = (y2 * (ZZ * Z % P) - Y) % P
    HH = H * H % P
    HHH = HH * H % P
    V = X * HH % P
    X3 = (R * R - HHH - (V + V)) % P
    Y3 = (R * (V - X3) - Y * HHH % P) % P
    return X3, Y3, Z * H % P


def _lane_pow(a, e, P):
    """a^e mod P lane-wise, by square-and-multiply over the bits of e."""
    out = np.ones_like(a)
    for bit in (e >> np.arange(int(e.max()).bit_length())[:, None]) & 1 == 1:
        out = np.where(bit, out * a % P, out)
        a = a * a % P
    return out


def _lane_affine(X, Z, P, f):
    """x = X/Z^2 of rows x lanes Jacobian points, 1/Z, and (f|P) per lane
    as 1 or P - 1, f nonzero, all from one Fermat ladder per lane.

    With z the product of a lane's Z's, v = f (f z^2)^((P-3)/2) is
    (f|P) z^-2, so (f|P) = v z^2 and 1/z = v (f|P) z; prefix products
    along the rows turn 1/z into each 1/Z.  A caller takes y = Y/Z^3 only
    where it reads one.  A point with Z = 0 gets a meaningless x and 1/Z;
    the others are exact.
    """
    Z = np.where(Z == 0, 1, Z)
    zi = np.empty_like(Z)  # the prefix products, then 1/Z from the last row up
    zi[0] = Z[0]
    for r in range(1, len(Z)):
        zi[r] = zi[r - 1] * Z[r] % P
    zz = zi[-1] * zi[-1] % P
    v = f * _lane_pow(f * zz % P, (P - 3) // 2, P) % P
    chi = v * zz % P
    inv = v * chi % P * zi[-1] % P
    for r in range(len(Z) - 1, 0, -1):
        zi[r] = inv * zi[r - 1] % P
        inv = inv * Z[r] % P
    zi[0] = inv
    return X * (zi * zi % P) % P, zi, chi


def _lane_round(ps, c4s, c6s, rng):
    """One order-finder draw per lane: |E(F_p)| where it is pinned, else None.

    ps are good primes above the lane floor and c4s, c6s the model's c4, c6
    at each, as _fp_finder_count takes them.  Each lane draws (x f, f^2) as
    the scalar finder does and lists the annihilators of that point in its
    Hasse window as _window_annihilators defines them, with one m for all
    lanes: the first x collision among j P, j = 1..m+1, gives the order,
    else giant steps k P, k = lo + m + i (2m + 1), are matched against the
    baby x's.  A lane is pinned when exactly one candidate is left.  None
    marks f = 0, a degenerate addition or several candidates; an empty set
    raises.  Rows are _lane_dtype(max(ps)).
    """
    L = len(ps)
    dt = _lane_dtype(max(ps))
    P64 = np.array(ps, dtype=np.int64)
    P = P64.astype(dt)
    a4 = np.array([-27 * c % p for c, p in zip(c4s, ps)], dtype=dt)
    a6 = np.array([-54 * c % p for c, p in zip(c6s, ps)], dtype=dt)
    bits = rng.getrandbits(32 * L).to_bytes(4 * L, "little")
    x = (np.frombuffer(bits, dtype=np.uint32).astype(np.int64) * P64 >> 32).astype(dt)
    f = ((x * x % P + a4) % P * x + a6) % P
    drawn = f != 0
    f[~drawn] = 1
    ff = f * f % P
    A = a4 * ff % P
    px, py, one = x * f % P, ff, np.ones(L, dtype=dt)
    lo, hi = _hasse_window(P64)
    m = math.isqrt(int((hi - lo).max()) // 2) + 1
    lanes = np.arange(L)

    # Row r holds (r + 1) P for r <= m, and row m + 1 the stride (2m + 1) P.
    X, Y, Z = (np.empty((m + 2, L), dtype=dt) for _ in range(3))
    X[0], Y[0], Z[0] = px, py, one
    X[1], Y[1], Z[1] = _lane_dbl(px, py, one, A, P)
    for r in range(2, m + 1):
        X[r], Y[r], Z[r] = _lane_madd(X[r - 1], Y[r - 1], Z[r - 1], px, py, P)
    X[m + 1], Y[m + 1], Z[m + 1] = _lane_madd(
        *_lane_dbl(X[m - 1], Y[m - 1], Z[m - 1], A, P), px, py, P)
    # the twist's Euler criterion rides on the baby rows' ladder
    bx, zi, chi = _lane_affine(X, Z, P, f)
    by = Y * (zi * zi % P * zi % P) % P
    twisted = chi != 1
    # Only affine rows are read from here on; dropping each stage's
    # temporaries as it ends keeps a round's peak memory down by a third.
    stride_degenerate = Z[m + 1] == 0
    del X, Y, Z, zi

    # First x collision x(i P) = x(j P), i < j <= m + 1: the order is i + j.
    # A degenerate add j P + P means x(j P) = x(P), a collision at j, so
    # the meaningless rows after it never come first.
    K = m + 2
    keys = np.sort(bx[:m + 1].T * K + np.arange(1, m + 2, dtype=dt), axis=1)
    later = np.where(keys[:, 1:] // K == keys[:, :-1] // K, keys[:, 1:] % K, K)
    at = later.argmin(axis=1)
    j = later[lanes, at]
    collided = j < K
    o = np.where(collided, j + keys[lanes, at] % K, 1)
    found = hi // o - (lo - 1) // o
    n = hi // o * o
    del keys, later

    # k0 P by a window of w bits, reading d P off the baby rows, d < 2^w <= m + 1.
    # A lane starts at its first nonzero digit; until one has, the top
    # window skips the doublings and the sum, whose results no lane keeps.
    k0 = lo + m
    w = (m + 1).bit_length() - 1
    G = (px, py, one)
    started = np.zeros(L, dtype=bool)
    for shift in range((int(k0.max()).bit_length() - 1) // w * w, -1, -w):
        d = (k0 >> shift) & ((1 << w) - 1)
        dx, dy = bx[d - 1, lanes], by[d - 1, lanes]
        nz = d != 0
        if started.any():
            for _ in range(w):
                G = _lane_dbl(*G, A, P)
            G = tuple(np.where(started & nz, s, g)
                      for s, g in zip(_lane_madd(*G, dx, dy, P), G))
        G = tuple(np.where(nz & ~started, b, g) for b, g in zip((dx, dy, one), G))
        started |= nz

    # Giant steps, affine in x only, then a match of x(k P) against the
    # baby rows j <= m; y(k P) is taken only where an x matched.
    span = 2 * m + 1
    giants = (hi - lo) // span + 1
    GX, GY, GZ = (np.empty((int(giants.max()), L), dtype=dt) for _ in range(3))
    GX[0], GY[0], GZ[0] = G
    for i in range(1, len(GX)):
        GX[i], GY[i], GZ[i] = _lane_madd(
            GX[i - 1], GY[i - 1], GZ[i - 1], bx[m + 1], by[m + 1], P)
    degenerate = (GZ[giants - 1, lanes] == 0) | stride_degenerate
    gx, gzi, _ = _lane_affine(GX, GZ, P, one)
    del GX, GZ
    # keys lane (max P + 1) + x, which int32 holds for up to 46,354 lanes
    off = np.arange(L, dtype=dt)[:, None] * (int(P.max()) + 1)
    gkeys = gx.T + off
    del gx
    table = (bx[:m].T + off).ravel()
    order = table.argsort()
    sorted_keys = table[order]
    del table
    pos = np.minimum(np.searchsorted(sorted_keys, gkeys), len(sorted_keys) - 1)
    li, gi = np.nonzero(sorted_keys[pos] == gkeys)
    del sorted_keys, gkeys
    # at a hit x(k P) = x(jj P), so (k - jj) P or (k + jj) P is 0 as the
    # y's agree or not
    jj = order[pos[li, gi]] % m + 1
    Ph, zh = P[li], gzi[gi, li]
    k = k0[li] + span * gi
    ann = np.where(by[jj - 1, li] == GY[gi, li] * (zh * zh % Ph * zh % Ph) % Ph,
                   k - jj, k + jj)
    valid = ~collided[li] & (ann >= lo[li]) & (ann <= hi[li])
    li, ann = li[valid], ann[valid]
    found = np.where(collided, found, np.bincount(li, minlength=L))
    n[li] = ann  # exact where found is 1, the only n read

    n = np.where(twisted, 2 * P64 + 2 - n, n)
    ok = drawn & (collided | ~degenerate)
    if (ok & (found == 0)).any():
        p = int(P[ok & (found == 0)][0])
        raise DataIntegrityError(f"no group order in the Hasse window of {p}")
    return [int(v) if pinned else None
            for v, pinned in zip(n.tolist(), (ok & (found == 1)).tolist())]


def _count_chunk(ai, primes) -> list:
    """N_p on the p-minimal model at each prime of a block, checked.

    The one place that picks a count's method, single counts included.  The
    table _count_table counts every p up to _LANE_FLOOR and every bad p; an
    order finder counts every good p above it.  Those p are lanes, run
    _LANES at a time in rounds of at least _LANE_MIN; a lane a round leaves
    unpinned rides in a later batch of the block.  A lane that no round
    runs, or that _LANE_ROUNDS rounds leave unpinned, goes to
    _fp_finder_count, and the table takes only that finder's misses, in one
    call with the block's other table primes after the lanes.  Every draw
    of the block comes from one generator, seeded from the model and the
    first prime.
    """
    if not primes:
        return []
    if max(primes) > COUNT_CEILING:
        raise ResourceError(
            f"point count at {max(primes)} exceeds ceiling {COUNT_CEILING}")
    *_, c4, c6, disc = _invariant_kernel(ai)
    out = [0] * len(primes)
    lds = [None] * len(primes)
    table, lanes = [], []  # (index, model, p) and (index, p, model, c4, c6)
    for i, p in enumerate(primes):
        model, mc4, mc6, good = ai, c4, c6, disc % p
        if not good:
            lds[i] = _local_data_ints(ai, p)
            model = lds[i].minimal_ainvs
            *_, mc4, mc6, mdisc = _invariant_kernel(model)
            good = mdisc % p
        if p > _LANE_FLOOR and good:
            lanes.append((i, p, model, mc4, mc6))
        else:
            table.append((i, model, p))
    rng = _finder_rng(primes[0], ai) if lanes else None
    # lanes is a queue: an unpinned lane rejoins its tail, so it shares a
    # later batch with fresh lanes instead of a pass of its own
    unpinned = Counter()
    left, start = [], 0
    while len(lanes) - start >= _LANE_MIN:
        batch = lanes[start:start + _LANES]
        start += len(batch)
        _, ps, _, c4s, c6s = zip(*batch)
        for lane, n in zip(batch, _lane_round(ps, c4s, c6s, rng)):
            if n is not None:
                out[lane[0]] = n
                continue
            unpinned[lane[0]] += 1
            if unpinned[lane[0]] < _LANE_ROUNDS:
                lanes.append(lane)
            else:
                left.append(lane)
    for i, p, model, c4, c6 in left + lanes[start:]:
        n = _fp_finder_count(c4, c6, p, rng)
        if n is None:
            table.append((i, model, p))
        out[i] = n
    idx, models, ps = zip(*table) if table else ((),) * 3
    for i, n in zip(idx, _count_table(models, ps)):
        out[i] = n
    return list(map(_checked_count, primes, out, lds))


def _fq_finder_count(c46, p, r, rng):
    """|E(F_{p^2})| for the good curve with these c4, c6, or None."""
    (c4u, c4v), (c6u, c6v) = c46
    a4 = (-27 * c4u % p, -27 * c4v % p)
    a6 = (-54 * c6u % p, -54 * c6v % p)
    add, _, mul, _, zero = _fq_field(p, r)

    def draw(rng):
        x = (rng.randrange(p), rng.randrange(p))
        f = add(mul(add(mul(x, x), a4), x), a6)
        if f == zero:
            return None
        f2 = mul(f, f)
        return ((mul(x, f), f2), _euler(_fq_norm(f, p, r), p) < 0,
                _fq_law(mul(a4, f2), p, r))

    return _order_finder(p * p, draw, rng)


def _fq_enumerate(b246, p, r):
    """|E(F_{p^2})| from the model's b2, b4, b6 by the character sum.

    |E| = p^2 + 1 + sum over x of chi(B(x)), B = 4x^3 + b2 x^2 + 2 b4 x + b6.
    Squareness in F_{p^2} is read off the norm, so the double loop stays in
    plain integers.
    """
    (b2u, b2v), (b4u, b4v), (b6u, b6v) = b246
    d4u, d4v = 2 * b4u, 2 * b4v
    rb2v, rd4v = r * b2v, r * d4v
    total = p * p + 1
    for u in range(p):
        for v in range(p):
            # x = u + v s with s^2 = r, then B(x) = zu + zv s
            u2, v2 = (u * u + r * v * v) % p, (2 * u * v) % p
            u3, v3 = (u2 * u + r * v2 * v) % p, (u2 * v + v2 * u) % p
            zu = (4 * u3 + b2u * u2 + rb2v * v2 + d4u * u + rd4v * v + b6u) % p
            zv = (4 * v3 + b2u * v2 + b2v * u2 + d4u * v + d4v * u + b6v) % p
            nrm = (zu * zu - r * zv * zv) % p
            # norm zero forces z = 0 since r is a nonresidue; chi(0) = 0
            if nrm != 0:
                total += _euler(nrm, p)
    return total


def _fq_group_order(ai, p, r, b246, c46):
    """|E(F_{p^2})| on E's own model: by the order finder for p >= 11, else
    by enumeration.  The one place that picks how such an order is made;
    _place_orders takes an order from one F_p count before it where j is
    rational.

    ai, b246 and c46 are the model's a-invariants, (b2, b4, b6) and
    (c4, c6) in F_{p^2}; ai seeds the draws.  From p = 11 on, q = p^2 > 49,
    and the orders on E and its quadratic twist always pin |E|, the
    supersingular groups (Z/(p -+ 1))^2 included.  If the draws run out, or
    p < 11, the character sum decides.
    """
    if p >= 11:
        rng = _finder_rng(p, (u for a in ai for u in a))
        n = _fq_finder_count(c46, p, r, rng)
        if n is not None:
            return n
    return _fq_enumerate(b246, p, r)


def _place_orders(c: CurveK, p: int, split: bool, n0=None):
    """|E(O_K/P)| at each place P above an odd prime p unramified in K, in
    count_curveK_at_prime's order, or None when the model is bad at some
    place above p.

    Where j is in Q \\ {0, 1728} and p is prime to CurveK._rational_twist's
    m = 6 N(c4 c6) N(disc), E is a twist of the rational E0 there, and
    n0 = N_p(E0), counted here unless the walk passes it, gives every
    place: p + 1 - (c4 c6 | P) a_p(E0) at a split P, and at the inert one
    m0 = N_p(E0) (2p + 2 - N_p(E0)) when c4 c6 is a square of F_{p^2}, that
    is when its norm is a square mod p, and 2p^2 + 2 - m0 when not.  Every
    other p counts each place on its own model.
    """
    inv, tw = invariants_K(c), c._rational_twist
    inv2 = (p + 1) // 2
    root = _sqrt_mod(c.d % p, p) if split else None
    rts = (root, p - root) if split else (None,)

    def emb(z: QuadInt, rt):
        """z mod P, P the place where sqrt d is rt; a pair u + v s at the
        inert place."""
        u, v = z.doubled()
        return (u + v * rt) * inv2 % p if split else (u * inv2 % p, v * inv2 % p)

    if tw and tw.m % p:
        if n0 is None:
            [n0] = _count_chunk(tw.e0, [p])
        if split:
            a0 = p + 1 - n0
            return [_checked_count(p, p + 1 - _euler(emb(tw.c4c6, rt), p) * a0) for rt in rts]
        m0 = _residue_order(n0, p, False)
        square = _euler(tw.c4c6.norm(), p) == 1
        return [_checked_count(p * p, m0 if square else 2 * p * p + 2 - m0)]
    if any(emb(inv.disc, rt) in (0, (0, 0)) for rt in rts):
        return None
    if split:
        return [n for rt in rts for n in _count_chunk(tuple(emb(a, rt) for a in c.ainvs), [p])]
    b246 = tuple(emb(z, None) for z in (inv.b2, inv.b4, inv.b6))
    n = _fq_group_order(tuple(emb(a, None) for a in c.ainvs), p, c.d % p, b246,
                        (emb(inv.c4, None), emb(inv.c6, None)))
    return [_checked_count(p * p, n)]


def count_curveK_at_prime(c: CurveK, p: int) -> list:
    """Residue field point counts above p for a curve over Q(sqrt d).

    Split p: two counts, the embedding using the smaller square root of d
    mod p first. Inert p: one count over F_{p^2}. Ramified p and p = 2 are
    refused, and so are primes where the model is bad at a place above p
    (BadReductionError) and, before any of these, an integer p above
    COUNT_CEILING.  p splits when (d|p) = 1, as in quadratic_walk, whose
    counts at p these are.
    """
    _bound(p, -math.inf, "p")  # any integer
    if p > COUNT_CEILING:
        raise ResourceError(f"point count at {p} exceeds ceiling {COUNT_CEILING}")
    if not is_prime(p):
        raise InputError(f"need a prime, got {p}")
    if p == 2:
        raise UnsupportedPrimeError("residue counts at 2 are not supported")
    if c.d % p == 0:
        raise UnsupportedPrimeError(f"{p} ramifies in Q(sqrt {c.d})")
    split = _euler(c.d, p) == 1
    counts = _place_orders(c, p, split)
    if counts is None:
        raise BadReductionError(f"bad reduction above {p} ({'split' if split else 'inert'})")
    return counts
