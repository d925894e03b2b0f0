"""Prime walks of a curve, through one store of Frobenius traces per twist
class.

prime_walk yields N_p over a prime range, and congruence_survey takes its
blocks' counts from _stored_counts.  Both read every trace the curve's
twist class already holds and hand the other primes to
reduction._count_chunk, which alone picks how a count is made; the traces
of the counted primes are stored.  quadratic_walk, which
survey.gcd_orders_quadratic alone folds, walks a rational curve through
prime_walk.  A curve over Q(sqrt d) walks on prime_walk's blocks
without the store, which single counts never touch either: where its j is
rational, one _count_chunk call a block counts the rational curve it
twists, and reduction._place_orders turns each count into the orders of
the places above that prime; every other prime is counted place by place.

Two models with one j other than 0 and 1728 are twists: c4 = t^2 c4' and
c6 = t^3 c6' for a rational t, so u = c4 c6 c4' c6' = t^5 (c4' c6')^2 is in
t's square class, and a_p = (u|p) a_p' at every odd p prime to u and to the
model's discriminant, with no factoring.  At j = 0 and 1728 one j holds
cubic, quartic and sextic twists too, and a model is a quadratic twist by
s of the class's reference exactly when c6 = s^3 c6' (j = 0, so u = c6 c6' is
in s's square class) or c4 = s^2 c4' (j = 1728, u = s c4'^2; s and -s give
one curve there); any other model bypasses the store.  A class keeps the
first model it counted as its reference, (c4, c6) and its traces at good
odd primes, and every model of the class reads and writes them through
that character; the reference itself reads with none.

The store is its own module, not part of reduction, because compiling
reduction.py is the high-water mark of importing the package: the same code
there raised every benchmark workload's peak RSS by about 0.8 MB, and as a
module of its own it moves it by nothing measurable beyond the traces it
holds.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque
from fractions import Fraction
from itertools import repeat

import numpy as np

from .arith import _euler, primes_in_range
from .curve import CurveK, CurveQ, _icbrt, _invariant_kernel
from .errors import InputError
from .reduction import (
    CHUNK,
    _check_field,
    _checked_count,
    _count_chunk,
    _good_at,
    _ints,
    _lane_pow,
    _place_orders,
    _residue_order,
)

# A prime walk's first block; later ones double up to CHUNK.  torsion_over_Q
# checks its stop every 8 primes, and gcd_orders and gcd_orders_quadratic
# mostly stop within a few, so a small first block counts little past a stop.
_WALK_FIRST = 8

# j -> (c4, c6, sorted int32 primes, int16 traces), least recently used
# first.  |a_p| <= 2 sqrt(COUNT_CEILING) < 6400 fits int16.  An entry is
# replaced, never changed in place, under _LOCK, so that threads walking one
# class never mix two references' traces.
_TRACES = OrderedDict()
_LOCK = threading.Lock()

# The store's bound in array bytes, 6 a prime: the least recently used
# classes go first, and a write that would take one class past the bound
# alone is dropped, so one class holds a survey to about 1.1*10^6.  A
# corpus-verify pass to 10^4 leaves 19 classes of at most 1227 primes, 148 KB
# in all, and the two density surveys to 4*10^4 leave 51 KB (tracemalloc).
_TRACE_BYTES = 1 << 19


def _twist_unit(c4, c6, ref):
    """u with a_p = (u|p) a_p' at good odd p prime to u, a_p' the trace of
    the reference ref = (c4', c6') of (c4, c6)'s class; 1 for the reference
    itself, None for a model that is no quadratic twist of it."""
    if (c4, c6) == ref:
        return 1
    if c4 and c6:
        return c4 * c6 * ref[0] * ref[1]
    if c4 == 0:
        # c6 / c6' = s^3 exactly when c6 c6'^2 = (s c6')^3
        n = abs(c6 * ref[1] ** 2)
        return c6 * ref[1] if _icbrt(n) ** 3 == n else None
    # c4 / c4' = s^2 exactly when c4 c4' = (s c4')^2
    n = c4 * ref[0]
    return math.isqrt(n) * ref[0] if n > 0 and math.isqrt(n) ** 2 == n else None


def _trace_signs(u, disc, primes):
    """(u|p) per prime as int64, where the class's trace at p is the model's
    up to that sign; 0 at p = 2, at p dividing disc, and at p dividing u.
    The reference's own u is 1, and its signs are all 1 there."""
    sign = np.array([p > 2 and disc % p != 0 for p in primes], dtype=np.int64)
    if u != 1:
        P = np.array(primes, dtype=np.int64)
        chi = _lane_pow(np.array([u % p for p in primes], dtype=np.int64),
                        (P - 1) // 2, P)
        chi[chi > 1] -= P[chi > 1]
        sign *= chi
    return sign


def _read_traces(key, ref, primes, sign):
    """N_p from the class's traces, checked, or None where it has none; the
    class's reference must still be ref, which sign was taken against."""
    with _LOCK:
        entry = _TRACES.get(key)
        if entry is None or entry[:2] != ref:
            return [None] * len(primes)
        _TRACES.move_to_end(key)
    ps, aps = entry[2], entry[3]
    P = np.array(primes, dtype=np.int64)
    at = np.minimum(np.searchsorted(ps, P), len(ps) - 1)
    hit = (ps[at] == P) & (sign != 0)
    n = P + 1 - sign * aps[at].astype(np.int64)
    return [_checked_count(p, v) if h else None
            for p, v, h in zip(primes, n.tolist(), hit.tolist())]


def _write_traces(key, ref, P, sign, counts):
    """Store ref's traces at the primes of P whose sign is nonzero, unless
    the class has another reference by now; a new class takes ref."""
    keep = sign != 0
    if not keep.any():
        return
    ps = P[keep]
    aps = sign[keep] * (ps + 1 - np.array(counts, dtype=np.int64)[keep])
    with _LOCK:
        entry = _TRACES.get(key)
        if entry is not None:
            if entry[:2] != ref or (len(entry[2]) + len(ps)) * 6 > _TRACE_BYTES:
                return
            ps = np.concatenate((entry[2], ps))
            aps = np.concatenate((entry[3], aps))
            order = ps.argsort(kind="stable")
            ps, aps = ps[order], aps[order]
        _TRACES[key] = (*ref, ps.astype(np.int32), aps.astype(np.int16))
        _TRACES.move_to_end(key)
        while sum(e[2].nbytes + e[3].nbytes for e in _TRACES.values()) > _TRACE_BYTES:
            _TRACES.popitem(last=False)


def _stored_counts(ai, blocks, mapper=map):
    """N_p on the p-minimal model at the primes of each block, an iterator
    of one list per block, as _count_chunk counts them.  Where ai's twist
    class holds the trace it is read; mapper(_count_chunk, ...) counts the
    rest, whose traces are then stored.  mapper is map, which reads, counts
    and stores one block at a time and keeps nothing of a block past its
    list, or a process pool's map, which takes every block's misses at
    once; the reads and writes run in this process either way."""
    *_, c4, c6, disc = _invariant_kernel(ai)
    key = Fraction(c4**3, disc)
    entry = _TRACES.get(key)
    ref = entry[:2] if entry else (c4, c6)
    u = _twist_unit(c4, c6, ref)
    if u is None:
        return mapper(_count_chunk, repeat(ai), blocks)

    reads = deque()  # (block, sign, known) of the blocks sent, not yet filled

    def misses(block):
        sign = _trace_signs(u, disc, block)
        known = _read_traces(key, ref, block, sign)
        reads.append((block, sign, known))
        return [p for p, n in zip(block, known) if n is None]

    def fill(counts):
        block, sign, known = reads.popleft()
        miss = np.array([n is None for n in known])
        _write_traces(key, ref, np.array(block, dtype=np.int64)[miss], sign[miss], counts)
        it = iter(counts)
        return [next(it) if n is None else n for n in known]

    return map(fill, mapper(_count_chunk, repeat(ai), map(misses, blocks)))


def _blocks(ps):
    """ps in blocks of _WALK_FIRST primes, doubling up to CHUNK, so a walk
    that stops early counts few primes past its stop."""
    start, width = 0, _WALK_FIRST
    while start < len(ps):
        yield ps[start:start + width]
        start, width = start + width, min(2 * width, CHUNK)


def prime_walk(c: CurveQ, lo: int, X: int, keep=None):
    """(p, N_p) on the p-minimal model at each prime in [lo, X] that keep
    accepts (every prime without it), ascending, counted a block at a time
    through _stored_counts."""
    ai = _ints(c)
    for block in _blocks([p for p in primes_in_range(lo, X) if keep is None or keep(p)]):
        yield from zip(block, *_stored_counts(ai, [block]))


def quadratic_walk(c, d: int, X: int):
    """(p, split, |E(O_K/P)|) at each place P of K = Q(sqrt d) above an odd
    prime p <= X unramified in K, ascending in p, from one prime walk.

    A rational curve yields one triple per good p: both places above a
    split p have the order N_p.  A curve over K itself (d must be its own)
    yields one triple per place, the split places in count_curveK_at_prime's
    order, and skips each p where its model is bad at some place above p.
    Where its j is rational, other than 0 and 1728, the walk counts the
    rational curve E0 it twists (CurveK._rational_twist) in one _count_chunk
    call a block, at the block's primes prime to the twist's m and outside
    the store, and _place_orders makes every place above such a p from
    that one count; it counts the other primes place by place.
    """
    if not isinstance(c, CurveK):
        _check_field(d)
        good = _good_at(_ints(c))
        for p, n in prime_walk(c, 3, X, lambda p: d % p and good(p)):
            split = _euler(d % p, p) == 1
            yield p, split, _residue_order(n, p, split)
        return
    if d != c.d:
        raise InputError(f"curve lives in Q(sqrt {c.d}), not Q(sqrt {d})")
    tw = c._rational_twist
    for block in _blocks([q for q in primes_in_range(3, X) if d % q]):
        twisted = [p for p in block if tw and tw.m % p]
        n0 = dict(zip(twisted, _count_chunk(tw.e0, twisted))) if twisted else {}
        for p in block:
            split = _euler(d % p, p) == 1
            for n in _place_orders(c, p, split, n0.get(p)) or ():
                yield p, split, n
