"""The trace store behind prime_walk and congruence_survey: every count it
reads equals the count _count_chunk makes with no store at all.  The pool
path of congruence_survey is checked in test_survey.py."""

import sys
import threading
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ellorders import reduction, walk
from ellorders.arith import primes_in_range
from ellorders.catalog import as_curve, bundled_corpus, resolve_label
from ellorders.curve import (
    _invariant_kernel,
    curve,
    everywhere_good_6,
    everywhere_good_33,
    quadratic_twist,
    transformed,
)
from ellorders.reduction import _count_chunk, _ints

TWINS = (("2880r6", "15a4"), ("150b3", "450a3"), ("50a3", "50b1"),
         ("960o6", "90c6"))


def _row(label):
    return as_curve(resolve_label(label, offline=True))


def _walked(c, X, monkeypatch):
    """prime_walk's (p, N_p) to X, and the primes it sent to _count_chunk."""
    counted = []

    def spy(ai, ps):
        counted.extend(ps)
        return _count_chunk(ai, ps)

    monkeypatch.setattr(walk, "_count_chunk", spy)
    return list(walk.prime_walk(c, 2, X)), counted


def _stored_bytes():
    return sum(e[2].nbytes + e[3].nbytes for e in walk._TRACES.values())


def _cold(c, X):
    """(p, N_p) to X straight from _count_chunk, which never reads the store."""
    ps = primes_in_range(2, X)
    return list(zip(ps, _count_chunk(_ints(c), ps)))


class TestTraceStore:
    def test_twin_rows_read_each_others_counts(self, monkeypatch):
        for a, b in TWINS:
            walk._TRACES.clear()
            list(walk.prime_walk(_row(a), 2, 2000))
            got, counted = _walked(_row(b), 2000, monkeypatch)
            assert got == _cold(_row(b), 2000), (a, b)
            # the twin's good odd primes prime to u come from the store
            assert len(counted) < len(got) // 4, (a, b)

    def test_each_rows_twist_reads_the_rows_counts(self, monkeypatch):
        for rec in bundled_corpus():
            if not rec.needs_resolution:
                continue
            c = _row(rec.label)
            tw = quadratic_twist(c, rec.expected.d)
            walk._TRACES.clear()
            list(walk.prime_walk(c, 2, 2000))
            got, counted = _walked(tw, 2000, monkeypatch)
            assert got == _cold(tw, 2000), rec.label
            assert len(counted) < len(got) // 4, rec.label

    def test_j_0_and_1728_quadratic_twists_share_a_class(self, monkeypatch):
        # y^2 = x^3 + 1 and y^2 = x^3 + x are the references of the j = 0
        # and j = 1728 classes; their quadratic twists, on models with
        # c6 = s^3 c6' or c4 = s^2 c4' (s = -3, 5, -1, and s = 2 on a
        # scaled model), read the reference's traces, and equal counts made
        # without the store
        for c in (curve([0, 0, 0, 0, 1]), curve([0, 0, 0, 1, 0])):
            list(walk.prime_walk(c, 2, 1000))
            for e in (quadratic_twist(c, -3), quadratic_twist(c, 5),
                      quadratic_twist(c, -1), transformed(quadratic_twist(c, 2), u=3)):
                got, counted = _walked(e, 1000, monkeypatch)
                assert got == _cold(e, 1000)
                assert len(counted) < len(got) // 4
        assert len(walk._TRACES) == 2
        # cubic, quartic and sextic twists share no class: y^2 = x^3 + 2,
        # y^2 = x^3 - 4x and y^2 = x^3 + 2x read nothing and store nothing
        for e in (curve([0, 0, 0, 0, 2]), curve([0, 0, 0, -4, 0]), curve([0, 0, 0, 2, 0])):
            got, counted = _walked(e, 1000, monkeypatch)
            assert got == _cold(e, 1000)
            assert counted == [p for p, _ in got]
        assert len(walk._TRACES) == 2

    def test_primes_dividing_u_are_counted(self, monkeypatch):
        # c6 = 9504 = 2^5 3^3 11 while the discriminant is 2^4 3^6 5, so 11
        # divides u for every twist, though the curve and its twists are
        # good there: the twist counts 11 itself and stores nothing there
        c = curve([0, 0, 0, -12, -11])
        list(walk.prime_walk(c, 2, 500))
        [(_, _, ref_ps, _)] = walk._TRACES.values()
        for d in (5, -1, 7):
            got, counted = _walked(quadratic_twist(c, d), 500, monkeypatch)
            assert got == _cold(quadratic_twist(c, d), 500)
            assert 11 in counted and 11 in ref_ps.tolist()
        [(_, _, ps, _)] = walk._TRACES.values()
        assert ps.tolist() == ref_ps.tolist()

    @given(st.sampled_from([[0, 0, 0, -12, -11], [1, 1, 0, -700, 34000],
                            [1, -1, 1, -199, 510], [0, 0, 1, -1, 0]]),
           st.fractions(-3, 3, max_denominator=3),
           st.fractions(-3, 3, max_denominator=3),
           st.fractions(-3, 3, max_denominator=3),
           st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 2)]))
    @settings(max_examples=25, deadline=None)
    def test_transformed_models_read_the_same_counts(self, ainvs, r, s, t, u):
        walk._TRACES.clear()
        c = curve(ainvs)
        want = list(walk.prime_walk(c, 2, 600))
        model = transformed(c, r=r, s=s, t=t, u=u)
        assert list(walk.prime_walk(model, 2, 600)) == want
        assert want == _cold(c, 600)

    def test_the_store_keeps_to_its_byte_bound(self, monkeypatch):
        # about 430 stored primes a curve to 3000, 6 bytes each: two classes
        # fit in 6000 bytes, and the least recently used one goes first
        monkeypatch.setattr(walk, "_TRACE_BYTES", 6000)
        curves = [curve(a) for a in ([0, 0, 0, -12, -11], [1, 1, 0, -700, 34000],
                                     [0, 0, 1, -1, 0])]
        for c in curves:
            list(walk.prime_walk(c, 2, 3000))
            assert 0 < _stored_bytes() <= 6000
        assert [e[:2] for e in walk._TRACES.values()] == [
            _invariant_kernel(_ints(c))[4:6] for c in curves[1:]]
        got, counted = _walked(curves[0], 3000, monkeypatch)
        assert got == _cold(curves[0], 3000)
        assert counted == [p for p, _ in got]

    def test_a_class_never_outgrows_the_bound(self, monkeypatch):
        monkeypatch.setattr(walk, "_TRACE_BYTES", 1000)
        c = curve([0, 0, 0, -12, -11])
        list(walk.prime_walk(c, 2, 3000))
        assert 0 < _stored_bytes() <= 1000
        assert list(walk.prime_walk(c, 2, 3000)) == _cold(c, 3000)

    def test_threads_never_mix_two_references(self, monkeypatch):
        # room for one class of about 240 primes: threads walking three
        # twists of one class and a curve of another evict the class and
        # make it anew, each time with the reference of whichever walks first
        monkeypatch.setattr(walk, "_TRACE_BYTES", 2000)
        base = curve([0, 0, 0, -12, -11])
        curves = [base, quadratic_twist(base, 5), quadratic_twist(base, -7),
                  curve([1, 1, 0, -700, 34000])]
        want = [_cold(c, 1500) for c in curves]
        wrong = []

        def work(i):
            for _ in range(10):
                if list(walk.prime_walk(curves[i], 2, 1500)) != want[i]:
                    wrong.append(i)

        threads = [threading.Thread(target=work, args=(i % 4,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestQuadraticWalk:
    def test_rational_j_walk_counts_only_its_rational_twist(self, monkeypatch):
        # both built-in curves have rational j: a walk to 2000 counts the
        # rational curve E0 they twist once a block, at the primes prime to
        # m, outside the store, and only the primes dividing m on the
        # curve's own model; at 5 and 7 over Q(sqrt 6) that model is good,
        # and 7 over Q(sqrt 33) is bad
        calls, fq = [], []

        def spy(ai, ps):
            calls.append((ai, list(ps)))
            return _count_chunk(ai, ps)

        def fq_spy(real):
            def spied(*args):
                fq.append(args[1])
                return real(*args)
            return spied

        monkeypatch.setattr(walk, "_count_chunk", spy)
        monkeypatch.setattr(reduction, "_count_chunk", spy)
        for name in ("_fq_finder_count", "_fq_enumerate"):
            monkeypatch.setattr(reduction, name, fq_spy(getattr(reduction, name)))
        fallbacks = set()
        for ck in (everywhere_good_33(), everywhere_good_6()):
            e0, _, m = ck._rational_twist
            calls.clear()
            fq.clear()
            list(walk.quadratic_walk(ck, ck.d, 2000))
            ps = [p for p in primes_in_range(3, 2000) if ck.d % p]
            assert [b for ai, b in calls if ai == e0] == [
                [p for p in block if m % p] for block in walk._blocks(ps)]
            own = [p for ai, b in calls if ai != e0 for p in b] + fq
            assert all(m % p == 0 for p in own), (ck.d, own)
            fallbacks.update(own)
        assert fallbacks == {5, 7}
        assert not walk._TRACES
