"""Command-line front end.

One subcommand per operation.  Every report goes to stdout, through _emit,
as md (the default), csv or json; diagnostics go to stderr.  CSV output is
one RFC 4180-quoted table, so a field with a comma or a quote reads back
whole.  Exit codes follow the package convention: 0 success, 1 a
verification found violations, 2 usage, 3 a resource ceiling or a label
missing from every cache.  --offline is accepted and ignored: label
resolution reads only caches.
Reports depend only on the flags, so identical invocations give identical
bytes.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from fractions import Fraction

import click

from .catalog import as_curve, bundled_corpus, parse_curve, render_curve, resolve_label
from .curve import _FAMILIES, make_family, quadratic_twist
from .errors import DataIntegrityError, InputError, ParseError, ResourceError
from .reduction import _count_chunk, _good_at, _ints, bad_primes, local_data
from .survey import (
    SurveySpec,
    Violation,
    check_kubert_conditions,
    congruence_survey,
    gcd_orders,
    gcd_orders_quadratic,
    scan_anomalous,
    scan_supersingular,
    verify_expected,
    verify_family,
)
from .torsion import (
    TorsionGroup,
    _odd_part,
    odd_torsion_over_quadratic,
    torsion_over_Q,
)
from .walk import prime_walk, quadratic_walk
from .arith import _euler


def _parse_value(text: str):
    try:
        v = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot read {text!r} as a rational number")
    return int(v) if v.denominator == 1 else v


def _parse_params(text: str) -> list:
    """Parameter lists: '2,3,7' or '1..10' or a single value."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise click.UsageError(f"range endpoints must be integers: {text!r}")
        if hi_i < lo_i:
            raise click.UsageError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [_parse_value(part) for part in text.split(",")]


def _load_curve(curve_text, label, family, t, cache_dir):
    picked = [x for x in (curve_text, label, family) if x is not None]
    if len(picked) != 1:
        raise click.UsageError("give exactly one of --curve, --label, --family")
    if curve_text is not None:
        return parse_curve(curve_text)
    if label is not None:
        return as_curve(resolve_label(label, cache_dir=cache_dir))
    if t is None:
        raise click.UsageError(f"--family {family} needs --t")
    params = _parse_params(t)
    if len(params) != 1:
        raise click.UsageError("this command takes a single --t value")
    return make_family(family, params[0])


def _int_vector(text: str) -> list:
    c = parse_curve(text)  # reuse the strict parser for syntax and arity
    out = []
    for a in c.ainvs:
        if a.denominator != 1:
            raise InputError(f"integer coefficients required, got {a}")
        out.append(int(a))
    return out


def _md_table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        cells = ("" if x is None else str(x) for x in row)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _csv(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue().removesuffix("\n")


def _emit(fmt, payload, headers=(), rows=(), lines=(), tail=()):
    """Write one report to stdout.

    json writes the payload; csv writes the table alone, one CSV document
    with its header even when it has no rows; md writes the prose lines,
    then the table (left out when prose lines come first and it has no
    rows), then the tail lines.
    """
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    if fmt == "csv":
        click.echo(_csv(headers, rows))
        return
    out = list(lines)
    if headers and (rows or not lines):
        out.append(_md_table(headers, rows))
    out.extend(tail)
    click.echo("\n".join(out))


def _emit_record(fmt, payload, pairs):
    """A report of (key, value) pairs: "key: value" lines, or a csv table."""
    if fmt == "csv":
        _emit(fmt, payload, ("key", "value"), pairs)
    else:
        _emit(fmt, payload, lines=[f"{k}: {v}" for k, v in pairs])


def _payload(command, ainvs=None, **fields) -> dict:
    """A command's JSON report: its schema, its curve when it has one, fields."""
    payload = {"schema": f"ellorders.{command}/1", **fields}
    if ainvs is not None:
        payload["curve"] = [str(a) for a in ainvs]
    return payload


def guarded(fn):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs) or 0
        except click.ClickException:
            raise
        except ParseError as exc:
            pos = f" (position {exc.position})" if exc.position is not None else ""
            click.echo(f"error: {exc}{pos}", err=True)
            code = 2
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            code = 2
        except ResourceError as exc:
            click.echo(f"error: {exc}", err=True)
            code = 3
        except DataIntegrityError as exc:
            click.echo(f"error: {exc}", err=True)
            code = 1
        sys.exit(code)

    return wrapper


def _format_option(fn):
    return click.option("--format", "fmt", default="md",
                        type=click.Choice(["md", "csv", "json"]),
                        help="output format")(fn)


_OFFLINE_HELP = ("accepted and ignored: labels resolve from the user cache, "
                 "then the bundled cache")


def _curve_command(fn):
    """The curve options, --format and guarded; fn gets the loaded curve c."""

    @functools.wraps(fn)
    def wrapper(curve_text, label, family, t, offline, cache_dir, **kwargs):
        c = _load_curve(curve_text, label, family, t, cache_dir)
        return fn(c, **kwargs)

    cmd = _format_option(guarded(wrapper))
    cmd = click.option("--curve", "curve_text", default=None,
                       help="coefficients, e.g. \"[0,0,0,-12,-11]\"")(cmd)
    cmd = click.option("--label", default=None, help="curve label to resolve")(cmd)
    cmd = click.option("--family", default=None,
                       type=click.Choice(sorted(_FAMILIES)),
                       help="parametrized family name")(cmd)
    cmd = click.option("--t", default=None, help="family parameter")(cmd)
    cmd = click.option("--offline", is_flag=True, help=_OFFLINE_HELP)(cmd)
    return click.option("--cache-dir", default=None, type=click.Path(),
                        help="curve cache directory")(cmd)


@click.group()
def main():
    """Orders of reductions of elliptic curves over Q."""


@main.command()
@_curve_command
@click.option("--max-prime", default=100, show_default=True,
              help="scan primes up to this bound")
def count(c, fmt, max_prime):
    """Point counts of the reductions at primes up to the bound."""
    good = _good_at(_ints(c))
    rows = [(p, "good", n, p + 1 - n) if good(p)
            else (p, local_data(c, p).rtype.value, n, None)
            for p, n in prime_walk(c, 2, max_prime)]
    headers = ("p", "reduction", "points", "trace")
    _emit(fmt, _payload("count", c.ainvs, max_prime=max_prime,
                        rows=[dict(zip(headers, row)) for row in rows]),
          headers, rows)


@main.command()
@_curve_command
@click.option("--max-prime", default=None, type=int,
              help="only bad primes up to this bound")
def local(c, fmt, max_prime):
    """Reduction type and Kodaira data at the bad primes."""
    ps = sorted(bad_primes(c))
    if max_prime is not None:
        ps = [p for p in ps if p <= max_prime]
    rows = [
        (ld.p, ld.rtype.value, ld.kodaira.label, ld.v_disc_min, ld.reduced_count)
        for ld in (local_data(c, p) for p in ps)
    ]
    headers = ("p", "reduction", "kodaira", "v_disc_min", "points")
    _emit(fmt, _payload("local", c.ainvs,
                        rows=[dict(zip(headers, row)) for row in rows]),
          headers, rows)


@main.command()
@_curve_command
@click.option("--d", "d", type=int, required=True, help="field is Q(sqrt d)")
@click.option("--max-prime", default=100, show_default=True,
              help="rational primes up to this bound")
def extension(c, fmt, d, max_prime):
    """Residue-field orders over Q(sqrt d) at odd unramified good primes.

    A split prime contributes two places with the same order; the table
    shows it once.
    """
    rows = [(p, "split" if split else "inert", n)
            for p, split, n in quadratic_walk(c, d, max_prime)]
    headers = ("p", "splitting", "order")
    _emit(fmt, _payload("extension", c.ainvs, d=d, max_prime=max_prime,
                        rows=[dict(zip(headers, row)) for row in rows]),
          headers, rows)


@main.command()
@_curve_command
@click.option("--d", "d", type=int, default=None,
              help="also report torsion data over Q(sqrt d)")
@click.option("--max-prime", default=300, show_default=True,
              help="reduction bound for the quadratic order estimate")
def torsion(c, fmt, d, max_prime):
    """Rational torsion; with --d, torsion data over Q(sqrt d)."""
    grp = torsion_over_Q(c)
    payload = _payload("torsion", c.ainvs, structure=[grp.n1, grp.n2],
                       order=grp.order,
                       generators=[[str(x), str(y)] for x, y in grp.generators])
    pairs = [("torsion over Q", f"{grp} (order {grp.order})")]
    pairs.extend(("generator", f"({x}, {y})") for x, y in grp.generators)
    if d is not None:
        quad = payload["quadratic"] = {
            "d": d,
            "odd_order": odd_torsion_over_quadratic(c, d),
            "order_bound": gcd_orders_quadratic(c, d, max_prime),
        }
        pairs.append((f"odd torsion over Q(sqrt {d})", quad["odd_order"]))
        pairs.append((f"order bound over Q(sqrt {d})", quad["order_bound"]))
    _emit_record(fmt, payload, pairs)


@main.command()
@_curve_command
@click.option("--d", "d", type=int, required=True, help="twisting integer")
@click.option("--max-prime", default=1000, show_default=True,
              help="check the paired count identity up to this bound")
def twist(c, fmt, d, max_prime):
    """Quadratic twist model and the paired count identity.

    At odd good primes away from d the counts of the curve and its twist
    agree when d is a square mod p and sum to 2p+2 when it is not.
    """
    tw = quadratic_twist(c, d)
    ai_tw = _ints(tw)
    good, good_tw = _good_at(_ints(c)), _good_at(ai_tw)
    keep = lambda p: d % p and good(p) and good_tw(p)
    walked = list(prime_walk(c, 3, max_prime, keep))
    # the twist is counted on its own model, not read from the trace store,
    # which would give the curve's traces times (d|p): the identity checked
    checked = len(walked)
    violations = []
    for (p, n), n_tw in zip(walked, _count_chunk(ai_tw, [p for p, _ in walked])):
        if _euler(d, p) == 1:
            ok = n == n_tw
        else:
            ok = n + n_tw == 2 * p + 2
        if not ok:
            violations.append((p, n, n_tw))
    headers = ("p", "points", "twist_points")
    payload = _payload(
        "twist", c.ainvs, d=d, twist=[str(a) for a in tw.ainvs],
        max_prime=max_prime, checked=checked,
        violations=[dict(zip(headers, row)) for row in violations])
    lines = [f"twist by {d}: {render_curve(tw)}",
             f"checked {checked} primes up to {max_prime}"]
    if not violations:
        lines.append("identity holds at every checked prime")
    _emit(fmt, payload, headers, violations, lines)
    return 1 if violations else 0


@main.command()
@_curve_command
@click.option("--mod", "m", type=int, required=True, help="count modulus")
@click.option("--class-mod", "n", type=int, required=True,
              help="prime-class modulus")
@click.option("--max-prime", default=1000, show_default=True)
# worker processes, at most one per block of CHUNK = 2048 primes, so a
# survey to about 17,900 runs serially
@click.option("--threads", default=1, show_default=True)
def survey(c, fmt, m, n, max_prime, threads):
    """Bucket point-count residues against prime classes."""
    table = congruence_survey(c, SurveySpec(m, n, max_prime), workers=threads)
    payload = _payload("survey", table.ainvs, m=table.m, N=table.N, X=table.X,
                       total=table.total,
                       rows=[{"p_class": s, "count_class": t, "primes": k}
                             for s, t, k in table.cells()])
    if fmt == "csv":
        # every (p class, count class) cell
        _emit(fmt, payload, ("p_class", "count_class", "primes"), table.cells())
        return
    # one row per count residue: the prime classes that hit it, in order
    by_t = {}
    for s, tt, cnt in table.cells():
        by_t.setdefault(tt, []).append((s, cnt))
    rows = [(tt, ", ".join(str(s) for s, _ in hits), sum(k for _, k in hits))
            for tt, hits in sorted(by_t.items())]
    _emit(fmt, payload, (f"count mod {m}", f"p mod {n}", "primes"), rows)


def _emit_gcd(fmt, command, c, g, **fields):
    """The gcd commands: the bare value in md, a one-column table in csv."""
    payload = _payload(command, c.ainvs, gcd=g, **fields)
    if fmt == "csv":
        _emit(fmt, payload, ("gcd",), [(g,)])
    else:
        _emit(fmt, payload, lines=[str(g)])


@main.command()
@_curve_command
@click.option("--max-prime", default=1000, show_default=True)
def gcd(c, fmt, max_prime):
    """gcd of reduction orders over all primes up to the bound."""
    _emit_gcd(fmt, "gcd", c, gcd_orders(c, max_prime), max_prime=max_prime)


@main.command(name="gcd-quadratic")
@_curve_command
@click.option("--d", "d", type=int, required=True, help="field is Q(sqrt d)")
@click.option("--max-prime", default=2000, show_default=True)
def gcd_quadratic(c, fmt, d, max_prime):
    """gcd of residue-field orders over Q(sqrt d)."""
    _emit_gcd(fmt, "gcd-quadratic", c, gcd_orders_quadratic(c, d, max_prime),
              d=d, max_prime=max_prime)


def _emit_primes(fmt, command, c, m, max_prime, scan):
    """The prime-list commands: scan(c, X, modulus) lists (p, p mod modulus),
    and each residue is shown only when --mod gave m."""
    found = [(p, None if m is None else r)
             for p, r in scan(c, max_prime, 1 if m is None else m)]
    payload = _payload(command, c.ainvs, max_prime=max_prime, mod=m,
                       primes=[{"p": p, "residue": r} for p, r in found])
    if m is not None:
        _emit(fmt, payload, ("p", f"p mod {m}"), found)
    else:
        _emit(fmt, payload, ("p",), [(p,) for p, _ in found])


@main.command()
@_curve_command
@click.option("--mod", "m", type=int, default=None,
              help="annotate primes with their class mod this")
@click.option("--max-prime", default=1000, show_default=True)
def supersingular(c, fmt, m, max_prime):
    """Good primes with trace zero."""
    _emit_primes(fmt, "supersingular", c, m, max_prime, scan_supersingular)


@main.command()
@_curve_command
@click.option("--mod", "m", type=int, default=None,
              help="annotate primes with their class mod this")
@click.option("--max-prime", default=1000, show_default=True)
def anomalous(c, fmt, m, max_prime):
    """Good primes dividing their own point count."""
    _emit_primes(fmt, "anomalous", c, m, max_prime, scan_anomalous)


@main.command()
@_format_option
@click.option("--family", "family", required=True,
              type=click.Choice(["family3", "family5", "kkp"]))
@click.option("--t", "t", required=True,
              help="parameter values: '2,3,7' or '1..10'")
@click.option("--max-prime", default=5000, show_default=True)
@guarded
def family(fmt, family, t, max_prime):
    """Check a family's count-divisibility claim over its parameters."""
    params = _parse_params(t)
    report = verify_family(family, params, max_prime)
    headers = ("p", "points", "residue", "context")
    rows = [(v.p, v.count, v.observed, v.context) for v in report.violations]
    payload = _payload(
        "family", family=family, params=[str(v) for v in params],
        max_prime=max_prime, passed=report.passed, checked=report.total,
        violations=[dict(zip(headers, row)) for row in rows])
    lines = [f"{family} at t={t}: checked {report.total} prime/parameter "
             f"pairs up to {max_prime}"]
    if report.passed:
        lines.append("divisibility holds everywhere")
    _emit(fmt, payload, headers, rows, lines)
    return 0 if report.passed else 1


@main.command(name="kubert-check")
@_format_option
@click.option("--curve", "curve_text", required=True,
              help="integer coefficients")
@click.option("--t", "t", required=True, type=int,
              help="candidate x-coordinate")
@click.option("--mod", "p", required=True, type=int,
              help="odd prime order to test")
@guarded
def kubert_check(fmt, curve_text, t, p):
    """Test a candidate x-coordinate for a point of odd prime order mod p."""
    vec = _int_vector(curve_text)
    verdict = check_kubert_conditions(vec, t, p)
    pairs = [("accepted", "yes" if verdict.accepted else "no")]
    if verdict.reason:
        pairs.append(("reason", verdict.reason))
    if verdict.psi_value is not None:
        pairs.append(("division value", verdict.psi_value))
    if verdict.count is not None:
        pairs.append(("points", verdict.count))
    _emit_record(fmt, _payload("kubert-check", vec, x=t, order=p,
                               accepted=verdict.accepted, reason=verdict.reason,
                               psi_value=verdict.psi_value, count=verdict.count),
                 pairs)
    return 0 if verdict.accepted else 1


@main.command()
@_format_option
@click.option("--label", required=True)
@click.option("--offline", is_flag=True, help=_OFFLINE_HELP)
@click.option("--cache-dir", default=None, type=click.Path())
@guarded
def resolve(fmt, label, offline, cache_dir):
    """Resolve a curve label to coefficients from the user cache, then the
    bundled cache."""
    rec = resolve_label(label, cache_dir=cache_dir)
    pairs = [("label", rec.label), ("curve", render_curve(as_curve(rec))),
             ("source", rec.source)]
    pairs.extend(("note", note) for note in rec.notes)
    _emit_record(fmt, _payload("resolve", rec.a_invariants, label=rec.label,
                               source=rec.source, notes=list(rec.notes)),
                 pairs)


# quadratic order bound horizon for the corpus torsion columns
_CORPUS_BOUND_PRIME = 300


def _corpus_rows(X, cache_dir, threads):
    out = []
    for rec in bundled_corpus():
        if not rec.needs_resolution:
            continue
        resolved = resolve_label(rec.label, cache_dir=cache_dir)
        c = as_curve(resolved)
        exp = rec.expected
        table = congruence_survey(
            c, SurveySpec(exp.table.m, exp.table.N, X), workers=threads)
        rep = verify_expected(table, exp.table)
        violations = [
            Violation(v.p, v.count, v.observed, v.allowed,
                      f"{rec.label}: {v.context}")
            for v in rep.violations
        ]
        tq = torsion_over_Q(c)
        tq_claim = TorsionGroup(*exp.torsion_Q, ())
        tk_claim = TorsionGroup(*exp.torsion_K, ())
        m_k = tk_claim.order
        odd_claim = _odd_part(m_k)
        odd_got = odd_torsion_over_quadratic(c, exp.d)
        bound = gcd_orders_quadratic(c, exp.d, _CORPUS_BOUND_PRIME)
        torsion_failures = []
        if tq.structure != tq_claim.structure:
            torsion_failures.append(
                f"rational torsion {tq}, expected {tq_claim}")
        if odd_got != odd_claim:
            torsion_failures.append(
                f"odd torsion over Q(sqrt {exp.d}) is {odd_got}, "
                f"expected {odd_claim}")
        if bound % m_k:
            torsion_failures.append(
                f"order bound {bound} over Q(sqrt {exp.d}) not divisible "
                f"by {m_k}")
        violations.extend(
            Violation(0, 0, 0, frozenset(), f"{rec.label}: {msg}")
            for msg in torsion_failures
        )
        out.append({
            "label": rec.label,
            "d": exp.d,
            "torsion_q": str(tq_claim),
            "torsion_k": str(tk_claim),
            "primes": table.total,
            "rows_ok": rep.passed,
            "torsion_ok": not torsion_failures,
            "violations": tuple(violations),
        })
    return out


@main.command(name="corpus-verify")
@_format_option
@click.option("--max-prime", default=10000, show_default=True)
@click.option("--offline", is_flag=True, help=_OFFLINE_HELP)
@click.option("--cache-dir", default=None, type=click.Path())
@click.option("--threads", default=1, show_default=True)
@guarded
def corpus_verify_cmd(fmt, max_prime, offline, cache_dir, threads):
    """Verify every bundled survey row and its torsion columns."""
    rows = _corpus_rows(max_prime, cache_dir, threads)
    headers = ("label", "torsion Q", "torsion K", "d", "primes", "rows",
               "torsion")
    shown = [
        (r["label"], r["torsion_q"], r["torsion_k"], r["d"], r["primes"],
         "ok" if r["rows_ok"] else "FAIL",
         "ok" if r["torsion_ok"] else "FAIL")
        for r in rows
    ]
    bad = [
        (v.p, v.count, v.observed,
         " ".join(str(x) for x in sorted(v.allowed)), v.context)
        for r in rows for v in r["violations"]
    ]
    payload = _payload("corpus-verify", max_prime=max_prime, passed=not bad, rows=[
        {
            **r,
            "violations": [
                {"p": v.p, "points": v.count, "residue": v.observed,
                 "allowed": sorted(v.allowed), "context": v.context}
                for v in r["violations"]
            ],
        }
        for r in rows
    ])
    if bad:
        vh = ("p", "points", "residue", "allowed", "context")
        tail = ["", _md_table(vh, bad)]
        if fmt == "csv":
            # one csv document: the violations, each context naming its label
            headers, shown = vh, bad
    else:
        tail = ["", f"all {len(rows)} rows verified up to {max_prime}"]
    _emit(fmt, payload, headers, shown, tail=tail)
    return 1 if bad else 0


if __name__ == "__main__":
    main()
