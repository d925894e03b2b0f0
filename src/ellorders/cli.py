"""Command-line front end.

One subcommand per operation.  Every report goes to stdout, through _emit,
as md (the default), csv or json; diagnostics go to stderr.  CSV output is
RFC 4180-quoted, so a field with a comma or a quote reads back whole.
Exit codes follow the package convention: 0 success, 1 a verification found
violations, 2 usage, 3 resource or network trouble.  Reports depend only on
the flags, so identical invocations give identical bytes.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

import click

from .catalog import as_curve, bundled_corpus, parse_curve, render_curve, resolve_label
from .curve import make_family, quadratic_twist
from .errors import (
    DataIntegrityError,
    InputError,
    NetworkError,
    NotFoundError,
    ParseError,
    ResourceError,
)
from .reduction import local_data, prime_walk, quadratic_walk
from .survey import (
    SurveySpec,
    Violation,
    ScanReport,
    bad_primes,
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
    quadratic_torsion_bound,
    torsion_over_Q,
)
from .arith import legendre

SCAN_CEILING_ENV = "ELLORDERS_SCAN_CEILING"

# --d on the command line maps onto whatever the family calls its parameter
_FAMILY_PARAM = {
    "kkp": "t",
    "family3": "t",
    "family5": "t",
    "kubert5": "lam",
    "e1k": "k",
    "e2k": "k",
}


def _checked_bound(x: int) -> int:
    cap = os.environ.get(SCAN_CEILING_ENV)
    if cap is not None:
        try:
            cap_val = int(cap)
        except ValueError:
            raise InputError(f"{SCAN_CEILING_ENV} must be an integer, got {cap!r}")
        if x > cap_val:
            raise ResourceError(
                f"prime bound {x} exceeds the configured ceiling {cap_val}"
            )
    return x


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


def _load_curve(curve_text, label, family, t, offline, cache_dir):
    picked = [x for x in (curve_text, label, family) if x is not None]
    if len(picked) != 1:
        raise click.UsageError("give exactly one of --curve, --label, --family")
    if curve_text is not None:
        return parse_curve(curve_text)
    if label is not None:
        return as_curve(resolve_label(label, offline=offline, cache_dir=cache_dir))
    if t is None:
        raise click.UsageError(f"--family {family} needs --t")
    params = _parse_params(t)
    if len(params) != 1:
        raise click.UsageError("this command takes a single --t value")
    key = _FAMILY_PARAM.get(family, "t")
    return make_family(family, **{key: params[0]})


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


def _table(fmt, headers, rows) -> str:
    return (_csv if fmt == "csv" else _md_table)(headers, rows)


def _emit(fmt, payload, headers=(), rows=(), lines=(), tail=()):
    """Write one report to stdout.

    json writes the payload; md and csv write the prose lines, then the
    table when there are headers, then the tail lines.
    """
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    out = list(lines)
    if headers:
        out.append(_table(fmt, headers, rows))
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
        except (ResourceError, NetworkError, NotFoundError) as exc:
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


def _curve_command(fn):
    """The curve options, --format and guarded; fn gets the loaded curve c."""

    @functools.wraps(fn)
    def wrapper(curve_text, label, family, t, offline, cache_dir, **kwargs):
        c = _load_curve(curve_text, label, family, t, offline, cache_dir)
        return fn(c, **kwargs)

    cmd = _format_option(guarded(wrapper))
    cmd = click.option("--curve", "curve_text", default=None,
                       help="coefficients, e.g. \"[0,0,0,-12,-11]\"")(cmd)
    cmd = click.option("--label", default=None, help="curve label to resolve")(cmd)
    cmd = click.option("--family", default=None,
                       type=click.Choice(sorted(_FAMILY_PARAM)),
                       help="parametrized family name")(cmd)
    cmd = click.option("--t", default=None, help="family parameter")(cmd)
    cmd = click.option("--offline", is_flag=True, help="never touch the network")(cmd)
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
    _checked_bound(max_prime)
    bad = bad_primes(c)
    rows = [(p, local_data(c, p).rtype.value, n, None) if p in bad
            else (p, "good", n, p + 1 - n)
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
    _checked_bound(max_prime)
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
        _checked_bound(max_prime)
        quad = payload["quadratic"] = {
            "d": d,
            "odd_order": odd_torsion_over_quadratic(c, d),
            "order_bound": quadratic_torsion_bound(c, d, max_prime),
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
    _checked_bound(max_prime)
    tw = quadratic_twist(c, d)
    skip = bad_primes(c) | bad_primes(tw)
    keep = lambda p: p not in skip and d % p
    checked = 0
    violations = []
    for (p, n), (_, n_tw) in zip(prime_walk(c, 3, max_prime, keep),
                                 prime_walk(tw, 3, max_prime, keep)):
        checked += 1
        if legendre(d % p, p) == 1:
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
    _emit(fmt, payload, headers if violations else (), violations, lines)
    return 1 if violations else 0


@main.command()
@_curve_command
@click.option("--mod", "m", type=int, required=True, help="count modulus")
@click.option("--class-mod", "n", type=int, required=True,
              help="prime-class modulus")
@click.option("--max-prime", default=1000, show_default=True)
@click.option("--threads", default=1, show_default=True)
def survey(c, fmt, m, n, max_prime, threads):
    """Bucket point-count residues against prime classes."""
    _checked_bound(max_prime)
    table = congruence_survey(c, SurveySpec(m, n, max_prime), workers=threads)
    payload = {**json.loads(table.as_json()), "schema": "ellorders.survey/1"}
    if fmt == "csv":
        # every (p class, count class) cell, as CongruenceTable.as_csv
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
    _checked_bound(max_prime)
    _emit_gcd(fmt, "gcd", c, gcd_orders(c, max_prime), max_prime=max_prime)


@main.command(name="gcd-quadratic")
@_curve_command
@click.option("--d", "d", type=int, required=True, help="field is Q(sqrt d)")
@click.option("--max-prime", default=2000, show_default=True)
def gcd_quadratic(c, fmt, d, max_prime):
    """gcd of residue-field orders over Q(sqrt d)."""
    _checked_bound(max_prime)
    _emit_gcd(fmt, "gcd-quadratic", c, gcd_orders_quadratic(c, d, max_prime),
              d=d, max_prime=max_prime)


def _emit_primes(fmt, command, c, m, max_prime, found):
    """The prime-list commands; found holds (p, p mod m or None)."""
    payload = _payload(command, c.ainvs, max_prime=max_prime, mod=m,
                       primes=[{"p": p, "residue": r} for p, r in found])
    if m:
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
    _checked_bound(max_prime)
    found = scan_supersingular(c, max_prime, moduli=(m,) if m else ())
    _emit_primes(fmt, "supersingular", c, m, max_prime,
                 [(p, res[0] if res else None) for p, res in found])


@main.command()
@_curve_command
@click.option("--mod", "m", type=int, default=None,
              help="annotate primes with their class mod this")
@click.option("--max-prime", default=1000, show_default=True)
def anomalous(c, fmt, m, max_prime):
    """Good primes dividing their own point count."""
    _checked_bound(max_prime)
    found = scan_anomalous(c, max_prime, modulus=m or 1)
    _emit_primes(fmt, "anomalous", c, m, max_prime,
                 [(p, res if m else None) for p, res in found])


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
    _checked_bound(max_prime)
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
    _emit(fmt, payload, () if report.passed else headers, rows, lines)
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
@click.option("--offline", is_flag=True, help="never touch the network")
@click.option("--cache-dir", default=None, type=click.Path())
@guarded
def resolve(fmt, label, offline, cache_dir):
    """Resolve a curve label to coefficients via the cache or resolver."""
    rec = resolve_label(label, offline=offline, cache_dir=cache_dir)
    pairs = [("label", rec.label), ("curve", render_curve(as_curve(rec))),
             ("source", rec.source)]
    pairs.extend(("note", note) for note in rec.notes)
    _emit_record(fmt, _payload("resolve", rec.a_invariants, label=rec.label,
                               source=rec.source, notes=list(rec.notes)),
                 pairs)


# quadratic order bound horizon for the corpus torsion columns
_CORPUS_BOUND_PRIME = 300


def _corpus_rows(X, offline, cache_dir, threads):
    out = []
    for rec in bundled_corpus():
        if not rec.needs_resolution:
            continue
        resolved = resolve_label(rec.label, offline=offline, cache_dir=cache_dir)
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
        bound = quadratic_torsion_bound(c, exp.d, _CORPUS_BOUND_PRIME)
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
            "matched": rep.matched,
            "violations": tuple(violations),
        })
    return out


def corpus_verify(X: int, *, offline: bool = False, cache_dir=None,
                  threads: int = 1) -> ScanReport:
    """Verify every bundled survey row plus its torsion columns."""
    rows = _corpus_rows(X, offline, cache_dir, threads)
    violations = tuple(v for r in rows for v in r["violations"])
    matched = tuple(p for r in rows for p in r["matched"])
    notes = tuple(
        f"{r['label']}: {r['primes']} primes, "
        f"rows {'ok' if r['rows_ok'] else 'FAIL'}, "
        f"torsion {'ok' if r['torsion_ok'] else 'FAIL'}"
        for r in rows
    )
    return ScanReport(
        passed=not violations,
        matched=matched,
        violations=violations,
        densities={},
        total=sum(r["primes"] for r in rows),
        notes=notes,
    )


@main.command(name="corpus-verify")
@_format_option
@click.option("--max-prime", default=10000, show_default=True)
@click.option("--offline", is_flag=True, help="never touch the network")
@click.option("--cache-dir", default=None, type=click.Path())
@click.option("--threads", default=1, show_default=True)
@guarded
def corpus_verify_cmd(fmt, max_prime, offline, cache_dir, threads):
    """Verify every bundled survey row and its torsion columns."""
    _checked_bound(max_prime)
    rows = _corpus_rows(max_prime, offline, cache_dir, threads)
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
            **{k: v for k, v in r.items() if k != "matched"},
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
        tail = ["", _table(fmt, vh, bad)]
    else:
        tail = ["", f"all {len(rows)} rows verified up to {max_prime}"]
    _emit(fmt, payload, headers, shown, tail=tail)
    return 1 if bad else 0


if __name__ == "__main__":
    main()
