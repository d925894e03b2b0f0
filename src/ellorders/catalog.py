"""Curve ingestion: parsing, the bundled corpus, and label resolution.

Three ways a curve enters the package: typed coefficients (parse_curve),
the corpus shipped with the package (bundled_corpus), or a Cremona-style
label looked up in a cache of curve files (resolve_label).  Resolution
reads the user's cache directory, then the cache bundled with the package,
which holds every labeled survey row; it never touches the network.  A
cache file is outside input, checked like any other.
"""

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .curve import curve, make_family
from .errors import CacheMissError, DataIntegrityError, InputError, ParseError
from .reduction import bad_primes
from .survey import ExpectedTable

CACHE_DIR_ENV = "ELLORDERS_CACHE_DIR"

# conductor, an optional dot (the LMFDB form "50.a3"), class letters, index
_LABEL_RE = re.compile(r"^(\d+)(\.?)([a-z]+\d+)$")
_ENTRY_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


@dataclass(frozen=True)
class Expectations:
    """Recorded claims about a corpus curve, exactly as stated at the source.

    Scans check against these; they are transcriptions, not recomputations,
    so a wrong claim stays wrong here and fails loudly downstream.
    """

    table: ExpectedTable | None = None
    torsion_Q: tuple | None = None
    torsion_K: tuple | None = None
    d: int | None = None
    gcd_all_primes: int | None = None
    gcd_quadratic: int | None = None


@dataclass(frozen=True)
class CurveRecord:
    label: str | None
    a_invariants: tuple | None
    source: str  # inline; resolver (bundled cache) | user (user cache)
    expected: Expectations | None = None
    needs_resolution: bool = False
    notes: tuple = ()

    def __post_init__(self):
        if self.source not in ("inline", "resolver", "user"):
            raise InputError(f"unknown record source {self.source!r}")
        if self.a_invariants is None and not self.needs_resolution and self.d is None:
            raise InputError("record without coefficients must carry a label to resolve "
                             "or describe a quadratic-field construction")

    @property
    def d(self):
        return self.expected.d if self.expected else None


# --- coefficient text ----------------------------------------------------

def parse_curve(s):
    """Parse "[a1,a2,a3,a4,a6]" with integer or fraction entries.

    Raises ParseError with the 0-based position of the offending character,
    and SingularModelError when the coefficients have vanishing discriminant.
    """
    if not isinstance(s, str):
        raise ParseError("curve text must be a string", position=0)
    text = s
    i = 0
    while i < len(text) and text[i].isspace():
        i += 1
    if i >= len(text) or text[i] != "[":
        raise ParseError("expected '[' to open the coefficient list", position=i)
    j = text.rfind("]")
    if j < i:
        raise ParseError("expected ']' to close the coefficient list", position=len(text))
    tail = text[j + 1:].strip()
    if tail:
        raise ParseError("trailing text after ']'", position=j + 1 + text[j + 1:].index(tail[0]))
    body = text[i + 1:j]
    entries = []
    start = i + 1
    for chunk in body.split(","):
        stripped = chunk.strip()
        offset = start + chunk.index(stripped) if stripped else start
        if not _ENTRY_RE.match(stripped):
            raise ParseError(f"bad coefficient {stripped!r}", position=offset)
        entries.append(Fraction(stripped))
        start += len(chunk) + 1
    if len(entries) != 5:
        raise ParseError(f"expected 5 coefficients, got {len(entries)}", position=i)
    return curve(entries)


def render_curve(c):
    """Inverse of parse_curve on its image: exact bracketed text."""
    return "[" + ",".join(str(Fraction(a)) for a in c.ainvs) + "]"


# --- the bundled corpus --------------------------------------------------

# Labeled survey rows: torsion over Q, torsion over Q(sqrt d), the count
# modulus m, the prime-class modulus, and the allowed count residues per
# coprime prime class.
_SURVEY_ROWS = {
    "175b2":   dict(tq=(1, 1), tk=(1, 3), d=5, m=3, a=5,
                    rows={1: {0}, 4: {0}, 2: {0, 1}, 3: {0, 1}}),
    "75a2":    dict(tq=(1, 1), tk=(1, 5), d=5, m=5, a=5,
                    rows={1: {0}, 4: {0}, 2: {1}, 3: {3}}),
    "208d1":   dict(tq=(1, 1), tk=(1, 7), d=-1, m=7, a=4,
                    rows={1: {0}, 3: {0, 1, 3, 4, 5, 6}}),
    "54a2":    dict(tq=(1, 1), tk=(1, 9), d=-3, m=9, a=3,
                    rows={1: {0}, 2: {0, 3, 6}}),
    "98a4":    dict(tq=(1, 2), tk=(1, 6), d=-7, m=6, a=7,
                    rows={1: {0}, 2: {0}, 4: {0}, 3: {0, 4}, 5: {0, 4}, 6: {0, 4}}),
    "2880r6":  dict(tq=(1, 2), tk=(1, 8), d=-6, m=8, a=24,
                    rows={1: {0}, 5: {0}, 7: {0}, 11: {0}, 19: {0}, 23: {0},
                          13: {4}, 17: {4}}),
    "150b3":   dict(tq=(1, 2), tk=(1, 10), d=5, m=10, a=5,
                    rows={1: {0}, 4: {0}, 2: {6}, 3: {8}}),
    "3150bk1": dict(tq=(1, 2), tk=(1, 16), d=-15, m=16, a=15,
                    rows={1: {0}, 2: {0}, 4: {0}, 8: {0},
                          7: {0, 4, 8, 12}, 11: {0, 4, 8, 12},
                          13: {0, 4, 8, 12}, 14: {0, 4, 8, 12}}),
    "14a3":    dict(tq=(1, 2), tk=(2, 2), d=-7, m=4, a=7,
                    rows={1: {0}, 2: {0}, 4: {0}, 3: {0, 2}, 5: {0, 2}, 6: {0, 2}}),
    "36a3":    dict(tq=(1, 2), tk=(2, 6), d=-3, m=12, a=3,
                    rows={1: {0}, 2: {0, 6}}),
    "450a3":   dict(tq=(1, 2), tk=(2, 10), d=-15, m=20, a=15,
                    rows={1: {0}, 2: {0}, 4: {0}, 8: {0},
                          7: {6, 16}, 11: {4, 14}, 13: {8, 18}, 14: {0, 10}}),
    "50a3":    dict(tq=(1, 3), tk=(1, 15), d=5, m=15, a=5,
                    rows={1: {0}, 4: {0}, 3: {3}, 2: {6}}),
    "19a1":    dict(tq=(1, 3), tk=(3, 3), d=-3, m=9, a=3,
                    rows={1: {0}, 2: {0, 3, 6}}),
    "17a1":    dict(tq=(1, 4), tk=(2, 4), d=-1, m=8, a=4,
                    rows={1: {0}, 3: {0, 4}}),
    "192c6":   dict(tq=(1, 4), tk=(2, 8), d=-2, m=16, a=8,
                    rows={1: {0}, 3: {0}, 5: {4, 12}, 7: {0, 8}}),
    "150c3":   dict(tq=(1, 4), tk=(2, 12), d=-15, m=24, a=15,
                    rows={1: {0}, 2: {0}, 4: {0}, 8: {0},
                          11: {0, 12}, 14: {0, 12}, 7: {4, 16}, 13: {4, 16}}),
    "50b1":    dict(tq=(1, 5), tk=(1, 15), d=5, m=15, a=5,
                    rows={1: {0}, 4: {0}, 2: {0, 10}, 3: {0, 10}}),
    "14a4":    dict(tq=(1, 6), tk=(2, 6), d=-7, m=12, a=7,
                    rows={1: {0}, 2: {0}, 4: {0}, 3: {0, 6}, 5: {0, 6}, 6: {0, 6}}),
    "14a1":    dict(tq=(1, 6), tk=(3, 6), d=-3, m=18, a=3,
                    rows={1: {0}, 2: {0, 6, 12}}),
    "15a4":    dict(tq=(1, 8), tk=(2, 8), d=-1, m=16, a=4,
                    rows={1: {0}, 3: {0, 8}}),
    "63a2":    dict(tq=(2, 2), tk=(2, 8), d=-3, m=16, a=3,
                    rows={1: {0}, 2: {0, 4, 8, 12}}),
    "960o6":   dict(tq=(2, 2), tk=(2, 12), d=6, m=24, a=24,
                    rows={1: {0}, 5: {0}, 19: {0}, 23: {0},
                          7: {4, 16}, 13: {4, 16}, 11: {0, 12}, 17: {0, 12}}),
    "15a3":    dict(tq=(2, 4), tk=(2, 8), d=5, m=16, a=5,
                    rows={1: {0}, 4: {0}, 2: {0, 8}, 3: {0, 8}}),
    "90c6":    dict(tq=(2, 6), tk=(2, 12), d=6, m=24, a=24,
                    rows={1: {0}, 5: {0}, 19: {0}, 23: {0},
                          7: {0, 12}, 11: {0, 12}, 13: {0, 12}, 17: {0, 12}}),
}


def _row_expectations(label):
    row = _SURVEY_ROWS[label]
    table = ExpectedTable(row["m"], row["a"],
                          {s: frozenset(v) for s, v in row["rows"].items()})
    return Expectations(table=table, torsion_Q=row["tq"], torsion_K=row["tk"],
                        d=row["d"])


def _inline(ainvs, expected=None, notes=()):
    return CurveRecord(label=None,
                       a_invariants=tuple(Fraction(a) for a in ainvs),
                       source="inline", expected=expected, notes=tuple(notes))


def _twelve_twenty_table():
    rows = {s: frozenset({0}) for s in (1, 9, 11, 13, 17, 19)}
    rows.update({s: frozenset({6}) for s in (3, 7)})
    return ExpectedTable(12, 20, rows)


def bundled_corpus():
    """Every curve shipped with the package, in a fixed order.

    Printed sample equations come with their stated expectations; the
    labeled survey rows are stubs whose coefficients live in the bundled
    resolver cache, flagged needs_resolution.
    """
    out = []
    for name, t in (("kkp", 1), ("kkp", 2), ("family3", 1), ("family3", 2),
                    ("family5", 1), ("family5", 2)):
        c = make_family(name, t)
        out.append(_inline(c.ainvs, notes=(f"family {name} sample at t={t}",)))
    out.append(_inline([1, -1, 1, -199, 510],
                       Expectations(torsion_Q=(1, 4), gcd_all_primes=2)))
    out.append(_inline([0, 1, 0, -333, -3537],
                       Expectations(gcd_all_primes=3)))
    out.append(_inline([1, -1, 0, -1773, -5270],
                       Expectations(torsion_Q=(2, 2), gcd_all_primes=4),
                       notes=("shipped expectations transcribe the stated claims; "
                              "direct computation gives trivial torsion and gcd 1 "
                              "for these coefficients",
                              "7 is a good prime with N_7 = 9, which refutes both "
                              "claims: the gcd divides gcd(N_2, N_7) = gcd(2, 9) = 1, "
                              "and an odd N_7 leaves no rational 2-torsion",
                              "the only single-character edit with Z/2 x Z/2 torsion "
                              "is a6 = -5720, whose gcd is 2 because N_2 = 2, so no "
                              "single typo reconciles both claims")))
    out.append(_inline(make_family("kubert5", 1).ainvs,
                       Expectations(gcd_all_primes=1)))
    out.append(_inline([1, -1, 0, -37, -78],
                       Expectations(gcd_all_primes=2),
                       notes=("paired with the next entry: equal counts at every prime",)))
    out.append(_inline([-1, -1, 0, -2, -1],
                       Expectations(gcd_all_primes=2),
                       notes=("paired with the previous entry",)))
    out.append(_inline([0, 0, 0, -12, -11],
                       Expectations(table=_twelve_twenty_table())))
    out.append(_inline([0, 0, 0, -372, 2761],
                       Expectations(table=_twelve_twenty_table()),
                       notes=("isogenous to [0,0,0,-12,-11]",)))
    out.append(_inline([1, 1, 0, -700, 34000],
                       Expectations(table=_row_expectations("150b3").table,
                                    torsion_Q=(1, 2), torsion_K=(1, 10), d=5)))
    out.append(_inline([0, 0, 0, 20148, 586096],
                       Expectations(torsion_Q=(1, 2), torsion_K=(1, 8), d=-6)))
    out.append(_inline([1, -1, 1, 47245, -2990253],
                       Expectations(torsion_Q=(1, 2), torsion_K=(1, 16), d=-15)))
    out.append(CurveRecord(label=None, a_invariants=None, source="inline",
                           expected=Expectations(d=33, gcd_quadratic=3),
                           notes=("curve over Q(sqrt 33) with everywhere good "
                                  "reduction; built by curve.everywhere_good_33",)))
    out.append(CurveRecord(label=None, a_invariants=None, source="inline",
                           expected=Expectations(d=6, gcd_quadratic=6),
                           notes=("curve over Q(sqrt 6) with everywhere good "
                                  "reduction; built by curve.everywhere_good_6",)))
    for label in _SURVEY_ROWS:
        out.append(CurveRecord(label=label, a_invariants=None, source="inline",
                               expected=_row_expectations(label),
                               needs_resolution=True))
    return out


def as_curve(record):
    """The CurveQ behind a record; records without coefficients must be
    resolved (or constructed, for the quadratic-field entries) first."""
    if record.a_invariants is None:
        raise InputError("record has no coefficients; resolve its label first")
    return curve(list(record.a_invariants))


# --- label resolution ----------------------------------------------------

def _normalize_label(label):
    if not isinstance(label, str):
        raise ParseError("label must be a string", position=0)
    text = label.strip().lower()
    m = _LABEL_RE.match(text)
    if not m:
        bad = next((k for k, ch in enumerate(text) if not ch.isalnum()), 0)
        raise ParseError(f"not a curve label: {label!r}", position=bad)
    conductor, dot, rest = m.groups()
    # shim for dotted LMFDB-style labels such as "50.a3"
    note = f"normalized from {text!r}" if dot else None
    return conductor + rest, conductor, note


def _user_cache_dir(cache_dir):
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ellorders"


def _entry_from_json(label, raw):
    """The 5 coefficient strings of a cache file <label>.json: a JSON object
    whose fields label (this one), ainvs, fetched_at and source are all set."""
    # raw is bytes: json.loads decodes it, so bad UTF-8 is a ValueError too
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise DataIntegrityError(f"cache entry for {label} is not JSON: {exc}")
    fields = {"label", "ainvs", "fetched_at", "source"}
    if not isinstance(data, dict) or not fields <= set(data):
        raise DataIntegrityError(f"cache entry for {label} is missing fields")
    if data["label"] != label:
        raise DataIntegrityError(
            f"cache entry for {label} claims label {data['label']!r}")
    ainvs = data["ainvs"]
    if not isinstance(ainvs, list) or len(ainvs) != 5:
        raise DataIntegrityError(f"cache entry for {label} needs 5 coefficients")
    return tuple(str(a) for a in ainvs)


def _cache_lookup(label, cache_dir):
    """(coefficient strings, the record source naming the cache that held
    them), or None."""
    path = _user_cache_dir(cache_dir) / f"{label}.json"
    if path.is_file():
        return _entry_from_json(label, path.read_bytes()), "user"
    bundled = resources.files("ellorders") / "data" / "curve_cache" / f"{label}.json"
    try:
        raw = bundled.read_bytes()
    except (FileNotFoundError, OSError):
        return None
    return _entry_from_json(label, raw), "resolver"


def _validated_record(label, entry, source, conductor_part, note):
    try:
        ainvs = tuple(Fraction(a) for a in entry)
        c = curve(list(ainvs))
    except (ValueError, ZeroDivisionError, InputError) as exc:
        raise DataIntegrityError(f"cache entry for {label} is not a curve: {exc}")
    conductor = int(conductor_part)
    for p in sorted(bad_primes(c)):
        if conductor % p:
            raise DataIntegrityError(
                f"resolved {label}: bad prime {p} does not divide "
                f"the label's conductor part {conductor}")
    notes = (note,) if note else ()
    expected = _row_expectations(label) if label in _SURVEY_ROWS else None
    return CurveRecord(label=label, a_invariants=ainvs, source=source,
                       expected=expected, notes=notes)


def resolve_label(label, offline=False, *, cache_dir=None):
    """Resolve a Cremona-style label to a CurveRecord from the caches.

    Reads the user cache directory (cache_dir, else $ELLORDERS_CACHE_DIR,
    else ~/.cache/ellorders), then the bundled cache; a label in neither
    raises CacheMissError.  Nothing is fetched or written, so offline is
    accepted and ignored.  The resolved curve's bad primes must divide the
    label's conductor part.  The record's source is "user" when the user
    cache answered and "resolver" when the bundled one did.
    """
    norm, conductor_part, note = _normalize_label(label)
    found = _cache_lookup(norm, cache_dir)
    if found is None:
        raise CacheMissError(
            f"label {norm} is not cached; to add it, write {norm}.json into "
            f"{_user_cache_dir(cache_dir)}: a JSON object with the fields "
            f"label, ainvs (5 coefficients), fetched_at and source")
    return _validated_record(norm, *found, conductor_part, note)
