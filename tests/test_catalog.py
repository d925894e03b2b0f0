import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ellorders.catalog import (
    CurveRecord,
    as_curve,
    bundled_corpus,
    parse_curve,
    render_curve,
    resolve_label,
)
from ellorders.curve import curve, invariants
from ellorders.errors import (
    CacheMissError,
    DataIntegrityError,
    InputError,
    ParseError,
    SingularModelError,
)
from ellorders.reduction import bad_primes
from ellorders.torsion import torsion_over_Q


LABEL_RE = re.compile(r"^\d+[a-z]+\d+$")


class TestParseCurve:
    def test_integer_entries(self):
        c = parse_curve("[0,0,0,-12,-11]")
        assert c.ainvs == (0, 0, 0, -12, -11)

    def test_ten_torsion_example(self):
        c = parse_curve("[1,1,0,-700,34000]")
        assert c.ainvs == (1, 1, 0, -700, 34000)

    def test_fraction_entries(self):
        c = parse_curve("[1/2,0,-3/4,0,1]")
        assert c.ainvs[0] == Fraction(1, 2)
        assert c.ainvs[2] == Fraction(-3, 4)

    def test_whitespace_tolerated(self):
        assert parse_curve(" [ 1 , 0 , 1 , 4 , -6 ] ").ainvs == (1, 0, 1, 4, -6)

    def test_singular_model_rejected(self):
        with pytest.raises(SingularModelError):
            parse_curve("[0,0,0,0,0]")

    def test_missing_bracket_position(self):
        with pytest.raises(ParseError) as exc:
            parse_curve("1,2,3,4,5]")
        assert exc.value.position == 0

    def test_bad_entry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_curve("[1,2,3,4,x]")
        assert exc.value.position == "[1,2,3,4,x]".index("x")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_curve("[1,2,3,4,5/0]")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_curve("[1,2,3]")
        with pytest.raises(ParseError):
            parse_curve("[1,2,3,4,5,6]")

    def test_trailing_text(self):
        with pytest.raises(ParseError) as exc:
            parse_curve("[1,2,3,4,5] x")
        assert exc.value.position > 10

    def test_non_string(self):
        with pytest.raises(ParseError):
            parse_curve([1, 2, 3, 4, 5])


class TestRenderCurve:
    def test_plain(self):
        assert render_curve(curve([1, -1, 1, -199, 510])) == "[1,-1,1,-199,510]"

    def test_fractions_survive(self):
        c = curve([Fraction(1, 2), 0, 0, -1, 0])
        assert parse_curve(render_curve(c)).ainvs == c.ainvs

    def test_round_trip_over_corpus(self):
        for rec in bundled_corpus():
            if rec.a_invariants is None:
                continue
            c = as_curve(rec)
            assert parse_curve(render_curve(c)).ainvs == c.ainvs


class TestBundledCorpus:
    def test_deterministic(self):
        assert bundled_corpus() == bundled_corpus()

    def test_gcd_three_curve_present(self):
        match = [r for r in bundled_corpus()
                 if r.a_invariants == (0, 1, 0, -333, -3537)]
        assert len(match) == 1
        assert match[0].expected.gcd_all_primes == 3

    def test_twenty_four_labeled_rows(self):
        stubs = [r for r in bundled_corpus() if r.needs_resolution]
        assert len(stubs) == 24
        for rec in stubs:
            assert LABEL_RE.match(rec.label)
            assert rec.a_invariants is None
            assert rec.expected.table is not None
            assert rec.expected.torsion_Q is not None
            assert rec.expected.torsion_K is not None
            assert rec.expected.d is not None
        assert len({r.label for r in stubs}) == 24

    def test_row_moduli_are_consistent(self):
        # the count modulus always matches the claimed field torsion order
        for rec in bundled_corpus():
            if not rec.needs_resolution:
                continue
            n1, n2 = rec.expected.torsion_K
            assert rec.expected.table.m == n1 * n2
            for s in rec.expected.table.rows:
                assert 0 < s < rec.expected.table.N

    def test_non_stub_entries_are_nonsingular(self):
        for rec in bundled_corpus():
            if rec.a_invariants is None:
                continue
            assert invariants(as_curve(rec)).disc != 0

    def test_sources_all_inline(self):
        assert {r.source for r in bundled_corpus()} == {"inline"}

    def test_claims_kept_verbatim_even_when_wrong(self):
        # the corpus transcribes stated claims; this entry's are known bad
        match = [r for r in bundled_corpus()
                 if r.a_invariants == (1, -1, 0, -1773, -5270)]
        assert len(match) == 1
        assert match[0].expected.gcd_all_primes == 4
        assert match[0].expected.torsion_Q == (2, 2)
        assert match[0].notes

    def test_quadratic_field_entries(self):
        quads = [r for r in bundled_corpus()
                 if r.a_invariants is None and not r.needs_resolution]
        assert sorted((r.expected.d, r.expected.gcd_quadratic) for r in quads) \
            == [(6, 6), (33, 3)]

    def test_as_curve_refuses_stub(self):
        stub = next(r for r in bundled_corpus() if r.needs_resolution)
        with pytest.raises(InputError):
            as_curve(stub)

    def test_record_source_validated(self):
        with pytest.raises(InputError):
            CurveRecord(label=None, a_invariants=(0, 0, 0, -1, 0), source="web")


class TestLabelSyntax:
    def test_invalid_label_is_parse_error(self):
        with pytest.raises(ParseError):
            resolve_label("zzz9", offline=True)

    def test_empty_label(self):
        with pytest.raises(ParseError):
            resolve_label("", offline=True)

    def test_non_string_label(self):
        with pytest.raises(ParseError):
            resolve_label(17, offline=True)

    def test_dotted_shim_notes_the_rewrite(self):
        rec = resolve_label("50.a3", offline=True)
        assert rec.label == "50a3"
        assert any("50.a3" in note for note in rec.notes)

    def test_case_insensitive(self):
        assert resolve_label("17A1", offline=True).label == "17a1"

    @pytest.mark.parametrize("label, dot", [
        ("1.4a1", 1), (".14a1", 0), ("14a1.", 4), ("14.a.1", 2), ("1.4.a.1", 1),
    ])
    def test_dot_only_after_the_conductor(self, label, dot):
        # each of these names 14a1 once every dot is dropped
        with pytest.raises(ParseError) as exc:
            resolve_label(label, offline=True)
        assert exc.value.position == dot


class TestOfflineResolution:
    def test_50a3_has_three_torsion(self):
        rec = resolve_label("50a3", offline=True)
        assert rec.source == "resolver"
        assert not rec.needs_resolution
        assert torsion_over_Q(as_curve(rec)).structure == (1, 3)

    def test_17a1_support(self):
        rec = resolve_label("17a1", offline=True)
        assert bad_primes(as_curve(rec)) <= {17}
        assert rec.a_invariants == (1, -1, 1, -1, -14)

    def test_printed_vectors_match_fixtures(self):
        assert resolve_label("150b3", offline=True).a_invariants \
            == (1, 1, 0, -700, 34000)
        assert resolve_label("2880r6", offline=True).a_invariants \
            == (0, 0, 0, 20148, 586096)
        assert resolve_label("3150bk1", offline=True).a_invariants \
            == (1, -1, 1, 47245, -2990253)

    def test_expected_rows_attached(self):
        rec = resolve_label("150b3", offline=True)
        assert rec.expected.table.m == 10
        assert rec.expected.table.rows[2] == frozenset({6})

    def test_every_row_resolves_with_matching_invariants(self):
        for stub in bundled_corpus():
            if not stub.needs_resolution:
                continue
            rec = resolve_label(stub.label, offline=True)
            c = as_curve(rec)
            assert torsion_over_Q(c).structure == stub.expected.torsion_Q, stub.label
            conductor = int(re.match(r"\d+", stub.label).group())
            assert all(conductor % p == 0 for p in bad_primes(c)), stub.label

    def test_offline_work_never_imports_urllib_request(self, tmp_path):
        # urllib.request loads ssl, http and email: about 7 MB resident;
        # the process pool of a parallel survey loads multiprocessing, 2 MB
        code = (
            "import sys\n"
            "from ellorders import cli\n"
            "from ellorders.catalog import resolve_label\n"
            "resolve_label('150b3', offline=True)\n"
            "from ellorders.errors import CacheMissError\n"
            "try:\n"
            "    resolve_label('9999z9', cache_dir=sys.argv[1])\n"
            "except CacheMissError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('a miss resolved')\n"
            "loaded = [m for m in ('urllib.request', 'ssl', 'http.client',\n"
            "                      'concurrent.futures.process', 'multiprocessing')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


class TestCacheBehavior:
    @staticmethod
    def _write_entry(root, label, ainvs):
        (root / f"{label}.json").write_text(json.dumps(
            {"label": label, "ainvs": [str(a) for a in ainvs],
             "fetched_at": "2024-01-01T00:00:00+00:00", "source": "hand"}))

    def test_bundled_cache_needs_no_fetcher(self, tmp_path):
        # empty user cache falls back to the bundled fixtures
        rec = resolve_label("17a1", offline=True, cache_dir=tmp_path)
        assert rec.a_invariants == (1, -1, 1, -1, -14)
        assert rec.source == "resolver"

    def test_user_cache_hit_reports_user(self, tmp_path):
        # the user's file wins over the bundled one and is named as the source
        self._write_entry(tmp_path, "17a1", [1, -1, 1, -1, -14])
        rec = resolve_label("17a1", cache_dir=tmp_path)
        assert rec.a_invariants == (1, -1, 1, -1, -14)
        assert rec.source == "user"

    def test_user_cache_consulted_first(self, tmp_path):
        (tmp_path / "17a1.json").write_text("{not json")
        with pytest.raises(DataIntegrityError):
            resolve_label("17a1", offline=True, cache_dir=tmp_path)

    def test_wrong_label_inside_entry(self, tmp_path):
        (tmp_path / "17a1.json").write_text(json.dumps(
            {"label": "11a1", "ainvs": ["0"] * 5, "fetched_at": "x", "source": "y"}))
        with pytest.raises(DataIntegrityError):
            resolve_label("17a1", offline=True, cache_dir=tmp_path)

    def test_support_validation_rejects_foreign_curve(self, tmp_path):
        # bad primes {2,3,5} cannot come from conductor 11
        self._write_entry(tmp_path, "11a1", [0, 0, 0, -12, -11])
        with pytest.raises(DataIntegrityError):
            resolve_label("11a1", cache_dir=tmp_path)

    def test_offline_miss_has_instructions(self, tmp_path):
        with pytest.raises(CacheMissError) as exc:
            resolve_label("9999z9", offline=True, cache_dir=tmp_path)
        assert "9999z9.json" in str(exc.value)
        assert str(tmp_path) in str(exc.value)

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ELLORDERS_CACHE_DIR", str(tmp_path))
        self._write_entry(tmp_path, "37a1", [0, 0, 1, -1, 0])
        rec = resolve_label("37a1")
        assert rec.a_invariants == (0, 0, 1, -1, 0)
