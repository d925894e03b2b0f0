import csv
import io
import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from ellorders.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kw):
    return runner.invoke(main, list(args), **kw)


# 150b3 carries 150c3's coefficients here, so corpus-verify fails
SWAPPED_CACHE = str(Path(__file__).parent / "data" / "cache_150b3_as_150c3")


class TestSurveyCommand:
    def test_mod12_table_has_two_rows(self, runner):
        res = invoke(runner, "survey", "--curve", "[0,0,0,-12,-11]",
                     "--mod", "12", "--class-mod", "20",
                     "--max-prime", "10000", "--format", "md")
        assert res.exit_code == 0
        body = [ln for ln in res.output.splitlines() if ln.startswith("|")]
        assert len(body) == 4  # header, rule, two data rows
        assert "| 0 | 1, 9, 11, 13, 17, 19 |" in body[2]
        assert "| 6 | 3, 7 |" in body[3]

    def test_isogenous_curve_same_table_shape(self, runner):
        res = invoke(runner, "survey", "--curve", "[0,0,0,-372,2761]",
                     "--mod", "12", "--class-mod", "20",
                     "--max-prime", "2000")
        assert res.exit_code == 0
        rows = [ln for ln in res.output.splitlines() if ln.startswith("|")]
        assert len(rows) == 4

    def test_csv_format(self, runner):
        res = invoke(runner, "survey", "--curve", "[0,0,0,-12,-11]",
                     "--mod", "12", "--class-mod", "20",
                     "--max-prime", "500", "--format", "csv")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "p_class,count_class,primes"
        assert all(len(ln.split(",")) == 3 for ln in lines[1:])

    def test_json_reparses_with_schema(self, runner):
        res = invoke(runner, "survey", "--curve", "[0,0,0,-12,-11]",
                     "--mod", "12", "--class-mod", "20",
                     "--max-prime", "500", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["schema"] == "ellorders.survey/1"
        assert data["m"] == 12 and data["N"] == 20
        assert sum(r["primes"] for r in data["rows"]) == data["total"]

    def test_threads_byte_identical(self, runner):
        args = ["survey", "--curve", "[1,1,0,-700,34000]", "--mod", "10",
                "--class-mod", "5", "--max-prime", "3000", "--format", "json"]
        one = invoke(runner, *args, "--threads", "1")
        four = invoke(runner, *args, "--threads", "4")
        assert one.exit_code == four.exit_code == 0
        assert one.output == four.output

    def test_pool_has_at_most_one_process_per_block(self, runner, monkeypatch):
        # a fork pool starts all max_workers processes at the first job, so
        # 64 threads for the 5 blocks of 2048 primes to 10^5 must ask for 5
        # on 64 CPUs and for 3 on 3, and run serially on one CPU or when the
        # count is unknown; the recording executor maps in this process and
        # starts none
        import concurrent.futures
        import os

        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        args = ["survey", "--curve", "[1,1,0,-700,34000]", "--mod", "10",
                "--class-mod", "5", "--max-prime", "100000", "--format", "json"]
        serial = invoke(runner, *args).output
        for cpus, want in ((64, [5]), (3, [3]), (1, []), (None, [])):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            sizes.clear()
            pooled = invoke(runner, *args, "--threads", "64")
            assert pooled.exit_code == 0
            assert sizes == want, cpus
            assert pooled.output == serial

    def test_threads_below_one_exit_2(self, runner):
        args = ["survey", "--curve", "[0,0,0,-12,-11]", "--mod", "12",
                "--class-mod", "20", "--max-prime", "500"]
        for threads in ("0", "-3"):
            res = invoke(runner, *args, "--threads", threads)
            assert res.exit_code == 2, threads
            assert "worker" in res.output
        res = invoke(runner, "corpus-verify", "--max-prime", "100", "--threads", "0")
        assert res.exit_code == 2
        assert "worker" in res.output

    def test_repeat_invocations_byte_identical(self, runner):
        args = ["survey", "--curve", "[0,0,0,-12,-11]", "--mod", "12",
                "--class-mod", "20", "--max-prime", "1000", "--format", "csv"]
        assert invoke(runner, *args).output == invoke(runner, *args).output

    def test_usage_error_without_modulus(self, runner):
        res = invoke(runner, "survey", "--curve", "[0,0,0,-12,-11]")
        assert res.exit_code == 2


class TestGcdCommands:
    def test_printed_value_stated_example(self, runner):
        # the advertised invocation; the coefficients as printed give 1
        res = invoke(runner, "gcd", "--curve", "[1,1,1,-199,510]",
                     "--max-prime", "1000")
        assert res.exit_code == 0
        assert res.output == "1\n"

    def test_four_torsion_curve_gives_two(self, runner):
        res = invoke(runner, "gcd", "--curve", "[1,-1,1,-199,510]",
                     "--max-prime", "1000")
        assert res.exit_code == 0
        assert res.output == "2\n"

    def test_json_schema(self, runner):
        res = invoke(runner, "gcd", "--curve", "[0,1,0,-333,-3537]",
                     "--max-prime", "1000", "--format", "json")
        data = json.loads(res.output)
        assert data["schema"] == "ellorders.gcd/1"
        assert data["gcd"] == 3

    @pytest.mark.parametrize("command", ["gcd-quadratic", "extension"])
    def test_zero_d_is_a_usage_error(self, runner, command):
        # d = 0 names no field; every prime used to read as ramified
        res = invoke(runner, command, "--curve", "[1,1,0,-700,34000]",
                     "--d", "0")
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_quadratic_field_gcd(self, runner):
        res = invoke(runner, "gcd-quadratic", "--curve", "[1,-1,1,-1,-14]",
                     "--d", "-1", "--max-prime", "600")
        assert res.exit_code == 0
        assert int(res.output) % 4 == 0

    def test_family_input(self, runner):
        res = invoke(runner, "gcd", "--family", "kubert5", "--t", "1",
                     "--max-prime", "1000")
        assert res.exit_code == 0
        assert res.output == "1\n"


class TestCurveLoading:
    def test_exactly_one_source_required(self, runner):
        res = invoke(runner, "gcd", "--curve", "[1,-1,1,-199,510]",
                     "--label", "17a1")
        assert res.exit_code == 2

    def test_no_source_is_usage_error(self, runner):
        assert invoke(runner, "gcd").exit_code == 2

    def test_parse_error_exit_code(self, runner):
        res = invoke(runner, "gcd", "--curve", "[1,2,3]")
        assert res.exit_code == 2
        assert "error" in res.stderr

    def test_singular_curve_exit_code(self, runner):
        assert invoke(runner, "gcd", "--curve", "[0,0,0,0,0]").exit_code == 2

    def test_label_resolution_offline(self, runner):
        res = invoke(runner, "torsion", "--label", "17a1", "--offline")
        assert res.exit_code == 0
        assert "Z/4" in res.output

    def test_offline_miss_exit_code(self, runner, tmp_path):
        # resolution reads only caches, so --offline changes nothing
        for flags in (["--offline"], []):
            start = time.perf_counter()
            res = invoke(runner, "resolve", "--label", "9999z9", *flags,
                         "--cache-dir", str(tmp_path))
            assert res.exit_code == 3, flags
            assert time.perf_counter() - start < 2.0, flags
            assert "9999z9.json" in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("raw", [
        # an extra key beside a missing field
        json.dumps({"label": "17a1", "ainvs": ["1", "-1", "1", "-1", "-14"],
                    "note": "x"}).encode(),
        b'{"label": "17a1\xff"}',  # not UTF-8
    ], ids=["missing-field", "bad-utf8"])
    def test_malformed_user_cache_file_exits_1(self, runner, tmp_path, raw):
        (tmp_path / "17a1.json").write_bytes(raw)
        res = invoke(runner, "resolve", "--label", "17a1",
                     "--cache-dir", str(tmp_path))
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert res.stderr.startswith("error: cache entry for 17a1")

    @pytest.mark.parametrize("family", ["e1k", "e2k"])
    def test_non_integer_exponent_is_usage_error(self, runner, family):
        res = invoke(runner, "count", "--family", family, "--t", "3/2",
                     "--max-prime", "60")
        assert res.exit_code == 2
        assert "k must be an integer" in res.stderr

    def test_rational_family_parameter(self, runner):
        res = invoke(runner, "count", "--family", "kkp", "--t", "1/2",
                     "--max-prime", "60")
        assert res.exit_code == 0


class TestScanCommands:
    def test_count_table(self, runner):
        res = invoke(runner, "count", "--curve", "[0,0,0,-1,0]",
                     "--max-prime", "30", "--format", "csv")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "p,reduction,points,trace"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert rows["2"][1] != "good"  # disc is -2^6
        assert rows["7"][1] == "good"
        assert int(rows["7"][2]) == 8  # supersingular at 7: 7+1-0

    def test_local_kodaira(self, runner):
        res = invoke(runner, "local", "--curve", "[0,0,0,-1,0]",
                     "--format", "json")
        data = json.loads(res.output)
        assert data["schema"] == "ellorders.local/1"
        assert [r["p"] for r in data["rows"]] == [2]
        assert data["rows"][0]["reduction"] == "additive"

    def test_extension_split_and_inert(self, runner):
        res = invoke(runner, "extension", "--curve", "[1,-1,1,-1,-14]",
                     "--d", "-1", "--max-prime", "30", "--format", "json")
        data = json.loads(res.output)
        kinds = {r["p"]: r["splitting"] for r in data["rows"]}
        assert kinds[5] == "split" and kinds[7] == "inert"
        orders = {r["p"]: r["order"] for r in data["rows"]}
        assert all(orders[p] % 8 == 0 for p in orders)

    def test_twist_identity_holds(self, runner):
        res = invoke(runner, "twist", "--curve", "[0,0,0,-12,-11]",
                     "--d", "5", "--max-prime", "500")
        assert res.exit_code == 0
        assert "identity holds" in res.output

    def test_twist_counts_its_own_model(self, runner, monkeypatch):
        # the identity compares two independent counts: the twist's come
        # from its own model at every checked prime, not from the curve's
        # traces read back through the trace store
        from ellorders import cli
        from ellorders.curve import curve, quadratic_twist
        from ellorders.reduction import _ints

        ai_tw = _ints(quadratic_twist(curve([0, 0, 0, -12, -11]), 5))
        seen = []
        real = cli._count_chunk

        def spy(ai, primes):
            if ai == ai_tw:
                seen.extend(primes)
            return real(ai, primes)

        monkeypatch.setattr(cli, "_count_chunk", spy)
        res = invoke(runner, "twist", "--curve", "[0,0,0,-12,-11]", "--d", "5",
                     "--max-prime", "1000", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["checked"] == 165 and data["violations"] == []
        assert len(seen) == len(set(seen)) == 165
        assert all(p <= 1000 and p % 5 for p in seen)

    def test_supersingular_mod_annotation(self, runner):
        res = invoke(runner, "supersingular", "--curve", "[0,0,0,-1,0]",
                     "--max-prime", "500", "--mod", "4", "--format", "json")
        data = json.loads(res.output)
        assert data["schema"] == "ellorders.supersingular/1"
        assert all(r["residue"] == 3 for r in data["primes"])
        assert {r["p"] for r in data["primes"]} >= {7, 11, 19, 23}

    def test_anomalous_scan(self, runner):
        res = invoke(runner, "anomalous", "--label", "175b2", "--offline",
                     "--max-prime", "2000", "--mod", "3", "--format", "json")
        data = json.loads(res.output)
        found = {r["p"]: r["residue"] for r in data["primes"]}
        assert all(r == 1 for p, r in found.items() if p >= 11)

    @pytest.mark.parametrize("command", ["supersingular", "anomalous"])
    def test_zero_mod_is_a_usage_error(self, runner, command):
        # --mod 0 reaches the scan, which refuses it as it refuses -3
        res = invoke(runner, command, "--curve", "[0,0,0,-1,0]",
                     "--max-prime", "100", "--mod", "0")
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_family_verification_passes(self, runner):
        res = invoke(runner, "family", "--family", "family5", "--t", "2,3,7",
                     "--max-prime", "500")
        assert res.exit_code == 0
        assert "divisibility holds" in res.output

    def test_family_range_syntax(self, runner):
        res = invoke(runner, "family", "--family", "kkp", "--t", "1..3",
                     "--max-prime", "200", "--format", "json")
        data = json.loads(res.output)
        assert data["passed"] is True
        assert data["params"] == ["1", "2", "3"]

    def test_kubert_check_accepts(self, runner):
        res = invoke(runner, "kubert-check", "--curve", "[0,-1,-1,0,0]",
                     "--t", "0", "--mod", "5")
        assert res.exit_code == 0
        assert "accepted: yes" in res.output

    def test_kubert_check_rejects(self, runner):
        res = invoke(runner, "kubert-check", "--curve", "[0,0,0,-12,-11]",
                     "--t", "1", "--mod", "5")
        assert res.exit_code == 1

    @pytest.mark.parametrize("args", [
        ["count"], ["supersingular"], ["anomalous"], ["extension", "--d", "5"],
        ["twist", "--d", "5"], ["survey", "--mod", "4", "--class-mod", "5"],
        ["torsion"], ["torsion", "--d", "5"]])
    def test_unfactored_discriminant(self, runner, args):
        # 4 + 27 B^2 = 2^4 * 66670759 * 253109473: no scan factors it, and
        # a gcd of 1 proves the torsion trivial
        res = invoke(runner, *args, "--curve", "[0,0,0,1,100000002]",
                     "--max-prime", "300")
        assert res.exit_code == 0, res.output

    def test_unfactored_discriminant_with_two_torsion(self, runner):
        # y^2 = x (x^2 + a x + 1) with a - 2 and a + 2 prime above 10^7:
        # factorize cannot split the discriminant, which the root search
        # never needs, and (0, 0) is the one point of order 2
        res = invoke(runner, "torsion", "--curve", "[0,10000455,0,1,0]",
                     "--format", "json")
        assert res.exit_code == 0, res.output
        data = json.loads(res.output)
        assert data["structure"] == [1, 2]
        assert data["generators"] == [["0", "0"]]


class TestResolveCommand:
    def test_md_output(self, runner):
        res = invoke(runner, "resolve", "--label", "50a3", "--offline")
        assert res.exit_code == 0
        assert "label: 50a3" in res.output
        assert "curve: [1,0,1,-76,298]" in res.output

    def test_json_output(self, runner):
        res = invoke(runner, "resolve", "--label", "150b3", "--offline",
                     "--format", "json")
        data = json.loads(res.output)
        assert data["schema"] == "ellorders.resolve/1"
        assert data["curve"] == ["1", "1", "0", "-700", "34000"]

    def test_user_cache_source(self, runner, tmp_path):
        (tmp_path / "17a1.json").write_text(json.dumps(
            {"label": "17a1", "ainvs": ["1", "-1", "1", "-1", "-14"],
             "fetched_at": "2024-01-01T00:00:00+00:00", "source": "hand"}))
        res = invoke(runner, "resolve", "--label", "17a1", "--cache-dir",
                     str(tmp_path), "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.output)["source"] == "user"

    def test_label_shim_is_noted(self, runner):
        res = invoke(runner, "resolve", "--label", "50.a3", "--offline",
                     "--format", "json")
        data = json.loads(res.output)
        assert data["label"] == "50a3"
        assert any("50.a3" in note for note in data["notes"])


class TestScanCeiling:
    def test_survey_above_count_ceiling_exits_at_once(self, runner):
        t0 = time.perf_counter()
        res = invoke(runner, "survey", "--curve", "[0,0,0,-12,-11]", "--mod", "10",
                     "--class-mod", "5", "--max-prime", str(10**7 + 1))
        assert res.exit_code == 3
        assert "ceiling" in res.stderr
        assert time.perf_counter() - t0 < 1.0

    def test_scan_above_count_ceiling_exits_at_once(self, runner):
        t0 = time.perf_counter()
        res = invoke(runner, "supersingular", "--curve", "[1,1,0,-700,34000]",
                     "--max-prime", str(2 * 10**7))
        assert res.exit_code == 3
        assert "ceiling" in res.stderr
        assert time.perf_counter() - t0 < 1.0


class TestCorpusVerify:
    def test_smoke_run_under_a_second(self, runner):
        t0 = time.perf_counter()
        res = invoke(runner, "corpus-verify", "--max-prime", "100",
                     "--offline")
        elapsed = time.perf_counter() - t0
        assert res.exit_code == 0
        assert "all 24 rows verified" in res.output
        assert elapsed < 1.0

    def test_json_lists_every_label(self, runner):
        res = invoke(runner, "corpus-verify", "--max-prime", "100",
                     "--offline", "--format", "json")
        data = json.loads(res.output)
        assert data["schema"] == "ellorders.corpus-verify/1"
        assert len(data["rows"]) == 24
        assert all(r["rows_ok"] and r["torsion_ok"] for r in data["rows"])

    def test_altered_row_fails(self, runner, monkeypatch):
        import ellorders.catalog as catalog

        # push every allowed residue for one 150b3 class off by one
        real = catalog._SURVEY_ROWS["150b3"]
        fake = dict(real)
        fake["rows"] = {**real["rows"], 2: frozenset({7})}
        monkeypatch.setitem(catalog._SURVEY_ROWS, "150b3", fake)
        res = invoke(runner, "corpus-verify", "--max-prime", "300",
                     "--offline")
        assert res.exit_code == 1
        assert "150b3" in res.output
        assert "FAIL" in res.output

    def test_violations_carry_witness_data(self, runner, monkeypatch):
        import ellorders.catalog as catalog

        real = catalog._SURVEY_ROWS["150b3"]
        fake = dict(real)
        fake["rows"] = {**real["rows"], 2: frozenset({7})}
        monkeypatch.setitem(catalog._SURVEY_ROWS, "150b3", fake)
        res = invoke(runner, "corpus-verify", "--max-prime", "300",
                     "--offline", "--format", "json")
        assert res.exit_code == 1
        data = json.loads(res.output)
        row = next(r for r in data["rows"] if r["label"] == "150b3")
        assert not row["rows_ok"]
        v = row["violations"][0]
        assert v["p"] % 5 == 2
        assert v["points"] % 10 == v["residue"]
        assert v["allowed"] == [7]

    def test_threads_byte_identical(self, runner):
        args = ["corpus-verify", "--max-prime", "200", "--offline",
                "--format", "json"]
        one = invoke(runner, *args, "--threads", "1")
        four = invoke(runner, *args, "--threads", "4")
        assert one.output == four.output


class TestCsvOutput:
    @pytest.mark.parametrize("args", [
        ["torsion", "--curve", "[1,-1,1,-199,510]", "--d", "5"],
        ["resolve", "--label", "50a3", "--offline"],
        ["corpus-verify", "--max-prime", "100", "--offline",
         "--cache-dir", SWAPPED_CACHE],
    ], ids=["torsion", "resolve", "corpus-verify-fail"])
    def test_rows_as_wide_as_their_header(self, runner, args):
        res = invoke(runner, *args, "--format", "csv")
        assert res.exit_code in (0, 1), res.output
        # one table: a header, then rows as wide as it
        header, *rows = csv.reader(io.StringIO(res.output))
        assert rows
        for row in rows:
            assert len(row) == len(header), row
