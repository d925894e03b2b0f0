"""Byte-level golden test of the command-line output.

Every subcommand runs in md, csv and json at small bounds, offline, and the
ones that walk primes also run in json to 6000, where counts go to numpy
lanes.  Each case's exit code and the sha256 of its stdout are compared with
tests/data/cli_golden.json, and so is every subcommand's --help text.  A
change to any number or any formatting byte that reaches stdout turns the
matching case red.

To re-record the fixture after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change log why the bytes moved.
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ellorders.catalog import CACHE_DIR_ENV
from ellorders.cli import main

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"
# a user cache whose 150b3 holds 150c3's coefficients, so that corpus-verify
# reports row and torsion violations
SWAPPED_CACHE = Path(__file__).parent / "data" / "cache_150b3_as_150c3"

# (case name, arguments without --format); each runs in all three formats
COMMANDS = [
    ("count", ["count", "--curve", "[1,-1,1,-199,510]", "--max-prime", "60"]),
    ("local", ["local", "--label", "2880r6", "--offline"]),
    ("extension", ["extension", "--curve", "[1,-1,1,-1,-14]", "--d", "-1",
                   "--max-prime", "60"]),
    ("torsion", ["torsion", "--curve", "[1,-1,1,-199,510]", "--d", "5",
                 "--max-prime", "150"]),
    ("twist", ["twist", "--curve", "[1,-1,1,-199,510]", "--d", "-3",
               "--max-prime", "200"]),
    ("survey", ["survey", "--curve", "[0,0,0,-12,-11]", "--mod", "12",
                "--class-mod", "20", "--max-prime", "500"]),
    ("gcd", ["gcd", "--family", "kkp", "--t", "1/2", "--max-prime", "300"]),
    ("gcd-quadratic", ["gcd-quadratic", "--curve", "[1,-1,1,-1,-14]",
                       "--d", "-1", "--max-prime", "300"]),
    ("supersingular", ["supersingular", "--curve", "[0,0,0,-1,0]",
                       "--mod", "4", "--max-prime", "300"]),
    ("anomalous", ["anomalous", "--label", "175b2", "--offline", "--mod", "3",
                   "--max-prime", "500"]),
    ("family", ["family", "--family", "family5", "--t", "2,3",
                "--max-prime", "200"]),
    ("kubert-accept", ["kubert-check", "--curve", "[0,-1,-1,0,0]", "--t", "0",
                       "--mod", "5"]),
    ("kubert-singular", ["kubert-check", "--curve", "[0,0,0,-12,-11]",
                         "--t", "1", "--mod", "5"]),
    ("kubert-no-point", ["kubert-check", "--curve", "[0,-1,-1,0,0]",
                         "--t", "2", "--mod", "7"]),
    ("kubert-psi-nonzero", ["kubert-check", "--curve", "[0,0,0,1,1]",
                            "--t", "0", "--mod", "3"]),
    ("resolve", ["resolve", "--label", "50a3", "--offline"]),
    ("corpus-verify", ["corpus-verify", "--max-prime", "100", "--offline"]),
    ("torsion-q", ["torsion", "--curve", "[1,-1,1,-199,510]"]),
    ("supersingular-plain", ["supersingular", "--curve", "[0,0,0,-1,0]",
                             "--max-prime", "300"]),
    ("anomalous-plain", ["anomalous", "--label", "175b2", "--offline",
                         "--max-prime", "500"]),
    ("local-bounded", ["local", "--curve", "[1,1,0,-700,34000]",
                       "--max-prime", "3"]),
    ("resolve-note", ["resolve", "--label", "50.a3", "--offline"]),
    ("corpus-verify-fail", ["corpus-verify", "--max-prime", "100", "--offline",
                            "--cache-dir", str(SWAPPED_CACHE)]),
]

FORMATS = ("md", "csv", "json")

# (case name, arguments without --format) for the prime-walking commands to
# 6000, past the lane floor, where counts go to numpy lanes; json only
WALKED = [
    ("count", ["count", "--curve", "[1,1,0,-700,34000]"]),
    ("twist", ["twist", "--curve", "[1,-1,1,-199,510]", "--d", "-3"]),
    ("extension", ["extension", "--curve", "[1,-1,1,-1,-14]", "--d", "-1"]),
    ("gcd-quadratic", ["gcd-quadratic", "--curve", "[1,-1,1,-1,-14]",
                       "--d", "-1"]),
    ("gcd", ["gcd", "--curve", "[1,-1,1,-199,510]"]),
    ("supersingular", ["supersingular", "--curve", "[0,0,0,-1,0]",
                       "--mod", "4"]),
    ("anomalous", ["anomalous", "--label", "175b2", "--offline", "--mod", "3"]),
    ("family", ["family", "--family", "family5", "--t", "2,3"]),
]

CASES = [(f"{name}-{fmt}", args + ["--format", fmt])
         for name, args in COMMANDS for fmt in FORMATS]
CASES += [(f"{name}-6000-json", args + ["--max-prime", "6000", "--format", "json"])
          for name, args in WALKED]
CASES += [(f"help-{name}", [name, "--help"]) for name in sorted(main.commands)]


def _run(args):
    # a fixed width, so that --help wraps the same on every terminal
    res = CliRunner().invoke(main, args, terminal_width=80)
    return {"exit_code": res.exit_code,
            "sha256": hashlib.sha256(res.stdout_bytes).hexdigest()}


def test_fixture_covers_every_case():
    recorded = json.loads(FIXTURE.read_text())
    assert sorted(recorded) == sorted(case for case, _ in CASES)
    # every subcommand of the CLI appears at least once
    used = {args[0] for _, args in COMMANDS}
    assert used == set(main.commands)


@pytest.mark.parametrize("case,args", CASES, ids=[case for case, _ in CASES])
def test_stdout_bytes_match_fixture(case, args, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    recorded = json.loads(FIXTURE.read_text())[case]
    assert _run(args) == recorded, " ".join(args)


CSV_CASES = [(case, args) for case, args in CASES if case.endswith("-csv")]


@pytest.mark.parametrize("case,args", CSV_CASES, ids=[case for case, _ in CSV_CASES])
def test_csv_is_one_table(case, args, monkeypatch):
    # one header, then rows as wide as it: no prose, no second table
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    res = CliRunner().invoke(main, args)
    header, *rows = csv.reader(io.StringIO(res.stdout))
    assert [len(row) for row in rows] == [len(header)] * len(rows), res.stdout


if __name__ == "__main__":
    import os

    os.environ.pop(CACHE_DIR_ENV, None)
    FIXTURE.parent.mkdir(exist_ok=True)
    out = {case: _run(args) for case, args in CASES}
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} cases to {FIXTURE}")
