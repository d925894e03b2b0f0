"""Byte-level golden test of the three scripts in demos/.

Each script runs offline in a fresh interpreter, and its exit code and the
sha256 of its stdout are compared with tests/data/demos_golden.json.  The
label lookups read the bundled cache only, because the user cache points at
an empty directory.

To re-record the fixture after an intended output change, run

    PYTHONPATH=src python tests/test_demos.py

and say in the change log why the bytes moved.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURE = Path(__file__).parent / "data" / "demos_golden.json"


def _run(script):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ELLORDERS_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory() as empty:
        env["ELLORDERS_CACHE_DIR"] = empty
        res = subprocess.run([sys.executable, str(script)], env=env, cwd=empty,
                             capture_output=True, timeout=600)
    return {"exit_code": res.returncode,
            "sha256": hashlib.sha256(res.stdout).hexdigest()}


def test_fixture_covers_every_demo():
    assert sorted(json.loads(FIXTURE.read_text())) == [s.name for s in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[s.name for s in DEMOS])
def test_demo_stdout_matches_fixture(script):
    assert _run(script) == json.loads(FIXTURE.read_text())[script.name]


if __name__ == "__main__":
    out = {s.name: _run(s) for s in DEMOS}
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} demos to {FIXTURE}")
