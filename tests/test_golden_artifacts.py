"""Every bundled scenario's CLI artifacts stay byte-identical.

``golden_artifacts.json`` holds the SHA-256 of every file written with
``--format both`` for each (scenario, subcommand) pair that exits 0, plus
the ``premium-sweep`` run with ``--threads 2``. Re-record it only when an
output is meant to change::

    PYTHONPATH=src python3 tests/test_golden_artifacts.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from polcomp.cli import SUBCOMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).with_name("golden_artifacts.json")


def _argv(scenario, subcommand, threads, out):
    return [subcommand, "--scenario", str(ROOT / "scenarios" / scenario),
            "--out", str(out), "--format", "both", "--threads", str(threads)]


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _key(scenario, subcommand, threads):
    return f"{scenario} {subcommand} threads={threads}"


GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_artifacts_match_golden(tmp_path, key):
    scenario, subcommand, threads = key.split(" ")
    assert main(_argv(scenario, subcommand, int(threads[len("threads="):]), tmp_path)) == 0
    assert _digests(tmp_path) == GOLDEN[key]


def record(tmp):
    golden = {}
    for scenario in sorted(p.name for p in (ROOT / "scenarios").glob("*.json")):
        for subcommand in SUBCOMMANDS:
            runs = (1, 2) if subcommand == "premium-sweep" else (1,)
            for threads in runs:
                out = tmp / _key(scenario, subcommand, threads).replace(" ", "_")
                if main(_argv(scenario, subcommand, threads, out)) == 0:
                    golden[_key(scenario, subcommand, threads)] = _digests(out)
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = record(Path(tmp))
    print(f"recorded {len(recorded)} runs into {FIXTURE}", file=sys.stderr)
