"""Byte identity of `group info`, `design --dot`, `check equivariance` and
`certify unique` on the benchmark corpus.

Each case hashes (sha256) the exit code, stdout, stderr and the file written
(the DOT of `design --dot`, the JSON of `group info --out`) of one CLI call on
one `bench/corpus` spec, and compares the hash with the committed table
`golden_cli.json`. A refactor that changes any byte of these outputs fails
here. After an intended output change, regenerate the table with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from eqtie import cli

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS.parent / "bench" / "corpus"
GOLDEN = TESTS / "golden_cli.json"
COMMANDS = (
    "group_info", "group_info_out", "design_dot", "check", "certify", "certify_one_based",
)


def cli_digest(spec: Path, command: str, work: Path) -> str:
    """sha256 of [exit code, stdout, stderr, written file text or None] for one CLI call."""
    written = work / "written"
    written.unlink(missing_ok=True)
    argv = {
        "group_info": ["group", "info", "--spec", str(spec)],
        "group_info_out": ["group", "info", "--spec", str(spec), "--one-based",
                           "--out", str(written)],
        "design_dot": ["design", "--spec", str(spec), "--dot", str(written)],
        "check": ["check", "equivariance", "--spec", str(spec), "--seed", "0"],
        "certify": ["certify", "unique", "--spec", str(spec)],
        "certify_one_based": ["certify", "unique", "--spec", str(spec), "--one-based"],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = written.read_text() if written.exists() else None
    blob = json.dumps([code, out.getvalue(), err.getvalue(), text])
    return hashlib.sha256(blob.encode()).hexdigest()


def case_ids() -> list[str]:
    return [f"{spec.stem}:{command}" for spec in sorted(CORPUS.glob("*.json")) for command in COMMANDS]


def test_table_covers_the_corpus():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_cli_bytes_match_golden(case, tmp_path):
    name, command = case.split(":")
    assert cli_digest(CORPUS / f"{name}.json", command, tmp_path) == json.loads(
        GOLDEN.read_text()
    )[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for case in case_ids():
            name, command = case.split(":")
            table[case] = cli_digest(CORPUS / f"{name}.json", command, Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
