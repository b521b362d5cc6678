"""Byte-identical cli output, run in process.

perfbench/golden/cli.json maps each command line to its exit code and the
first 16 hex digits of sha256(stdout), captured from the reference build;
the first test replays it and only reads that file.  `aqsc verify all`,
which that file does not hold, is pinned here the same way, per format.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from aqsc import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "cli.json"


def test_golden_commands_byte_identical(capsysbinary):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 264
    mismatched = []
    for command, want in sorted(golden.items()):
        code = cli.main(shlex.split(command))
        out = capsysbinary.readouterr().out
        got = [code, hashlib.sha256(out).hexdigest()[:16]]
        if got != want:
            mismatched.append((command, want, got))
    assert not mismatched, mismatched[:5]


VERIFY_ALL = {"csv": "6f613fbf86efe532", "json": "a5f235b7ff4f2c46",
              "markdown": "a5ef72a660c5b715"}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL))
def test_verify_all_byte_identical(capsysbinary, fmt):
    # exit 0 and the same bytes; a check whose detail text changes on
    # purpose updates its digest here
    assert cli.main(["verify", "all", "--format", fmt]) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest()[:16] == VERIFY_ALL[fmt]
