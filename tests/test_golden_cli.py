"""Byte-identical cli output: replay the benchmark's golden commands in process.

perfbench/golden/cli.json maps each command line to its exit code and the
first 16 hex digits of sha256(stdout), captured from the reference build.
This test only reads that file.
"""

import hashlib
import json
import shlex
from pathlib import Path

from aqsc import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "cli.json"


def test_golden_commands_byte_identical(capsysbinary, monkeypatch):
    monkeypatch.delenv("AQSC_FORMAT", raising=False)
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
