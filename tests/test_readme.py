"""The README's examples run as printed.

Every `$ aqsc ...` line of its code blocks goes through `aqsc.cli.main`,
trailing `# comment` removed, and must exit 0 or 2; the lines printed
under a command must be its stdout and stderr.  The values in the comments
of the Library snippet must be what its expressions evaluate to.
"""

import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from aqsc import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks():
    """(language, lines) of each fenced code block."""
    blocks, lang, lines = [], None, []
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if lang is None:
                lang, lines = line[3:].strip(), []
            else:
                blocks.append((lang, lines))
                lang = None
        elif lang is not None:
            lines.append(line)
    return blocks


def _commands():
    """(argv, expected output lines) of each `$ aqsc` line."""
    commands = []
    for _, lines in _blocks():
        current = None
        for line in lines:
            if line.startswith("$ aqsc "):
                current = (shlex.split(line[len("$ aqsc "):], comments=True), [])
                commands.append(current)
            elif current is not None:
                current[1].append(line)
    return commands


COMMANDS = _commands()


def test_readme_has_commands():
    assert len(COMMANDS) == 10


@pytest.mark.parametrize("argv,expected", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_readme_command(argv, expected, capsys, monkeypatch):
    monkeypatch.delenv("AQSC_FORMAT", raising=False)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2)
    if expected:
        assert (captured.out + captured.err).splitlines() == expected


def test_library_snippet():
    (lines,) = [lines for lang, lines in _blocks() if lang == "python"]
    namespace = {"Fraction": Fraction}
    checked = 0
    for line in lines:
        if "#" in line:
            expr, want = line.split("#", 1)
            assert eval(expr, namespace) == eval(want, namespace), line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 2
