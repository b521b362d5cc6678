"""The shape of the mutant table in tests/mutants.py, checked with no mutant run.

A refactor that leaves a row stale, its old text gone or its kills ids
renamed, fails here at once, not only when the runner runs.
"""

import os
import subprocess
import sys

from mutants import MUTANTS, ROOT


def test_each_mutant_edits_one_place():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    bad = [m.name for m in MUTANTS
           if m.new == m.old or (ROOT / m.path).read_text().count(m.old) != 1]
    assert not bad


def test_kills_name_existing_tests():
    # every id as pytest collects it, parametrize ids included, in one run
    # over the files the table names
    paths = sorted({node_id.partition("::")[0] for m in MUTANTS for node_id in m.kills})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *paths], cwd=ROOT, env=env, capture_output=True, text=True)
    collected = set(run.stdout.splitlines())
    bad = [m.name for m in MUTANTS if not m.kills]
    bad += [f"{m.name}: {node_id}" for m in MUTANTS for node_id in m.kills
            if node_id not in collected]
    assert not bad
