"""The shape of the mutant table in tests/mutants.py, checked with no mutant run.

A refactor that leaves a row stale, its old text gone or its kills ids
renamed, fails here at once, not only when the runner runs.
"""

import ast

from mutants import MUTANTS, ROOT


def _test_functions(path):
    """The test functions of a test file, as 'name' or 'Class::name'."""
    names = set()
    for node in ast.parse((ROOT / path).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return names


def test_each_mutant_edits_one_place():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    bad = [m.name for m in MUTANTS
           if m.new == m.old or (ROOT / m.path).read_text().count(m.old) != 1]
    assert not bad


def test_kills_name_existing_tests():
    functions = {}
    bad = []
    for m in MUTANTS:
        if not m.kills:
            bad.append(m.name)
        for node_id in m.kills:
            path, _, name = node_id.partition("::")
            if path not in functions:
                functions[path] = _test_functions(path)
            if name.split("[")[0] not in functions[path]:
                bad.append(f"{m.name}: {node_id}")
    assert not bad
