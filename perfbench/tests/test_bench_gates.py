"""Every correctness gate accepts the right output and rejects a wrong one."""

import random

import pytest

import workloads as w
from aqsc import catalog, design, homology
from aqsc.geometry import SchlafliSymbol, Surface


@pytest.fixture(scope="module")
def golden():
    return w.load_golden("design.json")


def test_cli_gate():
    argv = ["params", "-p", "3", "-q", "7", "-g", "5", "--non-orientable"]
    out = w.run_aqsc(argv, w.child_env())
    golden = {" ".join(argv): w.cli_fingerprint(out.returncode, out.stdout)}
    assert w.check_cli(golden, argv, out.returncode, out.stdout)
    assert not w.check_cli(golden, argv, 2, out.stdout)
    assert not w.check_cli(golden, argv, 0, out.stdout.replace(b"63", b"64"))
    assert not w.check_cli(golden, argv + ["--format", "json"], out.returncode, out.stdout)


def test_enumerate_gate(golden):
    key, bound = w.surface_key(10, False), 40
    expected = w.admissible_pairs(10, False)
    result = design.enumerate_admissible(Surface(10, False), bound, bound)
    records = golden["records"][key]
    assert w.check_enumerate(expected, records, bound, result)
    assert not w.check_enumerate(expected, records, bound, result[1:])
    assert not w.check_enumerate(expected, records, bound, result + result[:1])
    wrong = dict(records, **{f"{result[0].sym.p},{result[0].sym.q}": [0, 0, 0, 0]})
    assert not w.check_enumerate(expected, wrong, bound, result)


def test_records_gate(golden):
    pairs = [("10n", 3, 8), ("10n", 4, 5)]
    result = [design.code_parameters(Surface(10, False), SchlafliSymbol(p, q))
              for _, p, q in pairs]
    assert w.check_records(golden["records"], pairs, result)
    assert not w.check_records(golden["records"], pairs[::-1], result)
    assert not w.check_records(golden["records"], pairs, result[:1])


def test_asymmetry_gate(golden):
    genera = range(5, 33, 2)
    points = design.asymmetry_curve(SchlafliSymbol(5, 8), genera)
    series = golden["asymmetry"]["5,8"]
    assert w.check_asymmetry(series, genera, points)
    assert not w.check_asymmetry(series, genera, points[:-1])
    bad = points[:1] + [points[1]._replace(d_z=points[1].d_z + 1)] + points[2:]
    assert not w.check_asymmetry(series, genera, bad)


def test_catalog_gate(golden):
    regen = [catalog.computed_parameters(g, row)
             for g, table in sorted(catalog.TABLES.items()) for row in table.rows]
    assert w.check_catalog(golden["catalog"], regen)
    assert not w.check_catalog(golden["catalog"], regen[::-1])


@pytest.mark.parametrize("entry", [["toric", 3], ["klein", 4], ["projective", 3],
                                   ["polygon", 8, True], ["polygon", 6, False]])
def test_exact_gate(entry):
    k, d = w.expected_exact(entry)
    assert w.check_exact(entry, k, d, d)
    assert w.check_exact(entry, k, d[::-1], d)          # labels may swap
    assert not w.check_exact(entry, k + 1, d, d)
    assert not w.check_exact(entry, k, [d[0], d[1] + 1], None)
    assert not w.check_exact(entry, k, d, [d[0] + 1, d[1]])


def test_exact_op_runs_the_gate_on_a_relabelled_complex():
    outcome = w.ExactDistance(0).op(["projective", 4, 12345])
    assert outcome.ok and [t.part for t in outcome.timings] == ["a", "b"]
    cx = homology.build_klein_bottle(3)
    other = w.relabel(cx, random.Random(1))
    assert other != cx and other.euler_characteristic == cx.euler_characteristic
    assert sorted(homology.cycle_distances(other)[:2]) == [3, 3]
