"""End-to-end checks of the shipped claims, one test per criterion.

The checks live in aqsc.checks, which `aqsc verify` runs too; each test
asserts the checks behind one criterion and records their details in
DETAILS, which the conftest hook prints as [PASS]/[FAIL] lines after the run.
Criterion 8, commutation, has no check: `SurfaceComplex` refuses checks that
do not commute, and its test multiplies the matrices itself.  A last test
requires every check of every suite to be claimed by a criterion.
"""

import functools
import random
import time

from aqsc import checks, homology
from aqsc.cli import SUITES

DETAILS = {}

# the checks behind each criterion, by name; every check of every suite is
# claimed, so deleting one from its suite fails a test
CRITERIA = {
    # the tables rest on the face counts and on admissibility
    1: ("genus 5 table regenerates", "genus 7 table regenerates",
        "genus 9 table regenerates", "genus 11 table regenerates",
        "single catalog correction", "face counts", "{3,10} genus 5 inadmissible"),
    2: ("closed-form families", "family forms"),
    3: ("even-genus equivalence",),
    4: ("rate ratio",),
    5: ("systole captions",),
    6: ("toric 2x2", "toric 3x3", "toric 4x4"),
    # every row of the exact table: lattices up to side 6, {3,6} tori and
    # polygon codes, the hyperbolic polygons against the formula too; and
    # k = 0 on the sphere
    7: tuple(row.name for row in checks.exact()) + ("sphere has no logicals",),
    9: ("duality swaps distances",),
    10: ("{3,7} asymmetry gaps",),
}


@functools.cache
def _suite(name):
    """The checks of one suite by name, and the seconds the suite took."""
    start = time.perf_counter()
    found = {c.name: c for c in getattr(checks, name)()}
    return found, time.perf_counter() - start


def _assert_checks(criterion):
    found = {c.name: c for suite in SUITES for c in _suite(suite)[0].values()}
    picked = [found[name] for name in CRITERIA[criterion]]
    DETAILS[criterion] = "; ".join(f"{c.name}: {c.detail}" if c.detail else c.name
                                   for c in picked)
    for c in picked:
        assert c.ok, f"{c.name}: {c.detail}"


def test_criterion_1_reference_tables_regenerate():
    _assert_checks(1)
    assert _suite("tables")[1] < 1.0


def test_criterion_2_closed_form_families():
    _assert_checks(2)


def test_criterion_3_even_genus_equivalence():
    _assert_checks(3)


def test_criterion_4_rate_advantage():
    _assert_checks(4)


def test_criterion_5_systole_captions():
    _assert_checks(5)


def test_criterion_6_toric_oracle():
    _assert_checks(6)
    assert _suite("oracle")[1] < 10.0


def test_criterion_7_logical_counts():
    _assert_checks(7)


def test_criterion_8_checks_commute():
    # h_x h_z^T = 0 on every exact() row and on five seeded random pairings
    # of a 12-gon's sides
    complexes = [row.cx for row in checks.exact()]
    rng = random.Random(2026)
    for _ in range(5):
        sides = rng.sample(range(12), 12)
        pairs = [(sides[i], sides[i + 1], rng.random() < 0.5) for i in range(0, 12, 2)]
        complexes.append(homology.complex_from_polygons([12], pairs))
    bad = [i for i, cx in enumerate(complexes)
           if ((cx.h_x.astype(int) @ cx.h_z.T.astype(int)) % 2).any()]
    DETAILS[8] = f"h_x h_z^T = 0 on {len(complexes)} complexes: the exact rows, 5 pairings"
    assert len(complexes) == 41 and not bad, bad


def test_criterion_9_duality_swaps_distances():
    _assert_checks(9)


def test_criterion_10_asymmetry_growth():
    _assert_checks(10)


def test_every_check_is_claimed():
    found = {name for suite in SUITES for name in _suite(suite)[0]}
    assert found == {name for names in CRITERIA.values() for name in names}
