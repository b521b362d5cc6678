import logging
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqsc import checks, design
from aqsc.design import (
    CodeParameters,
    DegenerateGenus,
    NotAdmissible,
    UnsupportedSymbol,
    admissibility,
    asymmetry_curve,
    closed_form_family,
    code_parameters,
    enumerate_admissible,
    face_count,
    rate_comparison,
    _ceil_ratio,
)
from aqsc import catalog
from aqsc.catalog import FAMILY_ROWS
from aqsc.geometry import (
    NonHyperbolicSurface,
    NotHyperbolic,
    SchlafliSymbol,
    Surface,
    edge_length,
    fundamental_polygon,
    opposite_edge_distance,
)

NO = lambda g: Surface(g, orientable=False)
OR = lambda h: Surface(h, orientable=True)


def _reference_enumerate(surface, p_max, q_max):
    """Every pair up to the bounds, each decided by `_counts` and designed by
    `code_parameters`: the reference for the half scan over p <= q."""
    euler = surface.euler_characteristic
    bound = design.symbol_bound(surface)
    out = []
    for p in range(3, min(p_max, bound) + 1):
        for q in range(3, min(q_max, bound) + 1):
            if not design._counts(euler, p, q)[1]:
                continue
            out.append(code_parameters(surface, SchlafliSymbol(p, q)))
    return out


def _integral_counts(surface, sym):
    """Admissible by the exact face counts of {p,q} and {q,p}, not by `_counts`."""
    if not (surface.is_hyperbolic and sym.is_hyperbolic):
        return False
    return all(face_count(surface, s).denominator == 1 for s in (sym, sym.dual))


@st.composite
def _surface_symbols(draw):
    """Genus 1-400 of both kinds, p, q in 3-60; where some q makes {p,q}
    admissible, half of the draws take such a q."""
    surface = Surface(draw(st.integers(1, 400)), draw(st.booleans()))
    p = draw(st.integers(3, 60))
    fits = [q for q in range(3, 61) if _integral_counts(surface, SchlafliSymbol(p, q))]
    q = draw(st.sampled_from(fits) if fits and draw(st.booleans()) else st.integers(3, 60))
    return surface, SchlafliSymbol(p, q)


def _face_area(sym):
    """Gauss-Bonnet for the p-gon with every interior angle 2 pi / q."""
    return (sym.p - 2) * math.pi - sym.p * 2 * math.pi / sym.q


class TestFaceCount:
    def test_exact_rational(self):
        assert face_count(NO(3), SchlafliSymbol(3, 13)) == Fraction(26, 7)
        # integer face count does not imply admissibility: the {3,10}
        # genus-5 pair fails later on vertex count 9/2
        assert face_count(NO(5), SchlafliSymbol(3, 10)) == 15

    def test_rejects_flat_surface_or_symbol(self):
        with pytest.raises(NonHyperbolicSurface):
            face_count(OR(1), SchlafliSymbol(3, 7))
        with pytest.raises(NotHyperbolic):
            face_count(NO(5), SchlafliSymbol(4, 4))

    def test_matches_area_quotient(self):
        # count of faces must equal surface area / face area; surface area
        # is -2 pi chi by Gauss-Bonnet
        for genus in range(3, 31):
            for p in range(3, 31):
                for q in range(3, 31):
                    sym = SchlafliSymbol(p, q)
                    if not sym.is_hyperbolic:
                        continue
                    surface = NO(genus)
                    quotient = (-2 * math.pi * surface.euler_characteristic
                                / _face_area(sym))
                    assert float(face_count(surface, sym)) == pytest.approx(
                        quotient, abs=1e-9)


class TestAdmissibility:
    def test_table_examples_admissible(self):
        assert admissibility(NO(5), SchlafliSymbol(3, 7)) is None
        assert admissibility(NO(7), SchlafliSymbol(3, 21)) is None
        assert admissibility(NO(11), SchlafliSymbol(6, 12)) is None

    @staticmethod
    def _assert_reason(surface, p, q, reason):
        assert admissibility(surface, SchlafliSymbol(p, q)) == reason
        with pytest.raises(NotAdmissible) as info:
            code_parameters(surface, SchlafliSymbol(p, q))
        assert str(info.value) == reason

    def test_fractional_vertex_count(self):
        self._assert_reason(NO(5), 3, 10, "vertex count 9/2 is not a positive integer")

    def test_fractional_face_count(self):
        self._assert_reason(NO(5), 10, 3, "face count 9/2 is not a positive integer")
        self._assert_reason(NO(3), 3, 13, "face count 26/7 is not a positive integer")
        # both counts fail, 27/5 and 12/5: the face count is reported
        self._assert_reason(NO(5), 4, 9, "face count 27/5 is not a positive integer")

    def test_flat_cases(self):
        assert admissibility(OR(1), SchlafliSymbol(4, 4)) is not None
        assert admissibility(NO(2), SchlafliSymbol(3, 7)) is not None
        assert admissibility(NO(5), SchlafliSymbol(3, 6)) is not None

    @given(st.integers(3, 20), st.booleans(), st.integers(3, 25), st.integers(3, 25),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_admissible_implies_integral_record(self, genus, orientable, p, q, data):
        # only about 1 in 11 pairs with p, q <= 25 is admissible, so each
        # example also draws one of the surface's admissible designs
        surface = Surface(genus, orientable)
        drawn = data.draw(st.sampled_from(enumerate_admissible(surface, 25, 25)))
        for sym in (SchlafliSymbol(p, q), drawn.sym):
            if admissibility(surface, sym) is not None:
                with pytest.raises(NotAdmissible):
                    code_parameters(surface, sym)
                continue
            cp = code_parameters(surface, sym)
            assert 2 * cp.n == sym.p * cp.n_f
            assert cp.n_f * sym.p % sym.q == 0
            assert cp.k == 2 - surface.euler_characteristic
            assert cp.d_z >= 1 and cp.d_x >= 1

    @given(st.integers(1, 60), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_counts_obey_incidence_and_euler(self, genus, orientable, data):
        # n comes from V - E + F = chi; it must agree with both incidence
        # counts, 2E = p F = q V.  The old parity proof is the reference:
        # p n_f is even, since p, n_f and q all odd would make the excess
        # pq - 2p - 2q odd while it divides the even -2 q chi
        surface = Surface(genus, orientable)
        designs = enumerate_admissible(surface, 120, 120)
        if not designs:   # chi >= 0
            return
        cp = data.draw(st.sampled_from(designs))
        p, q = cp.sym.p, cp.sym.q
        assert (p * cp.n_f) % 2 == 0
        assert 2 * cp.n == p * cp.n_f == q * cp.n_v
        assert cp.n_v - cp.n + cp.n_f == surface.euler_characteristic
        dual = code_parameters(surface, cp.sym.dual)
        assert cp.n_v == dual.n_f
        # verify's "duality swaps distances" covers the 50 table rows only
        assert (dual.n, dual.d_z, dual.d_x) == (cp.n, cp.d_x, cp.d_z)


class TestCodeParameters:
    def test_genus5_37(self):
        cp = code_parameters(NO(5), SchlafliSymbol(3, 7))
        assert (cp.n_f, cp.n, cp.k, cp.d_z, cp.d_x) == (42, 63, 5, 7, 4)
        assert cp.record == "[[63,5,7/4]]"
        assert cp.rate == Fraction(5, 63)
        assert cp.gap == 3
        assert cp.distance_provenance == "formula"

    @given(st.integers(3, 20), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_records_store_each_fact_once(self, genus, orientable, data):
        surface = Surface(genus, orientable)
        sym = data.draw(st.sampled_from(enumerate_admissible(surface, 25, 25))).sym
        cp, twin = code_parameters(surface, sym), code_parameters(surface, sym)
        assert cp == twin and hash(cp) == hash(twin)
        assert {"n", "k", "distance_provenance"}.isdisjoint(cp._fields)
        if orientable:
            # S_h and N_2h agree in every field but the surface, floats by
            # ==: verify's "even-genus equivalence", past its bounds
            assert cp[1:] == code_parameters(NO(2 * genus), sym)[1:]

    @given(_surface_symbols())
    @example((NO(5), SchlafliSymbol(10, 10)))   # d_h / l is 1.0000000000000002
    @example((OR(1), SchlafliSymbol(4, 5)))     # surface not hyperbolic
    @example((NO(1), SchlafliSymbol(3, 7)))     # counts -14 and -6: integral, not positive
    @example((NO(5), SchlafliSymbol(3, 6)))     # euclidean
    @example((NO(5), SchlafliSymbol(3, 10)))    # vertex count 9/2
    @settings(max_examples=300, deadline=None)
    def test_matches_record_composed_from_symbols(self, case):
        # the record built from integers equals the one composed from the
        # polygon symbol and both edge lengths, floats compared by ==; a
        # failure raises the text admissibility gives
        surface, sym = case
        reason = admissibility(surface, sym)
        assert (reason is None) == _integral_counts(surface, sym)
        if reason is not None:
            with pytest.raises(NotAdmissible) as info:
                code_parameters(surface, sym)
            assert str(info.value) == reason
            return
        dual = SchlafliSymbol(sym.q, sym.p)
        d_h = opposite_edge_distance(fundamental_polygon(surface).p)
        l_pq, l_qp = edge_length(sym), edge_length(dual)
        assert code_parameters(surface, sym) == (
            surface, sym, face_count(surface, sym), face_count(surface, dual),
            _ceil_ratio(d_h, l_qp), _ceil_ratio(d_h, l_pq), d_h, l_pq, l_qp)

    def test_genus7_45(self):
        cp = code_parameters(NO(7), SchlafliSymbol(4, 5))
        assert cp.record == "[[50,7,5/4]]"

    def test_genus9_58(self):
        cp = code_parameters(NO(9), SchlafliSymbol(5, 8))
        assert cp.record == "[[20,9,3/2]]"

    def test_ceiling_not_rounding(self):
        # {3,21} at genus 7: raw ratio 4.098 must ceil to 5
        cp = code_parameters(NO(7), SchlafliSymbol(3, 21))
        assert cp.d_h / cp.l_qp == pytest.approx(4.098, abs=5e-3)
        assert cp.d_z == 5

    def test_integer_ratio_snaps(self):
        # the fundamental polygon is one face, so d_h equals its edge length;
        # float division gives 1.0000000000000002 for {10,10} on N5 and
        # {60,60} on S15 (not for h = 2..6), which must not ceil to 2
        for surface in [OR(h) for h in range(2, 7)] + [NO(5), OR(15)]:
            cp = code_parameters(surface, fundamental_polygon(surface))
            assert cp.n_f == 1 and cp.d_z == 1 and cp.d_x == 1
            assert (cp.d_h / cp.l_pq > 1) == (surface in (NO(5), OR(15)))

    def test_not_admissible_raises(self):
        with pytest.raises(NotAdmissible):
            code_parameters(NO(5), SchlafliSymbol(3, 10))

    def test_str(self):
        cp = code_parameters(NO(5), SchlafliSymbol(3, 7))
        assert "{3,7}" in str(cp) and "[[63,5,7/4]]" in str(cp)


_RECORDS = {
    # a build function, called twice per test, and the facts it stores
    "code_parameters": (lambda: code_parameters(NO(5), SchlafliSymbol(3, 7)),
                        ("surface", "sym", "n_f", "n_v", "d_z", "d_x", "d_h", "l_pq", "l_qp")),
    "pair_row": (lambda: catalog.PairRow(*catalog.TABLES[7].rows[6]),
                 ("p", "q", "n_f", "n_f_dual", "l_pq", "l_qp", "n", "k", "d_z", "d_x",
                  "corrected_d_z", "note")),
    "reference_table": (lambda: catalog.ReferenceTable(*catalog.TABLES[5]),
                        ("genus", "d_h", "rows")),
    "family_row": (lambda: catalog.FamilyRow(*FAMILY_ROWS[0]), ("p", "q", "n_f_form", "n_form")),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_record_contract(name):
    # a plain record is an immutable NamedTuple of exactly the facts it
    # stores; derived values (a design's n and k, the class attribute
    # distance_provenance) are read, not stored.  A catalog row stores its
    # printed n and k, which are transcribed, not derived
    build, stored = _RECORDS[name]
    record, twin = build(), build()
    assert record._fields == stored
    for field in stored:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == twin and hash(record) == hash(twin)


class TestCeilRatio:
    def test_plain_ceiling(self):
        assert _ceil_ratio(4.1, 1.0) == 5
        assert _ceil_ratio(3.9, 1.0) == 4

    def test_snap_below_and_above(self):
        assert _ceil_ratio(1.0 - 1e-12, 1.0) == 1
        assert _ceil_ratio(1.0 + 1e-12, 1.0) == 1
        assert _ceil_ratio(3.0 - 1e-12, 1.0) == 3

    @given(st.integers(1, 50), st.floats(0.1, 10))
    def test_exact_multiples(self, k, den):
        assert _ceil_ratio(k * den, den) == k


class TestEnumeration:
    def test_superset_of_genus5_table(self):
        rows = enumerate_admissible(NO(5), 30, 30)
        pairs = {(cp.sym.p, cp.sym.q) for cp in rows}
        assert {(3, 7), (3, 8), (3, 9), (3, 12), (3, 15),
                (4, 5), (4, 7), (4, 8), (4, 10)} <= pairs
        # admissible but beyond the printed rows
        assert (4, 6) in pairs

    def test_sorted_and_deterministic(self):
        rows = enumerate_admissible(NO(7), 21, 21)
        keys = [(cp.sym.p, cp.sym.q) for cp in rows]
        assert keys == sorted(keys)
        assert rows == enumerate_admissible(NO(7), 21, 21)

    def test_every_result_admissible(self):
        for cp in enumerate_admissible(NO(9), 20, 20):
            assert admissibility(cp.surface, cp.sym) is None

    @given(st.integers(1, 60), st.booleans(), st.integers(3, 80), st.integers(3, 80))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_scan(self, genus, orientable, p_max, q_max):
        # every pair up to the maxima, past the scan's 6(|chi|+1) stop, with
        # Fraction counts and no call into admissibility; chi >= 0 included
        surface = Surface(genus, orientable)
        chi = surface.euler_characteristic
        expect = []
        for p in range(3, p_max + 1):
            for q in range(3, q_max + 1):
                e = p * q - 2 * p - 2 * q
                if e <= 0:   # designs are hyperbolic only
                    continue
                n_f, n_v = Fraction(-2 * q * chi, e), Fraction(-2 * p * chi, e)
                if not all(c.denominator == 1 and c > 0 for c in (n_f, n_v)):
                    continue
                expect.append((p, q, n_f, p * n_f / 2))
        got = enumerate_admissible(surface, p_max, q_max)
        assert [(cp.sym.p, cp.sym.q, cp.n_f, cp.n) for cp in got] == expect

    @pytest.mark.parametrize("surface,p_max,q_max", [
        *((Surface(g, o), 300, 300) for g in (50, 200, 997, 1000) for o in (True, False)),
        (NO(200), 40, 300),
        (OR(50), 300, 25),
        # |chi| = 1 and 2: the cap e <= 2p|chi| binds long before q_max
        (NO(3), 10 ** 6, 10 ** 6),
        (OR(2), 10 ** 6, 10 ** 6),
    ], ids=lambda v: f"{'S' if v.orientable else 'N'}{v.genus}" if isinstance(v, Surface) else None)
    def test_matches_pair_scan_at_benchmark_scale(self, surface, p_max, q_max):
        # genus and bounds as large as the design_sweep workload draws them
        got = enumerate_admissible(surface, p_max, q_max)
        assert got == _reference_enumerate(surface, p_max, q_max)

    @given(st.integers(1, 60), st.booleans(), st.integers(3, 80), st.integers(3, 80))
    # {6,6} on N3 and the fundamental polygon {2g,2g} on N_g are their own duals
    @example(3, False, 6, 9)
    @example(5, False, 12, 10)
    @example(8, False, 16, 40)
    @example(13, False, 80, 26)
    @settings(max_examples=150, deadline=None)
    def test_swapped_maxima_give_dual_records(self, genus, orientable, p_max, q_max):
        # {q,p} is {p,q} with faces and vertices exchanged: counts, lengths
        # and distances swap, d_h and the surface stay
        surface = Surface(genus, orientable)
        got = enumerate_admissible(surface, p_max, q_max)
        dual = sorted((cp._replace(sym=cp.sym.dual, n_f=cp.n_v, n_v=cp.n_f, d_z=cp.d_x,
                                   d_x=cp.d_z, l_pq=cp.l_qp, l_qp=cp.l_pq) for cp in got),
                      key=lambda cp: (cp.sym.p, cp.sym.q))
        assert enumerate_admissible(surface, q_max, p_max) == dual
        syms = [cp.sym for cp in got]
        assert len(set(syms)) == len(syms)
        if not orientable and 3 <= genus <= min(p_max, q_max) // 2:
            assert SchlafliSymbol(2 * genus, 2 * genus) in syms

    def test_flat_surfaces_admit_nothing(self):
        # chi >= 0 admits nothing; at chi = 0 every remainder is 0
        for surface in (OR(1), NO(1), NO(2)):
            assert enumerate_admissible(surface, 80, 80) == []

    def test_scan_stops_at_the_bound(self):
        # chi = -1 bounds p and q by 6(|chi|+1) = 12, and {3,12} attains it
        start = time.perf_counter()
        rows = enumerate_admissible(NO(3), 10 ** 6, 10 ** 6)
        assert time.perf_counter() - start < 0.5
        assert rows == enumerate_admissible(NO(3), 12, 12)
        assert SchlafliSymbol(3, 12) in {cp.sym for cp in rows}


class TestClosedFormFamilies:
    def test_matches_divisibility_rule(self):
        # the closed form before it read the genus-3 counts: a family exactly
        # when the excess divides 2p and 2q, with n = pq(g-2)/excess
        for p in range(3, 80):
            for q in range(3, 80):
                sym = SchlafliSymbol(p, q)
                e = sym.excess
                is_family = e > 0 and (2 * p) % e == 0 and (2 * q) % e == 0
                assert is_family == (admissibility(NO(3), sym) is None), sym
                if not is_family:
                    with pytest.raises(UnsupportedSymbol):
                        closed_form_family(sym)
                    continue
                fam = closed_form_family(sym)
                assert (fam.n_f_coeff, fam.n_coeff) == (2 * q // e, p * q // e), sym

    def test_unsupported(self):
        # {3,7} is a family (n_f = 14(g-2)); {3,10} fails at genus 5
        with pytest.raises(UnsupportedSymbol):
            closed_form_family(SchlafliSymbol(3, 10))
        with pytest.raises(UnsupportedSymbol):
            closed_form_family(SchlafliSymbol(4, 4))


class TestRateComparison:
    @given(st.integers(3, 30), st.integers(3, 30), st.integers(3, 80), st.data())
    def test_matches_closed_forms(self, p, q, genus, data):
        # k/n with n = pq(2g-2)/excess orientable and pq(g-2)/excess
        # non-orientable, where {p,q} tessellates both surfaces; elsewhere
        # there is no design whose rate to compare.  Only about 1 in 38 of
        # these triples has both designs, so each example also draws a
        # symbol that has them
        both = [cp.sym for cp in enumerate_admissible(NO(genus), 30, 30)
                if admissibility(OR(genus), cp.sym) is None]
        for sym in (SchlafliSymbol(p, q), data.draw(st.sampled_from(both))):
            if any(admissibility(Surface(genus, o), sym) for o in (True, False)):
                with pytest.raises(NotAdmissible):
                    rate_comparison(sym, genus)
                continue
            rc = rate_comparison(sym, genus)
            pq = sym.p * sym.q
            assert rc.orientable == Fraction(genus * sym.excess, pq * (genus - 1))
            assert rc.non_orientable == Fraction(genus * sym.excess, pq * (genus - 2))

    def test_rates_are_k_over_n(self):
        g = 6
        rc = rate_comparison(SchlafliSymbol(4, 5), g)
        cp_or = code_parameters(OR(g), SchlafliSymbol(4, 5))
        cp_no = code_parameters(NO(g), SchlafliSymbol(4, 5))
        assert rc.orientable == cp_or.rate
        assert rc.non_orientable == cp_no.rate

    def test_degenerate_genus(self):
        with pytest.raises(DegenerateGenus):
            rate_comparison(SchlafliSymbol(3, 7), 2)
        with pytest.raises(DegenerateGenus):
            rate_comparison(SchlafliSymbol(3, 7), 1)

    def test_flat_symbol_rejected(self):
        # as asymmetry_curve: a flat symbol tessellates no hyperbolic surface
        with pytest.raises(NotAdmissible, match="euclidean"):
            rate_comparison(SchlafliSymbol(4, 4), 5)
        # {3,10} has no non-orientable design at genus 5, so no rate there
        with pytest.raises(NotAdmissible, match="vertex count 9/2"):
            rate_comparison(SchlafliSymbol(3, 10), 5)


def _bumped(cp, field):
    """The record with one field moved: a float by one ulp, an int by 1, a
    symbol to {p,q+1}."""
    value = getattr(cp, field)
    if isinstance(value, float):
        return cp._replace(**{field: math.nextafter(value, math.inf)})
    if isinstance(value, int):
        return cp._replace(**{field: value + 1})
    return cp._replace(**{field: SchlafliSymbol(value.p, value.q + 1)})


class TestEvenGenusCheck:
    @pytest.mark.parametrize("edit", CodeParameters._fields[1:] + ("dropped", "added"))
    def test_any_disagreement_fails(self, monkeypatch, edit):
        # verify's "even-genus equivalence" against N_2h enumerations with
        # the last design edited in one field, dropped, or joined by another
        real = design.enumerate_admissible

        def edited(surface, *bounds):
            out = real(surface, *bounds)
            if surface.orientable or not out:
                return out
            if edit == "dropped":
                return out[:-1]
            if edit == "added":
                return out + [_bumped(out[-1], "sym")]
            return out[:-1] + [_bumped(out[-1], edit)]

        monkeypatch.setattr(design, "enumerate_admissible", edited)
        check = checks.theorems()[0]
        assert check.name == "even-genus equivalence" and not check.ok


class TestAsymmetryCurve:
    def test_distances_match_code_parameters(self):
        pts = asymmetry_curve(SchlafliSymbol(3, 8), range(3, 20))
        for pt in pts:
            cp = code_parameters(NO(pt.genus), SchlafliSymbol(3, 8))
            assert (pt.d_z, pt.d_x) == (cp.d_z, cp.d_x)

    def test_skips_inadmissible_with_notice(self, caplog):
        with caplog.at_level(logging.INFO, logger="aqsc.design"):
            pts = asymmetry_curve(SchlafliSymbol(3, 10), (4, 5, 6, 7))
        genera = [pt.genus for pt in pts]
        assert 5 not in genera          # vertex count 9/2
        assert any("skipping genus 5" in rec.getMessage()
                   for rec in caplog.records)

    def test_each_genus_tested_once(self, monkeypatch):
        # one application of the rule per genus, the failing genus 5 too:
        # its failure text comes from the counts already in hand
        genera = []
        counts = design._counts

        def counting(euler, p, q):
            genera.append(2 - euler)
            return counts(euler, p, q)

        monkeypatch.setattr(design, "_counts", counting)
        pts = asymmetry_curve(SchlafliSymbol(3, 10), (4, 5, 6, 7))
        assert genera == [4, 5, 6, 7]
        assert 5 not in [pt.genus for pt in pts]

    @pytest.mark.parametrize("p,q,kind", [(3, 3, "spherical"), (4, 4, "euclidean")])
    def test_flat_symbol_raises(self, p, q, kind):
        # admissible at no genus, so not an empty series
        with pytest.raises(NotAdmissible, match=f"is {kind}"):
            asymmetry_curve(SchlafliSymbol(p, q), (3, 5, 7))

    def test_gap_not_monotone(self):
        # the gap grows on trend but dips at genus 13; record the fact
        pts = asymmetry_curve(SchlafliSymbol(3, 7), range(5, 15, 2))
        gaps = {pt.genus: pt.gap for pt in pts}
        assert gaps[11] == 5 and gaps[13] == 4
