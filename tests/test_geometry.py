import cmath
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from aqsc import geometry
from aqsc.design import asymmetry_curve
from aqsc.geometry import (
    DegeneratePolygon,
    GeometryError,
    NonHyperbolicSurface,
    NotHyperbolic,
    SchlafliSymbol,
    Surface,
    edge_length,
    fundamental_polygon,
    opposite_edge_distance,
)
from aqsc.homology import build_polygon_code, complex_from_polygons

symbols = st.builds(SchlafliSymbol, st.integers(3, 40), st.integers(3, 40))
hyperbolic_symbols = symbols.filter(lambda s: s.is_hyperbolic)


# Plane geometry used only as an independent oracle for the metric formulas:
# points are complex numbers, in the upper half-plane or the Poincare disk.
# Each evaluates its docstring's formula as sinh(d/2), by cosh d = 1 + 2 sinh^2(d/2):
# acosh(1 + x) loses every digit of a tiny x, so two distinct nearby points
# would measure 0 apart and break the triangle inequality.

def _half_plane_distance(z1: complex, z2: complex) -> float:
    """cosh d = 1 + |z1-z2|^2 / (2 y1 y2)."""
    return 2.0 * math.asinh(abs(z1 - z2) / (2.0 * math.sqrt(z1.imag * z2.imag)))


def _disk_distance(z1: complex, z2: complex) -> float:
    """cosh d = 1 + 2|z1-z2|^2 / ((1-|z1|^2)(1-|z2|^2))."""
    den = (1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2)
    return 2.0 * math.asinh(abs(z1 - z2) / math.sqrt(den))


def _circumradius(sym):
    """Center-to-vertex distance: cosh R = cot(pi/p) cot(pi/q)."""
    return math.acosh(1.0 / (math.tan(math.pi / sym.p) * math.tan(math.pi / sym.q)))


def _inradius(sym):
    """Center-to-edge distance: cosh r = cos(pi/q) / sin(pi/p)."""
    return math.acosh(math.cos(math.pi / sym.q) / math.sin(math.pi / sym.p))


def _vertices(sym):
    """Corners of the centered regular {p,q} face in the Poincare disk."""
    r = math.tanh(_circumradius(sym) / 2.0)
    return [r * cmath.exp(2j * math.pi * k / sym.p) for k in range(sym.p)]


def _triangle_area(alpha, beta, gamma):
    """Gauss-Bonnet: pi minus the angle sum, for a hyperbolic triangle."""
    if min(alpha, beta, gamma) < 0 or alpha + beta + gamma >= math.pi:
        raise ValueError("not the angles of a hyperbolic triangle")
    return math.pi - alpha - beta - gamma


def _face_area(sym):
    """Gauss-Bonnet for the p-gon with every interior angle 2 pi / q."""
    return (sym.p - 2) * math.pi - sym.p * 2 * math.pi / sym.q


class TestSchlafliSymbol:
    def test_excess_sign_classifies(self):
        assert SchlafliSymbol(3, 7).kind == "hyperbolic"
        assert SchlafliSymbol(4, 4).kind == "euclidean"
        assert SchlafliSymbol(3, 5).kind == "spherical"

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            SchlafliSymbol(2, 7)
        with pytest.raises(ValueError):
            SchlafliSymbol(3, 2)

    @given(symbols)
    def test_dual_involution(self, sym):
        assert sym.dual == SchlafliSymbol(sym.q, sym.p)
        assert sym.dual.dual == sym
        assert sym.dual is sym.dual   # interned
        assert sym.dual.excess == sym.excess

    def test_str(self):
        assert str(SchlafliSymbol(3, 7)) == "{3,7}"


class TestSurface:
    def test_euler_characteristic(self):
        assert Surface(2, True).euler_characteristic == -2
        assert Surface(5, False).euler_characteristic == -3
        assert Surface(1, True).euler_characteristic == 0
        assert Surface(2, False).euler_characteristic == 0
        assert Surface(1, False).euler_characteristic == 1

    def test_hyperbolic_threshold(self):
        assert not Surface(1, True).is_hyperbolic
        assert Surface(2, True).is_hyperbolic
        assert not Surface(2, False).is_hyperbolic
        assert Surface(3, False).is_hyperbolic

    def test_rejects_nonpositive_genus(self):
        with pytest.raises(ValueError):
            Surface(0)

    def test_rejects_non_integer_genus(self):
        # a float genus would print a record of floats while enumeration
        # fails in range(), and True, an int subclass, would print
        # "genus-True surface"; both kinds refuse either at construction
        for genus in (5.0, True):
            for orientable in (True, False):
                with pytest.raises(TypeError, match=f"need an integer genus, got {genus}$"):
                    Surface(genus, orientable)


class TestDistance:
    # these pin the oracle helpers above against known values
    def test_imaginary_axis(self):
        assert _half_plane_distance(1j, 2j) == pytest.approx(math.log(2), abs=1e-12)

    @given(st.floats(-5, 5), st.floats(0.05, 5), st.floats(-5, 5), st.floats(0.05, 5))
    def test_symmetry_and_identity(self, x1, y1, x2, y2):
        z1, z2 = complex(x1, y1), complex(x2, y2)
        assert _half_plane_distance(z1, z2) == _half_plane_distance(z2, z1)
        assert _half_plane_distance(z1, z1) == 0.0

    @given(st.floats(-3, 3), st.floats(0.1, 3), st.floats(-3, 3), st.floats(0.1, 3),
           st.floats(-3, 3), st.floats(0.1, 3))
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        a, b, c = complex(x1, y1), complex(x2, y2), complex(x3, y3)
        assert (_half_plane_distance(a, c)
                <= _half_plane_distance(a, b) + _half_plane_distance(b, c) + 1e-9)

    def test_disk_center(self):
        # cosh d = (1+r^2)/(1-r^2) from the center
        r = 0.5
        d = _disk_distance(0j, complex(r))
        assert d == pytest.approx(math.acosh((1 + r * r) / (1 - r * r)), abs=1e-12)


class TestAreas:
    def test_triangle_area_formula(self):
        assert _triangle_area(0, 0, 0) == pytest.approx(math.pi)
        assert _triangle_area(math.pi / 7, math.pi / 7, math.pi / 7) == pytest.approx(
            math.pi - 3 * math.pi / 7)

    def test_rejects_euclidean_and_spherical_sums(self):
        with pytest.raises(ValueError):
            _triangle_area(math.pi / 3, math.pi / 3, math.pi / 3)
        with pytest.raises(ValueError):
            _triangle_area(math.pi / 2, math.pi / 2, math.pi / 2)
        with pytest.raises(ValueError):
            _triangle_area(-0.1, 0.2, 0.3)

    @given(hyperbolic_symbols)
    def test_polygon_area_is_fan_of_triangles(self, sym):
        fan = sym.p * _triangle_area(2 * math.pi / sym.p, math.pi / sym.q, math.pi / sym.q)
        assert _face_area(sym) == pytest.approx(fan, abs=1e-12)

    def test_measured_interior_angles(self):
        # place the polygon, measure each interior angle by the hyperbolic
        # law of cosines, recover the area by Gauss-Bonnet
        for p, q in [(3, 7), (4, 5), (8, 8), (5, 4), (7, 3)]:
            sym = SchlafliSymbol(p, q)
            pts = _vertices(sym)
            total = 0.0
            for k in range(p):
                a = _disk_distance(pts[k], pts[(k - 1) % p])
                b = _disk_distance(pts[k], pts[(k + 1) % p])
                c = _disk_distance(pts[(k - 1) % p], pts[(k + 1) % p])
                cos_angle = ((math.cosh(a) * math.cosh(b) - math.cosh(c))
                             / (math.sinh(a) * math.sinh(b)))
                angle = math.acos(max(-1.0, min(1.0, cos_angle)))
                assert angle == pytest.approx(2 * math.pi / q, abs=1e-9)
                total += angle
            assert (p - 2) * math.pi - total == pytest.approx(_face_area(sym), abs=1e-8)


class TestMetricQuantities:
    # four-decimal values cross-checked by hand against cosh l =
    # (cos^2(pi/q) + cos(2pi/p)) / sin^2(pi/q)
    @pytest.mark.parametrize("p,q,printed", [
        (3, 7, 1.0905), (7, 3, 0.5663), (4, 8, 2.4485), (3, 21, 3.7611),
        (21, 3, 1.0529), (5, 8, 2.7609), (8, 5, 2.0481), (4, 5, 1.2537),
        (5, 4, 1.0613),
    ])
    def test_edge_length_values(self, p, q, printed):
        assert edge_length(SchlafliSymbol(p, q)) == pytest.approx(printed, abs=5e-4)

    @given(hyperbolic_symbols)
    def test_half_side_identity(self, sym):
        l = edge_length(sym)
        lhs = math.cosh(l / 2)
        rhs = math.cos(math.pi / sym.p) / math.sin(math.pi / sym.q)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(hyperbolic_symbols)
    def test_vertices_realize_edge_length(self, sym):
        pts = _vertices(sym)
        l = edge_length(sym)
        got = _disk_distance(pts[0], pts[1])
        assert got == pytest.approx(l, abs=1e-9)

    @given(hyperbolic_symbols)
    def test_circumradius_from_center(self, sym):
        assert _disk_distance(0j, _vertices(sym)[0]) == pytest.approx(
            _circumradius(sym), abs=1e-12)

    @given(hyperbolic_symbols)
    def test_inradius_below_circumradius(self, sym):
        assert 0 < _inradius(sym) < _circumradius(sym)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotHyperbolic, match="euclidean"):
            edge_length(SchlafliSymbol(4, 4))
        with pytest.raises(NotHyperbolic, match="spherical"):
            edge_length(SchlafliSymbol(3, 5))

    def test_float_range_is_a_geometry_error(self):
        # sin(pi/q)^2 underflows to 0; the integer is too large for a float
        with pytest.raises(GeometryError, match="float range"):
            edge_length(SchlafliSymbol(3, 6 * (10 ** 200 - 1)))
        # sin(pi/q)^2 is subnormal, and dividing by it gives inf, not an error
        with pytest.raises(GeometryError, match="float range"):
            edge_length(SchlafliSymbol(3, 6 * (2 * 10 ** 154 - 1)))
        with pytest.raises(GeometryError, match="float range"):
            opposite_edge_distance(2 * 10 ** 400)

    @given(st.integers(3, 60))
    def test_opposite_edge_distance_is_twice_inradius(self, half):
        n = 2 * half
        assert opposite_edge_distance(n) == pytest.approx(
            2 * _inradius(SchlafliSymbol(n, n)), abs=1e-12)

    def test_opposite_edge_distance_degenerate(self):
        with pytest.raises(DegeneratePolygon):
            opposite_edge_distance(5)
        with pytest.raises(DegeneratePolygon):
            opposite_edge_distance(4)
        # hexagon is the smallest hyperbolic case
        assert opposite_edge_distance(6) > 0

    def test_fundamental_polygon(self):
        assert fundamental_polygon(Surface(2, True)) == SchlafliSymbol(8, 8)
        assert fundamental_polygon(Surface(5, False)) == SchlafliSymbol(10, 10)
        with pytest.raises(NonHyperbolicSurface):
            fundamental_polygon(Surface(1, True))
        with pytest.raises(NonHyperbolicSurface):
            fundamental_polygon(Surface(2, False))


def _closed_form(p, q):
    """The edge-length formula of `edge_length`, evaluated with no memo."""
    s = math.sin(math.pi / q)
    return math.acosh((math.cos(math.pi / q) ** 2 + math.cos(2 * math.pi / p)) / (s * s))


class TestMemo:
    """The per-process caches behind edge_length, opposite_edge_distance and
    dual change no value, no exception and no message."""

    @given(st.integers(3, 10 ** 4), st.integers(3, 10 ** 4), st.booleans())
    def test_edge_length_is_the_closed_form(self, p, q, dual_first):
        assume((p - 2) * (q - 2) > 4)   # hyperbolic
        geometry._edge_length.cache_clear()
        order = [(q, p), (p, q)] if dual_first else [(p, q), (q, p)]
        for a, b in order + order:   # cold, then warm
            assert edge_length(SchlafliSymbol(a, b)) == _closed_form(a, b)

    @pytest.mark.parametrize("call,exc,text", [
        (lambda: edge_length(SchlafliSymbol(4, 4)), NotHyperbolic, "{4,4} is euclidean"),
        (lambda: edge_length(SchlafliSymbol(3, 6)), NotHyperbolic, "{3,6} is euclidean"),
        (lambda: edge_length(SchlafliSymbol(3, 6 * (2 * 10 ** 154 - 1))), GeometryError,
         f"edge length of {{3,{6 * (2 * 10 ** 154 - 1)}}} is out of float range"),
        (lambda: opposite_edge_distance(5), DegeneratePolygon, "need an even N >= 6, got 5"),
        # the 10-gon's distance is cached first, so a memo keyed on N // 2 answers
        (lambda: opposite_edge_distance(10) and opposite_edge_distance(11),
         DegeneratePolygon, "need an even N >= 6, got 11"),
    ], ids=["{4,4}", "{3,6}", "float range", "5-gon", "11-gon after 10-gon"])
    def test_raises_on_every_call(self, call, exc, text):
        for _ in range(2):
            with pytest.raises(exc) as info:
                call()
            assert type(info.value) is exc and str(info.value) == text

    def test_float_symbols_raise_on_cold_and_warm_cache(self):
        # the second pass finds {3,7} cached, which an untyped cache would
        # hand back for (3.0, 7.0) instead of raising; a bool is an int
        # subclass, which the construction check refuses on either pass
        geometry.symbol.cache_clear()
        for _ in range(2):
            for p, q in ((3.0, 7.0), (3.5, 7), (7, 3.0), (True, 7)):
                with pytest.raises(TypeError, match=r"need integer p, q, got \{"):
                    geometry.symbol(p, q)
            assert str(geometry.symbol(3, 7).dual) == "{7,3}"
        with pytest.raises(TypeError):
            SchlafliSymbol(7.0, 3.0)

    def test_asymmetry_series_computes_each_length_once(self):
        geometry._edge_length.cache_clear()
        opposite_edge_distance.cache_clear()
        points = asymmetry_curve(SchlafliSymbol(3, 7), range(3, 33))
        assert len(points) > 1
        assert geometry._edge_length.cache_info().misses == 2   # {3,7} and {7,3}
        assert opposite_edge_distance.cache_info().misses == len(points)


def _degrees(cx):
    """Endpoint slots per vertex; a loop counts twice."""
    ends = [u for pair in cx.edge_endpoints for u in pair]
    return [ends.count(u) for u in range(cx.n_vertices)]


class TestEdgePairing:
    """The side pairing of build_polygon_code: side i glued to side i + N/2."""

    def test_decagon_opposite_pairs(self):
        cx = build_polygon_code(10)
        assert cx.face_boundaries == ((0, 1, 2, 3, 4) * 2,)
        assert cx == complex_from_polygons([10], [(i, i + 5, False) for i in range(5)])

    def test_non_orientable_flags(self):
        # only the first pair keeps the boundary direction
        assert build_polygon_code(6, orientable=False) == complex_from_polygons(
            [6], [(0, 3, True), (1, 4, False), (2, 5, False)])

    def test_two_gon(self):
        assert build_polygon_code(2) == complex_from_polygons([2], [(0, 1, False)])
        assert build_polygon_code(2, orientable=False) == complex_from_polygons(
            [2], [(0, 1, True)])

    def test_odd_rejected(self):
        for n in (7, 3, 1, 0, -2):
            with pytest.raises(ValueError):
                build_polygon_code(n)


class TestVertexCycles:
    """The vertex degrees of glued polygons."""

    def test_torus_square(self):
        assert _degrees(build_polygon_code(4)) == [4]

    def test_orientable_polygons_single_vertex(self):
        for h in range(1, 7):
            assert _degrees(build_polygon_code(4 * h)) == [4 * h]

    def test_non_orientable_polygons_single_vertex(self):
        for g in range(1, 13):
            assert _degrees(build_polygon_code(2 * g, orientable=False)) == [2 * g]

    def test_sphere_two_vertices(self):
        assert _degrees(build_polygon_code(2)) == [1, 1]

    def test_all_reversing_is_projective_plane(self):
        # pairing every opposite side in the same direction is the antipodal
        # quotient: chi = 1 regardless of N
        for half in (2, 3, 4, 5):
            cx = complex_from_polygons([2 * half], [(i, i + half, True) for i in range(half)])
            assert cx.euler_characteristic == 1, half
