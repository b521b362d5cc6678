import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqsc.geometry import (
    DegeneratePolygon,
    EdgePairing,
    GeometryError,
    NonHyperbolicSurface,
    NotHyperbolic,
    OddEdgeCount,
    SchlafliSymbol,
    Surface,
    edge_length,
    fundamental_polygon,
    opposite_edge_distance,
    opposite_edge_pairing,
)
from aqsc.homology import complex_from_pairing

symbols = st.builds(SchlafliSymbol, st.integers(3, 40), st.integers(3, 40))
hyperbolic_symbols = symbols.filter(lambda s: s.is_hyperbolic)


# Plane geometry used only as an independent oracle for the metric formulas:
# points are complex numbers, in the upper half-plane or the Poincare disk.

def _half_plane_distance(z1: complex, z2: complex) -> float:
    """cosh d = 1 + |z1-z2|^2 / (2 y1 y2)."""
    return math.acosh(max(1.0, 1.0 + abs(z1 - z2) ** 2 / (2.0 * z1.imag * z2.imag)))


def _disk_distance(z1: complex, z2: complex) -> float:
    """cosh d = 1 + 2|z1-z2|^2 / ((1-|z1|^2)(1-|z2|^2))."""
    den = (1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2)
    return math.acosh(max(1.0, 1.0 + 2.0 * abs(z1 - z2) ** 2 / den))


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
        assert sym.dual.dual == sym
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

    @pytest.mark.parametrize("n,printed", [
        (10, 3.5796), (14, 4.3144), (18, 4.8414), (22, 5.2548),
    ])
    def test_opposite_edge_distance_values(self, n, printed):
        got = opposite_edge_distance(n)
        assert got == pytest.approx(printed, abs=5e-4)
        assert got == pytest.approx(2 * math.acosh(1 / math.tan(math.pi / n)), abs=1e-12)

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


def _orbit_oracle(pairing):
    """Corner classes by closure of the gluing identifications."""
    n = pairing.n_edges
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for (i, j), rev in zip(pairing.pairs, pairing.reversing):
        if rev:
            # sides traversed in the same direction: tails and heads match up
            union(i, j)
            union(i % n + 1, j % n + 1)
        else:
            union(i, j % n + 1)
            union(i % n + 1, j)
    classes = {}
    for c in range(1, n + 1):
        classes.setdefault(find(c), set()).add(c)
    return sorted(frozenset(s) for s in classes.values())


def _class_sizes(pairing):
    """Sizes of the oracle's corner classes, ordered by smallest corner."""
    return [len(c) for c in sorted(_orbit_oracle(pairing), key=min)]


def _degrees(cx):
    """Endpoint slots per vertex; a loop counts twice."""
    ends = [u for pair in cx.edge_endpoints for u in pair]
    return [ends.count(u) for u in range(cx.n_vertices)]


def _random_pairing(rng, n):
    sides = list(range(1, n + 1))
    rng.shuffle(sides)
    pairs = tuple(tuple(sorted((sides[2 * i], sides[2 * i + 1]))) for i in range(n // 2))
    flags = tuple(rng.random() < 0.5 for _ in range(n // 2))
    return EdgePairing(n, pairs, flags)


class TestEdgePairing:
    def test_decagon_opposite_pairs(self):
        pr = opposite_edge_pairing(10)
        assert set(pr.pairs) == {(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)}
        assert not any(pr.reversing)

    def test_non_orientable_flags(self):
        pr = opposite_edge_pairing(6, orientable=False)
        assert pr.reversing == (True, False, False)

    def test_two_gon(self):
        assert opposite_edge_pairing(2).pairs == ((1, 2),)
        assert opposite_edge_pairing(2, orientable=False).reversing == (True,)

    def test_odd_rejected(self):
        with pytest.raises(OddEdgeCount):
            opposite_edge_pairing(7)
        with pytest.raises(OddEdgeCount):
            EdgePairing(3, ((1, 2),), (False,))

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            EdgePairing(4, ((1, 2), (2, 3)), (False, False))
        with pytest.raises(ValueError):
            EdgePairing(4, ((1, 2), (3, 4)), (False,))


class TestVertexCycles:
    """The vertices of complex_from_pairing against the closure oracle."""

    def test_torus_square(self):
        assert _degrees(complex_from_pairing(opposite_edge_pairing(4))) == [4]

    def test_orientable_polygons_single_vertex(self):
        for h in range(1, 7):
            assert _degrees(complex_from_pairing(opposite_edge_pairing(4 * h))) == [4 * h]

    def test_non_orientable_polygons_single_vertex(self):
        for g in range(1, 13):
            cx = complex_from_pairing(opposite_edge_pairing(2 * g, orientable=False))
            assert _degrees(cx) == [2 * g]

    def test_sphere_two_vertices(self):
        assert _degrees(complex_from_pairing(opposite_edge_pairing(2))) == [1, 1]

    def test_all_reversing_is_projective_plane(self):
        # pairing every opposite side in the same direction is the antipodal
        # quotient: chi = 1 regardless of N
        for half in (2, 3, 4, 5):
            n = 2 * half
            pr = EdgePairing(n, tuple((i, i + half) for i in range(1, half + 1)),
                             tuple(True for _ in range(half)))
            assert complex_from_pairing(pr).euler_characteristic == 1, n

    def test_partition_property_seeded(self):
        rng = random.Random(42)
        for _ in range(200):
            pr = _random_pairing(rng, 2 * rng.randint(1, 9))
            assert _degrees(complex_from_pairing(pr)) == _class_sizes(pr), pr

    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_partition_property_hypothesis(self, half, rng):
        pr = _random_pairing(rng, 2 * half)
        assert _degrees(complex_from_pairing(pr)) == _class_sizes(pr)
