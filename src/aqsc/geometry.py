"""Hyperbolic geometry of regular tessellations and fundamental polygons.

A regular tessellation is written as a Schlafli symbol {p,q}: p-gonal faces,
q of them meeting at every vertex.  It lives on a hyperbolic surface exactly
when pq - 2p - 2q > 0.  Closed surfaces are produced by identifying edges of
a regular fundamental polygon ({4h,4h} for orientable genus h, {2g,2g} for
non-orientable genus g).  This module gives the symbols, the surfaces,
the fundamental polygon of each surface, and the two metric quantities the
designs need: the edge length of a {p,q} face and the distance between
opposite edges of the fundamental polygon.  Gluing polygons into complexes
is `homology.complex_from_polygons`'s job.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


class GeometryError(ValueError):
    """A geometric precondition failed."""


class NotHyperbolic(GeometryError):
    """The tessellation is Euclidean or spherical."""


class NonHyperbolicSurface(GeometryError):
    """The surface has nonnegative Euler characteristic."""


class DegeneratePolygon(GeometryError):
    """The polygon is too small to carry a hyperbolic structure."""


@dataclass(frozen=True, order=True)
class SchlafliSymbol:
    """Tessellation symbol {p,q}: p-gons, q around each vertex."""

    p: int
    q: int

    def __post_init__(self) -> None:
        # the exact type, as a bool is an int that would pass as 0 or 1
        if not (type(self.p) is int and type(self.q) is int):
            raise TypeError(f"need integer p, q, got {{{self.p},{self.q}}}")
        if self.p < 3 or self.q < 3:
            raise ValueError(f"need p, q >= 3, got {{{self.p},{self.q}}}")

    @property
    def excess(self) -> int:
        """pq - 2p - 2q; positive exactly for hyperbolic symbols."""
        return self.p * self.q - 2 * self.p - 2 * self.q

    @property
    def kind(self) -> str:
        """'hyperbolic', 'euclidean' or 'spherical', by the sign of the excess."""
        if self.excess > 0:
            return "hyperbolic"
        return "euclidean" if self.excess == 0 else "spherical"

    @property
    def is_hyperbolic(self) -> bool:
        return self.excess > 0

    @property
    def dual(self) -> "SchlafliSymbol":
        """{q,p}, interned: `symbol(q, p)`, so `sym.dual is sym.dual`."""
        return symbol(self.q, self.p)

    def __str__(self) -> str:
        return f"{{{self.p},{self.q}}}"


@dataclass(frozen=True)
class Surface:
    """Closed surface, orientable (genus h) or non-orientable (genus g)."""

    genus: int
    orientable: bool = True

    def __post_init__(self) -> None:
        if type(self.genus) is not int:   # not a bool, as for SchlafliSymbol
            raise TypeError(f"need an integer genus, got {self.genus}")
        if self.genus < 1:
            raise ValueError(f"genus must be positive, got {self.genus}")

    @property
    def euler_characteristic(self) -> int:
        if self.orientable:
            return 2 - 2 * self.genus
        return 2 - self.genus

    @property
    def is_hyperbolic(self) -> bool:
        return self.euler_characteristic < 0

    @property
    def polygon_sides(self) -> int:
        """N of the fundamental polygon {N,N}: 4h orientable, 2g non-orientable."""
        return 4 * self.genus if self.orientable else 2 * self.genus

    def __str__(self) -> str:
        kind = "orientable" if self.orientable else "non-orientable"
        return f"{kind} genus-{self.genus} surface"


@functools.lru_cache(maxsize=None, typed=True)
def symbol(p: int, q: int) -> SchlafliSymbol:
    """SchlafliSymbol(p, q), built once per process for each (p, q).

    Typed, so that (3.0, 7.0) raises `TypeError` even after {3,7} is
    cached, rather than hitting its entry.
    """
    return SchlafliSymbol(p, q)


def fundamental_polygon(surface: Surface) -> SchlafliSymbol:
    """Self-tessellating polygon carrying the surface: {4h,4h} or {2g,2g}.

    Its side count N is stated once, as `Surface.polygon_sides`.
    """
    if not surface.is_hyperbolic:
        raise NonHyperbolicSurface(str(surface))
    n = surface.polygon_sides
    return SchlafliSymbol(n, n)


def edge_length(sym: SchlafliSymbol) -> float:
    """Side length of the {p,q} face.

    cosh l = (cos^2(pi/q) + cos(2pi/p)) / sin^2(pi/q), equivalently
    cosh(l/2) = cos(pi/p)/sin(pi/q); the argument exceeds 1 exactly when
    the symbol is hyperbolic.  Computed once per process for each (p, q);
    a raise is not cached, so a bad symbol raises on every call.
    """
    return _edge_length(sym.p, sym.q)


@functools.cache
def _edge_length(p: int, q: int) -> float:
    sym = SchlafliSymbol(p, q)   # on a cache miss only
    if sym.excess <= 0:
        raise NotHyperbolic(f"{sym} is {sym.kind}")
    try:
        s = math.sin(math.pi / q)
        arg = (math.cos(math.pi / q) ** 2 + math.cos(2 * math.pi / p)) / (s * s)
    except (OverflowError, ZeroDivisionError):
        arg = math.inf
    if math.isinf(arg):   # a subnormal s * s divides to inf without raising
        raise GeometryError(f"edge length of {sym} is out of float range")
    return math.acosh(arg)


@functools.cache
def opposite_edge_distance(n_gon: int) -> float:
    """Distance between opposite edges of the regular {N,N} polygon.

    Twice the inradius: 2 arccosh(cot(pi/N)).  Needs N even and N >= 6;
    the hexagon ({6,6}, non-orientable genus 3) is the smallest case with
    a hyperbolic structure.  Computed once per process for each N; a raise
    is not cached.
    """
    if n_gon % 2 != 0 or n_gon < 6:
        raise DegeneratePolygon(f"need an even N >= 6, got {n_gon}")
    try:
        return 2.0 * math.acosh(1.0 / math.tan(math.pi / n_gon))
    except (OverflowError, ZeroDivisionError) as exc:
        raise GeometryError(
            f"opposite-edge distance of the {n_gon}-gon is out of float range") from exc
