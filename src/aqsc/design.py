"""Asymmetric surface-code design from regular hyperbolic tessellations.

A {p,q} tessellation of a closed hyperbolic surface yields a CSS code with
qubits on edges: X stabilizers on faces, Z stabilizers on vertex stars, so
undetected bit flips run along primal cycles and phase flips along dual
ones.  With p < q the dual edges are the shorter, so the two logical
distances split: d_z (phase flips) grows past d_x (bit flips).
Everything here is combinatorial and exact up to the final distance
estimates, which divide the fundamental polygon's opposite-edge distance by
the tessellation edge lengths.

Face and vertex counts are computed in exact integer arithmetic from the
Euler characteristic; a tessellation is admissible on a surface only when
both land on positive integers.
"""

from __future__ import annotations

import logging
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .geometry import (
    SchlafliSymbol,
    Surface,
    NonHyperbolicSurface,
    NotHyperbolic,
    edge_length,
    opposite_edge_distance,
)

log = logging.getLogger(__name__)


class DesignError(ValueError):
    """A design-level precondition failed."""


class NotAdmissible(DesignError):
    """The tessellation does not close up on the surface."""


class UnsupportedSymbol(DesignError):
    """The symbol is not admissible at every genus, so it has no closed form."""


class DegenerateGenus(DesignError):
    """The requested genus breaks the rate comparison (division by zero)."""


def face_count(surface: Surface, sym: SchlafliSymbol) -> Fraction:
    """Number of {p,q} faces on the surface, as an exact rational.

    Counting incidences, E = p n_f / 2 and V = p n_f / q, so chi =
    V - E + F forces n_f = -2 q chi / (pq - 2p - 2q).
    """
    if not surface.is_hyperbolic:
        raise NonHyperbolicSurface(str(surface))
    if not sym.is_hyperbolic:
        raise NotHyperbolic(f"{sym} is {sym.kind}")
    return Fraction(-2 * sym.q * surface.euler_characteristic, sym.excess)


def _counts(euler: int, p: int, q: int) -> tuple[int, int]:
    """(n_f, n_v) of {p,q} on a surface of Euler characteristic chi.

    The admissibility rule, stated once: n_f = -2 q chi / e and n_v =
    -2 p chi / e, with e = pq - 2p - 2q, must be positive integers, which
    needs chi < 0 < e.  A count that fails comes back as 0, and a failing
    face count zeroes both.
    """
    e = p * q - 2 * p - 2 * q
    faces = -2 * q * euler
    if e <= 0 or faces <= 0 or faces % e:
        return 0, 0
    vertices = -2 * p * euler
    return faces // e, (0 if vertices % e else vertices // e)


def _reason(surface: Surface, sym: SchlafliSymbol, euler: int, n_f: int) -> str:
    """Why {p,q} fails `_counts`, from chi and its n_f; n_v is n_f of {q,p}."""
    if euler >= 0:
        return f"{surface} is not hyperbolic"
    if sym.excess <= 0:
        return f"{sym} is {sym.kind}"
    if not n_f:
        return f"face count {face_count(surface, sym)} is not a positive integer"
    return f"vertex count {face_count(surface, sym.dual)} is not a positive integer"


def admissibility(surface: Surface, sym: SchlafliSymbol) -> Optional[str]:
    """Why {p,q} does not tessellate the surface with integer counts, or
    None when it does."""
    euler = surface.euler_characteristic
    n_f, n_v = _counts(euler, sym.p, sym.q)
    return None if n_v else _reason(surface, sym, euler, n_f)


def _ceil_ratio(num: float, den: float) -> int:
    """ceil(num/den), snapping ratios within 1e-9 of an integer.

    The fundamental polygon {N,N} gives ratio exactly 1 in exact
    arithmetic, but floats can land on 1.0000000000000002 ({10,10} on
    non-orientable genus 5), which ceiling would inflate to 2.
    """
    ratio = num / den
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-9:
        return int(nearest)
    return math.ceil(ratio)


class CodeParameters(NamedTuple):
    """Parameters of the surface code cut out by {p,q} on a closed surface.

    Distances here are the geometric estimates: the separation d_h of
    identified opposite edges of the fundamental polygon, measured in
    tessellation edge lengths of {p,q} for d_x (bit flips travel the primal
    graph) and of {q,p} for d_z (phase flips travel the dual graph).  The
    exact layer places its checks to match: X on faces, Z on vertex stars.
    The fields are what was computed; n, k and the rest are derived.
    """

    surface: Surface
    sym: SchlafliSymbol
    n_f: int
    n_v: int
    d_z: int
    d_x: int
    d_h: float
    l_pq: float
    l_qp: float
    distance_provenance = "formula"   # a class attribute, not a field

    @property
    def n(self) -> int:
        return self.n_f + self.n_v - self.surface.euler_characteristic   # V - E + F = chi

    @property
    def k(self) -> int:
        return 2 - self.surface.euler_characteristic

    @property
    def gap(self) -> int:
        return self.d_z - self.d_x

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    @property
    def record(self) -> str:
        return f"[[{self.n},{self.k},{self.d_z}/{self.d_x}]]"

    def __str__(self) -> str:
        return f"{self.sym} on {self.surface}: {self.record}"


def code_parameters(surface: Surface, sym: SchlafliSymbol) -> CodeParameters:
    """Design the code for {p,q} on the surface; raises NotAdmissible.

    Built from integers: chi is read once, `_counts` runs once, and d_h comes
    from `Surface.polygon_sides`, so the only symbol built is {q,p}.
    """
    euler = surface.euler_characteristic
    n_f, n_v = _counts(euler, sym.p, sym.q)
    if not n_v:
        raise NotAdmissible(_reason(surface, sym, euler, n_f))
    d_h = opposite_edge_distance(surface.polygon_sides)
    return _design(surface, sym, sym.dual, n_f, n_v, d_h)


def _design(surface: Surface, sym: SchlafliSymbol, dual: SchlafliSymbol, n_f: int,
            n_v: int, d_h: float) -> CodeParameters:
    """The record, in field order: d_z over the dual edge, d_x over the primal."""
    l_pq = edge_length(sym)
    l_qp = edge_length(dual)
    return CodeParameters(surface, sym, n_f, n_v, _ceil_ratio(d_h, l_qp),
                          _ceil_ratio(d_h, l_pq), d_h, l_pq, l_qp)


def symbol_bound(surface: Surface) -> int:
    """A bound on p and q of every admissible {p,q} on the surface: 6(|chi|+1).

    n_f >= 1 and n_v >= 1 force excess <= 2 min(p,q) |chi|, so with p <= q,
    (p - 2) q <= 2p(|chi| + 1), and 2p/(p - 2) <= 6.  A surface with
    chi >= 0 admits nothing, so its bound is 2.
    """
    euler = surface.euler_characteristic
    return 6 * (abs(euler) + 1) if euler < 0 else 2


def enumerate_admissible(surface: Surface, p_max: int, q_max: int) -> list[CodeParameters]:
    """All admissible {p,q} codes on the surface with p <= p_max, q <= q_max.

    Sorted by (p, q).  Only pairs a <= b are scanned: row a walks the
    excess e = (a-2)b - 2a in steps of a - 2, from the first b >= a with
    e > 0 up to b = min(max(p_max, q_max), symbol_bound) or e = 2a|chi|,
    past which n_v < 1.  Each pair costs one remainder, 2a|chi| mod e, and
    `_counts` decides the survivors.  Each admitted pair builds one record,
    with d_h once per call, and {b,a} reuses it with counts, lengths and
    distances swapped.  chi >= 0 has bound 2, so it yields [] at once.
    """
    p_top, q_top = (min(m, symbol_bound(surface)) for m in (p_max, q_max))
    euler = surface.euler_characteristic
    out, d_h = [], 0.0
    for a in range(3, min(p_top, q_top) + 1):
        vertices = -2 * a * euler
        b0 = max(a, 2 * a // (a - 2) + 1)
        e_last = min((a - 2) * max(p_top, q_top) - 2 * a, vertices)
        row = range((a - 2) * b0 - 2 * a, e_last + 1, a - 2)
        for b in [(e + 2 * a) // (a - 2) for e in row if not vertices % e]:
            n_f, n_v = _counts(euler, a, b)
            if not n_v:
                continue
            d_h = d_h or opposite_edge_distance(surface.polygon_sides)
            dual = SchlafliSymbol(b, a)
            cp = _design(surface, SchlafliSymbol(a, b), dual, n_f, n_v, d_h)
            if b <= q_top:
                out.append(cp)
            if a != b and b <= p_top:
                out.append(CodeParameters(surface, dual, n_v, n_f, cp.d_x, cp.d_z,
                                          d_h, cp.l_qp, cp.l_pq))
    return sorted(out, key=lambda cp: (cp.sym.p, cp.sym.q))


def _times_g_minus_2(coeff: int) -> str:
    return "g-2" if coeff == 1 else f"{coeff}(g-2)"


class FamilyForm(NamedTuple):
    """Closed-form parameter family of {p,q} on non-orientable genus g.

    n_f and n are linear in g - 2 and k = g for every g >= 3; these are
    the symbols whose counts are integral for all genera at once.
    """

    sym: SchlafliSymbol
    n_f_coeff: int
    n_coeff: int

    @property
    def n_f_form(self) -> str:
        return _times_g_minus_2(self.n_f_coeff)

    @property
    def n_form(self) -> str:
        return _times_g_minus_2(self.n_coeff)


def closed_form_family(sym: SchlafliSymbol) -> FamilyForm:
    """Family coefficients of a symbol admissible at every genus g >= 3.

    Non-orientable genus g has -chi = g - 2, so every count there is g - 2
    times its value at chi = -1: the symbol is a family exactly when it is
    admissible at genus 3, and the genus-3 counts are the coefficients.
    """
    n_f, n_v = _counts(-1, sym.p, sym.q)
    if not n_v:
        raise UnsupportedSymbol(f"{sym} is not admissible at every genus")
    return FamilyForm(sym, n_f, n_f + n_v + 1)


class RateComparison(NamedTuple):
    """Encoding rate k/n of {p,q} at genus g, orientable vs non-orientable.

    Orientable genus g carries k = 2g logicals, non-orientable genus g
    carries k = g, and n grows with -chi, 2g - 2 against g - 2, so the
    non-orientable rate is higher by (g-1)/(g-2).
    """

    genus: int
    orientable: Fraction
    non_orientable: Fraction

    @property
    def ratio(self) -> Fraction:
        """Orientable over non-orientable rate: (g-2)/(g-1)."""
        return self.orientable / self.non_orientable


def rate_comparison(sym: SchlafliSymbol, genus: int) -> RateComparison:
    """Exact rate comparison at the same genus; needs g >= 3.

    The rates are those of the two designs, so a symbol that does not
    tessellate both surfaces raises NotAdmissible.
    """
    if genus < 3:
        raise DegenerateGenus(f"rate comparison needs genus >= 3, got {genus}")
    r1, r2 = (code_parameters(Surface(genus, o), sym).rate for o in (True, False))
    return RateComparison(genus, r1, r2)


class AsymmetryPoint(NamedTuple):
    genus: int
    d_z: int
    d_x: int
    gap: int


def asymmetry_curve(
    sym: SchlafliSymbol,
    genera: Iterable[int],
) -> list[AsymmetryPoint]:
    """Distance asymmetry of {p,q} across non-orientable genera.

    Genera where the tessellation is inadmissible are skipped with a log
    notice rather than raising, but a symbol that is not hyperbolic, and so
    admissible nowhere, raises NotAdmissible.  The gap d_z - d_x trends
    upward with genus but is not monotone.
    """
    if not sym.is_hyperbolic:
        raise NotAdmissible(f"{sym} is {sym.kind}")
    out = []
    for genus in genera:
        try:
            params = code_parameters(Surface(genus, orientable=False), sym)
        except NotAdmissible as exc:
            log.info("skipping genus %d for %s: %s", genus, sym, exc)
            continue
        out.append(AsymmetryPoint(genus, params.d_z, params.d_x, params.gap))
    return out
