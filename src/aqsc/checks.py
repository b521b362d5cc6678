"""Self-checks of the shipped claims, shared by `aqsc verify` and the tests.

Three suites return Check records: theorems (identities of the design layer),
oracle (one row per complex of the `exact` table, its exact record certified
once and, on a fundamental polygon, compared with the formula) and tables
(the reference catalog regenerated from first principles).  Both
`aqsc verify` and tests/test_acceptance.py run them, at one set of bounds,
in the order of `cli.SUITES`.  k is held against 2 - chi, with no rank, and
a complex whose checks do not commute is refused when it is built, so no
check here multiplies them.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import catalog, design, homology
from .geometry import SchlafliSymbol, Surface, fundamental_polygon, opposite_edge_distance

H_MAX = 10        # largest orientable genus of the even-genus scan
PQ_MAX = 20       # bound on p and q in the symbol scans
GENUS_MAX = 30    # largest non-orientable genus of the family scan
LATTICE_MAX = 6   # largest lattice side whose distances are searched


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def _check(name: str, detail: str, failures: list) -> Check:
    """Passes when nothing failed; the failures are appended to the detail."""
    return Check(name, not failures, detail + (f"; failures: {failures}" if failures else ""))


def _symbols() -> list[SchlafliSymbol]:
    return [SchlafliSymbol(p, q) for p in range(3, PQ_MAX + 1) for q in range(3, PQ_MAX + 1)]


def _families() -> dict[SchlafliSymbol, design.FamilyForm]:
    """The closed-form families among the scanned symbols, by the derived rule."""
    out = {}
    for sym in _symbols():
        try:
            out[sym] = design.closed_form_family(sym)
        except design.UnsupportedSymbol:
            pass
    return out


def theorems() -> list[Check]:
    checks = []
    compared, bad = 0, []   # S_h and N_2h share chi and polygon sides
    for h in range(2, H_MAX + 1):
        s_h, n_2h = ([cp[1:] for cp in design.enumerate_admissible(Surface(g, o), PQ_MAX, PQ_MAX)]
                     for g, o in ((h, True), (2 * h, False)))
        compared += len(s_h)
        if s_h != n_2h:   # every field but the surface, floats by ==
            bad.append(f"h={h}: {sorted({str(r[0]) for r in set(s_h) ^ set(n_2h)})}")
    checks.append(_check("even-genus equivalence", f"orientable genus h = non-orientable genus "
                         f"2h on {compared} designs, h<={H_MAX}, p,q<={PQ_MAX}",
                         bad if compared else ["none compared"]))

    cases = ((5, False, 3, 7), (7, False, 4, 5), (2, True, 8, 8), (2, True, 4, 5), (3, True, 4, 5))
    counts = [design.face_count(Surface(g, o), SchlafliSymbol(p, q)) for g, o, p, q in cases]
    checks.append(Check("face counts", counts == [42, 25, 1, 10, 20],
                        f"[{', '.join(map(str, counts))}]"))
    syms = [fr.sym for fr in catalog.FAMILY_ROWS] + [SchlafliSymbol(3, q) for q in (7, 8, 9)]
    bad = [] if len(syms) == 10 else ["expected 10 symbols"]
    for sym in syms:
        for g in range(3, 51):
            rc = design.rate_comparison(sym, g)
            # the rates must also meet the closed forms k/n, with n =
            # pq(2g-2)/e and pq(g-2)/e, or a common scale error would pass
            # the ratio and the order
            forms = [Fraction(g * sym.excess, sym.p * sym.q * (g - d)) for d in (1, 2)]
            if (rc.ratio != Fraction(g - 2, g - 1) or not rc.non_orientable > rc.orientable
                    or [rc.orientable, rc.non_orientable] != forms):
                bad.append(f"{sym} g={g}")
    checks.append(_check("rate ratio", f"non-orientable rate is higher by exactly (g-1)/(g-2) "
                         f"for {len(syms)} symbols, genus 3..50", bad))

    # the families read from the genus-3 counts against the scan: a family
    # exactly when admissible at every genus of it, with the counts that
    # code_parameters gives there
    genera = range(3, GENUS_MAX + 1)
    families = _families()
    bad = [] if len(families) == 16 else ["expected 16 families"]
    for sym in _symbols():
        if sym.is_hyperbolic and (sym in families) != all(
                design.admissibility(Surface(g, False), sym) is None for g in genera):
            bad.append(str(sym))
    for fam in families.values():
        for g in genera:
            cp = design.code_parameters(Surface(g, False), fam.sym)
            if (cp.n_f, cp.n, cp.k) != (fam.n_f_coeff * (g - 2), fam.n_coeff * (g - 2), g):
                bad.append(f"{fam.sym} g={g}")
    checks.append(_check("closed-form families", f"{len(families)} families with p,q<={PQ_MAX} "
                         f"match direct computation for genus 3..{GENUS_MAX}", bad))

    reason = design.admissibility(Surface(5, False), SchlafliSymbol(3, 10))
    checks.append(Check("{3,10} genus 5 inadmissible", reason is not None, reason or ""))
    return checks


def triangle_torus(l: int) -> homology.SurfaceComplex:
    """{3,6} on the torus: l x l squares, each cut on its diagonal from (x, y) to (x+1, y+1)."""
    # square (x, y) holds triangles with sides bottom, right, diagonal and diagonal, top, left
    sq = lambda x, y: 6 * (x % l * l + y % l)
    pairs = [pair for x in range(l) for y in range(l) for pair in (
        (sq(x, y) + 2, sq(x, y) + 3, False), (sq(x, y) + 1, sq(x + 1, y) + 5, False),
        (sq(x, y) + 4, sq(x, y + 1), False))]
    return homology.complex_from_polygons([3] * (2 * l * l), pairs)


class Exact(NamedTuple):
    """A complex, built on first use, and its exact record (V, E, F, k, d_x, d_z).

    `surface` is set on a hyperbolic one-face polygon: the surface whose
    fundamental polygon it is, so the design formula can meet the record.
    """

    name: str
    build: Callable[[], homology.SurfaceComplex]   # cached: one complex per row
    record: tuple[int, int, int, int, int, int]
    surface: Optional[Surface] = None

    @property
    def cx(self) -> homology.SurfaceComplex:
        return self.build()


def _once(build: Callable, *args) -> Callable[[], homology.SurfaceComplex]:
    """build(*args) on the first call, the same complex on every later one."""
    return functools.cache(functools.partial(build, *args))


@functools.cache
def exact() -> tuple[Exact, ...]:
    """Every complex the oracle certifies, by name and record; none is built here."""
    rows = []
    for name, build, chi, k in (("toric", homology.build_toric, 0, 2),
                                ("klein", homology.build_klein_bottle, 0, 2),
                                ("projective plane", homology.build_projective_plane, 1, 1)):
        for l in range(2, LATTICE_MAX + 1):
            # a projective grid has distances l and l + 1, the even one d_x
            d = (l, l) if k == 2 else (l + l % 2, l + 1 - l % 2)
            rows.append(Exact(f"{name} {l}x{l}", _once(build, l),
                              (l * l + chi, 2 * l * l, l * l, k) + d))
    for l in range(3, 6):   # p < q puts the longer distance on the dual graph: d_z > d_x
        rows.append(Exact(f"{{3,6}} torus {l}x{l}", _once(triangle_torus, l),
                          (l * l, 3 * l * l, 2 * l * l, 2, l, 2 * l)))
    # one vertex, one face and N/2 loops, each a logical on both sides
    for kind, orientable, genera in (("orientable", True, range(1, 7)),
                                     ("non-orientable", False, range(1, 13))):
        for g in genera:
            surface = Surface(g, orientable)
            n = surface.polygon_sides
            rows.append(Exact(f"{kind} {n}-gon", _once(homology.build_polygon_code, n, orientable),
                              (1, n // 2, 1, n // 2, 1, 1),
                              surface if surface.is_hyperbolic else None))
    return tuple(rows)


def _certify(row: Exact) -> Check:
    """The record by the tree-cotree split and the cycle search, checked
    against k = 2 - chi (every row is a connected closed surface), kernel
    enumeration where both kernels, of dimension at most E + 1 - min(V, F),
    are small enough to enumerate (`homology.KERNEL_MAX_DIM`), the text
    format and, on a polygon row, the design formula."""
    cx = row.cx
    k = homology.logical_count(cx)
    found = (cx.n_vertices, cx.n_edges, cx.n_faces, k) + homology.cycle_distances(cx)[:2]
    detail = f"V,E,F,k,d_x,d_z = {row.record}"
    bad = [] if found == row.record else [f"found {found}"]
    if k != 2 - cx.euler_characteristic:
        bad.append("k != 2 - chi")
    if (cx.n_edges + 1 - min(cx.n_vertices, cx.n_faces) <= homology.KERNEL_MAX_DIM
            and homology.exhaustive_distances(cx)[:2] != found[4:]):
        bad.append("exhaustive search disagrees")
    if homology.load_complex(homology.dump_complex(cx)) != cx:
        bad.append("round trip")
    if row.surface is not None:
        cp = design.code_parameters(row.surface, fundamental_polygon(row.surface))
        detail += f"; formula {cp.record}"
        if (cp.n_v, cp.n, cp.n_f, cp.k, cp.d_x, cp.d_z) != row.record:
            bad.append("formula disagrees")
    return _check(row.name, detail, bad)


def oracle() -> list[Check]:
    checks = [_certify(row) for row in exact()]
    try:
        homology.cycle_distances(homology.build_polygon_code(2, True))
        checks.append(Check("sphere has no logicals", False, "expected NoLogicals"))
    except homology.NoLogicals:
        checks.append(Check("sphere has no logicals", True, "NoLogicals raised"))
    return checks


def tables() -> list[Check]:
    checks = []
    for g in sorted(catalog.TABLES):
        bad = catalog.discrepancies(g)
        checks.append(Check(f"genus {g} table regenerates", not bad, "; ".join(bad)))
    rows = [(t, r) for _, t in sorted(catalog.TABLES.items()) for r in t.rows]
    corr = [(t.genus, r.p, r.q) for t, r in rows if r.corrected_d_z is not None]
    checks.append(Check("single catalog correction", len(rows) == 50 and corr == [(7, 3, 21)],
                        f"{len(rows)} rows; corrected: {corr}"))

    derived = _families()
    tabulated = {fr.sym for fr in catalog.FAMILY_ROWS}
    extra = set(derived) - tabulated - {sym.dual for sym in tabulated}
    ok = extra == {SchlafliSymbol(5, 5), SchlafliSymbol(6, 6)} and all(
        fr.sym in derived and derived[fr.sym].n_f_form == fr.n_f_form
        and derived[fr.sym].n_form == fr.n_form for fr in catalog.FAMILY_ROWS)
    checks.append(Check("family forms", ok, f"{len(tabulated)} tabulated rows derived; beyond "
                        f"them and their duals: {', '.join(map(str, sorted(extra)))}"))

    bad = []
    for g, table in sorted(catalog.TABLES.items()):
        formula = 2 * math.acosh(1 / math.tan(math.pi / (2 * g)))
        if (abs(table.d_h - formula) >= 5e-4
                or abs(opposite_edge_distance(2 * g) - formula) >= 1e-12):
            bad.append(g)
    checks.append(_check("systole captions", "printed d_h = 2*acosh(cot(pi/2g)) within 5e-4", bad))

    bad = []
    for table, row in rows:
        a = design.code_parameters(table.surface, row.sym)
        b = design.code_parameters(table.surface, row.sym.dual)
        if (a.n, a.k, a.d_z, a.d_x) != (b.n, b.k, b.d_x, b.d_z):
            bad.append(f"{row.sym} genus {table.genus}")
    checks.append(_check("duality swaps distances", f"{{q,p}} swaps d_z and d_x and keeps n, k "
                         f"on all {len(rows)} table rows", bad))

    pts = design.asymmetry_curve(SchlafliSymbol(3, 7), range(5, 32, 2))
    gaps = [pt.gap for pt in pts if pt.genus in (5, 7, 9, 11)]
    dips = [f"genus {a.genus}->{b.genus} gap {a.gap}->{b.gap}"
            for a, b in zip(pts, pts[1:]) if b.gap < a.gap]
    checks.append(Check("{3,7} asymmetry gaps", gaps == [3, 4, 4, 5],
                        f"gaps at genus 5/7/9/11 = {gaps}; dips reported, not asserted: {dips}"))
    return checks
