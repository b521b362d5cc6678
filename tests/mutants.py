"""Mutants of the source, each with the tier-1 ids that must fail under it.

Run `python tests/mutants.py`.  For every row of MUTANTS it copies the
repository to a temporary directory, replaces the row's `old` text, which
must occur exactly once in `path`, by `new`, and runs pytest on the row's
`kills` ids against the copy's src.  A mutant is killed when every listed id
fails.  A run that hits the address-space limit or the timeout counts as
survived, and so does any exit of pytest but "tests failed".  The run exits
1, naming each survivor, unless every mutant is killed.  It writes nothing
inside the checkout.

The rule this table keeps: a change that deletes a test keeps every mutant
killed, and a change that adds a search, a builder or a cover adds its
mutants here.  Each name ends with the commit whose CHANGES.md entry first
described the mutant.  The other rows end with what they back instead:
"face counts" the check of that name, on the {8,8} case that p for q
cannot reach, "--min-rate" the rate filter that moved out of
`enumerate_admissible` into the cli, "memo" the per-process caches of the
geometry behind the traced names, "walk" the enumeration over the divisors
of 2|chi|, "matrices" the check matrices built on first read and the
one-edge logicals that settle a side with none, "own code" the complex
that is its own code, its split and matrices kept outside its fields, and
"bool" the integer check that refuses a bool as a genus or a symbol entry.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MEMORY = 2 << 30   # bytes of address space for each pytest run
TIMEOUT = 120      # seconds for each mutant
PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")


class Mutant(NamedTuple):
    name: str
    path: str                # relative to the repository root
    old: str                 # occurs exactly once in path
    new: str
    kills: tuple[str, ...]   # pytest node ids, each of which must fail


HOM, DES, GEO = "src/aqsc/homology.py", "src/aqsc/design.py", "src/aqsc/geometry.py"
CHK, CLI = "src/aqsc/checks.py", "src/aqsc/cli.py"
H, D, G = "tests/test_homology.py::", "tests/test_design.py::", "tests/test_geometry.py::"
A, C = "tests/test_acceptance.py::", "tests/test_cli.py::"
ROW = H + "TestExactTable::test_row"
SCAN = D + "TestEnumeration::test_matches_pair_scan_at_benchmark_scale"

MUTANTS = (
    # the exact table and the formula (30a1930, 7332125)
    Mutant("projective plane with one wrap flipped (7332125 M1)", HOM,
           "_grid_quotient(l, flip_x=True, flip_y=True)",
           "_grid_quotient(l, flip_x=True, flip_y=False)",
           (ROW + "[projective plane 2x2]", ROW + "[projective plane 3x3]")),
    Mutant("non-orientable polygon reversing every pair (7332125 M2)", HOM,
           "(i, i + half, not orientable and i == 0)", "(i, i + half, not orientable)",
           (ROW + "[non-orientable 4-gon]", ROW + "[non-orientable 6-gon]")),
    Mutant("orientable polygon pairing side i with N - 1 - i (7332125 M3)", HOM,
           "(i, i + half, not orientable and i == 0)",
           "(i, n_edges - 1 - i if orientable else i + half, not orientable and i == 0)",
           (ROW + "[orientable 4-gon]", ROW + "[orientable 8-gon]")),
    Mutant("cycle search swapping d_x and d_z (7332125 M5)", HOM,
           'Distances(d_x, d_z, "cycle")', 'Distances(d_z, d_x, "cycle")',
           (ROW + "[projective plane 2x2]", ROW + "[{3,6} torus 3x3]")),
    Mutant("cycle search reporting d_x + 1 (7332125 M6)", HOM,
           'Distances(d_x, d_z, "cycle")', 'Distances(d_x + 1, d_z, "cycle")',
           (ROW + "[toric 2x2]", ROW + "[klein 2x2]")),
    Mutant("kernel enumeration reporting d_z + 1 (7332125 M7)", HOM,
           'Distances(d_x, d_z, "exhaustive")', 'Distances(d_x, d_z + 1, "exhaustive")',
           (ROW + "[toric 2x2]", ROW + "[non-orientable 2-gon]")),
    Mutant("face count with p for q (7332125 M8)", DES,
           "Fraction(-2 * sym.q * surface", "Fraction(-2 * sym.p * surface",
           (D + "TestFaceCount::test_exact_rational",
            A + "test_criterion_1_reference_tables_regenerate")),
    Mutant("d_z over the primal edge (7332125 M9)", DES,
           "n_v, _ceil_ratio(d_h, l_qp),", "n_v, _ceil_ratio(d_h, l_pq),",
           (D + "TestCodeParameters::test_genus5_37",
            A + "test_criterion_9_duality_swaps_distances")),
    Mutant("family n coefficient off by one (7332125 M10)", DES,
           "FamilyForm(sym, n_f, n_f + n_v + 1)", "FamilyForm(sym, n_f, n_f + n_v + 2)",
           (D + "TestClosedFormFamilies::test_matches_divisibility_rule",
            A + "test_criterion_2_closed_form_families")),
    Mutant("families read at genus 4 (7332125 M11)", DES,
           "_counts(-1, sym.p, sym.q)", "_counts(-2, sym.p, sym.q)",
           (D + "TestClosedFormFamilies::test_matches_divisibility_rule",
            A + "test_criterion_2_closed_form_families")),
    Mutant("rate ratio inverted (7332125 M12)", DES,
           "return self.orientable / self.non_orientable",
           "return self.non_orientable / self.orientable",
           (A + "test_criterion_4_rate_advantage",)),
    Mutant("asymmetry gap with its sign flipped (7332125 M14)", DES,
           "return self.d_z - self.d_x", "return self.d_x - self.d_z",
           (A + "test_criterion_10_asymmetry_growth",
            D + "TestAsymmetryCurve::test_gap_not_monotone")),
    Mutant("opposite-edge distance halved (7332125 M15)", GEO,
           "return 2.0 * math.acosh(", "return 1.0 * math.acosh(",
           (A + "test_criterion_5_systole_captions",
            G + "TestMetricQuantities::test_opposite_edge_distance_is_twice_inradius")),
    # the exact-record table and its formula comparison (304170b)
    Mutant("formula ceiling without its snap (304170b)", DES,
           "if abs(ratio - nearest) < 1e-9:", "if False:",
           (ROW + "[non-orientable 10-gon]", D + "TestCeilRatio::test_snap_below_and_above")),
    Mutant("rate scaled by 2 (304170b)", DES,
           "return Fraction(self.k, self.n)", "return Fraction(2 * self.k, self.n)",
           (A + "test_criterion_4_rate_advantage",)),
    # the row added with the table
    Mutant("face count with its sign flipped (face counts)", DES,
           "Fraction(-2 * sym.q", "Fraction(2 * sym.q",
           (A + "test_criterion_1_reference_tables_regenerate",
            D + "TestFaceCount::test_exact_rational")),
    # kernel enumeration by information sets (81f896a)
    Mutant("kernel cap lowered to 25 (81f896a)", HOM,
           "KERNEL_MAX_DIM = 28", "KERNEL_MAX_DIM = 25",
           tuple(H + "TestDistances::test_exhaustive_at_the_cap[" + b + "]" for b in (
               "build_toric-expect0", "build_klein_bottle-expect1",
               "build_projective_plane-expect2"))),
    Mutant("Klein bottle glued as a torus (81f896a)", HOM,
           "_grid_quotient(l, flip_x=True, flip_y=False)",
           "_grid_quotient(l, flip_x=False, flip_y=False)",
           tuple(H + f"TestBuilders::test_orientability[{l}]" for l in range(3, 7))),
    # the systole search's root cover (aeab017)
    Mutant("root cover from parity bit 0 alone (aeab017)", HOM,
           "if not cover[v]:", "if pe & 1 and not cover[v]:",
           (H + "TestForestSplit::test_split_matches_elimination",)),
    Mutant("every node below the root marked searched (aeab017)", HOM,
           "depth = start[:]", "depth = [-2] * root + start[root:]",
           (H + "TestDistances::test_cycle_at_scale[build_projective_plane-expect2]",
            ROW + "[projective plane 4x4]")),
    # the linear builder and closedness check (b166628)
    Mutant("corners swept in decreasing order (b166628)", HOM,
           "for c in range(len(head)):", "for c in reversed(range(len(head))):",
           (H + "TestBuilders::test_gluings_number_vertices_by_smallest_corner",
            H + "TestBuilders::test_polygons_glue_into_a_sphere")),
    Mutant("commutation check without the star of v (b166628)", HOM,
           "star[v] ^= meets", "pass",
           (C + "TestVerify::test_small_suite_passes",
            H + "TestComplexValidation::test_commutation_matches_slot_count")),
    Mutant("commutation check ORing the face slots (b166628)", HOM,
           "meets = (1 << f) ^ (1 << g)", "meets = (1 << f) | (1 << g)",
           (C + "TestVerify::test_small_suite_passes",
            H + "TestComplexValidation::test_commutation_matches_slot_count")),
    Mutant("fundamental cycles assigned, not ORed (b166628)", HOM,
           "cycles[low.bit_length() - 1] |= 1 << e", "cycles[low.bit_length() - 1] = 1 << e",
           (H + "TestCssStructure::test_random_pairing_commutes",)),
    Mutant("third face slot marked with E, a face id (b166628)", HOM,
           "second[e] = nf", "second[e] = ne",
           (H + "TestComplexValidation::test_each_edge_fills_two_slots[faces1-[0, 1]]",)),
    # one elimination on int masks (7ca74e6)
    Mutant("echelon rows out of pivot order (7ca74e6)", HOM,
           "return [by_pivot[pivot] for pivot in reversed(pivots)]",
           "return list(by_pivot.values())",
           (H + "TestGf2::test_row_reduce_matches_pivot_loop",)),
    Mutant("kernel search without its zero-weight exit (7ca74e6)", HOM,
           "if any(not row & low for row in rows):", "if False:",
           (H + "TestDistances::test_coset_walk_early_exits[stabilizers1-logicals1-0]",)),
    Mutant("same-direction pair glued head to tail (7ca74e6)", HOM,
           "fore[s], fore[t], back[hs], back[ht] = t, s, ht, hs",
           "fore[s], fore[t], back[hs], back[ht] = ht, hs, t, s",
           (H + "TestBuilders::test_gluings_number_vertices_by_smallest_corner",)),
    # NamedTuple records (e8871a7)
    Mutant("asymmetry gap bumped at genus 9 (e8871a7)", DES,
           "params.d_x, params.gap))", "params.d_x, params.gap + (genus == 9)))",
           (A + "test_criterion_10_asymmetry_growth",)),
    Mutant("family forms always with a coefficient (e8871a7)", DES,
           'return "g-2" if coeff == 1 else f"{coeff}(g-2)"', 'return f"{coeff}(g-2)"',
           (A + "test_criterion_2_closed_form_families",)),
    Mutant("dual edge length read from {p,q} (e8871a7)", DES,
           "l_qp = edge_length(dual)", "l_qp = edge_length(sym)",
           (A + "test_criterion_9_duality_swaps_distances",)),
    # each pair once, p <= q (0b57485)
    Mutant("diagonal listed twice (0b57485)", DES,
           "if a != b and b <= p_top:", "if b <= p_top:",
           (D + "TestEnumeration::test_swapped_maxima_give_dual_records",
            SCAN + "[N50-300-300]")),
    Mutant("mirror bound read from q_max (0b57485)", DES,
           "a != b and b <= p_top", "a != b and b <= q_top",
           (C + "TestEnumerate::test_split_bounds", SCAN + "[N200-40-300]")),
    Mutant("mirrored record keeping n_f and n_v (0b57485)", DES,
           "dual, n_v, n_f, cp.d_x", "dual, n_f, n_v, cp.d_x",
           (D + "TestAdmissibility::test_counts_obey_incidence_and_euler",
            SCAN + "[N50-300-300]")),
    Mutant("mirrored record keeping l_pq and l_qp (0b57485)", DES,
           "d_h, cp.l_qp, cp.l_pq)", "d_h, cp.l_pq, cp.l_qp)",
           (SCAN + "[N50-300-300]",)),
    # the walk over the divisors of 2|chi|
    Mutant("divisors below B, not B^2 (walk M1)", DES,
           "_divisors_below(-2 * euler, hi * hi)", "_divisors_below(-2 * euler, hi)",
           (D + "TestEnumeration::test_matches_reference_scan",
            SCAN + "[N1000-300-300]", SCAN + "[N200-40-300]")),
    Mutant("cofactor prime dropped (walk M2)", DES,
           "    if rest > 1:\n", "    if False:\n",
           (D + "TestEnumeration::test_complete_bound_matches_half_scan[N401]",
            D + "TestEnumeration::test_complete_bound_is_cheap_at_genus_10001")),
    Mutant("pairs kept with gcd(a, b) > 1 (walk M3)", DES,
           " and math.gcd(a, c // x) == 1]", "]",
           (D + "TestEnumeration::test_complete_bound_matches_half_scan[S200]",
            SCAN + "[N50-300-300]")),
    Mutant("b >= a read as ga^2 <= m (walk M4)", DES,
           "(m + 4 * a) // (a * a)", "m // (a * a)",
           (D + "TestEnumeration::test_complete_bound_is_cheap_at_genus_10001",
            SCAN + "[N3-1000000-1000000]")),
    Mutant("a started one too high (walk M5)", DES,
           "range(m // (hi - 2) + 1,", "range(m // (hi - 2) + 2,",
           (D + "TestEnumeration::test_complete_bound_matches_half_scan[N401]",
            SCAN + "[N50-300-300]")),
    # records built from integers (6325708)
    Mutant("_counts again on the failure path (6325708 M1)", DES,
           "raise NotAdmissible(_reason(surface, sym, euler, n_f))",
           "raise NotAdmissible(_reason(surface, sym, euler, _counts(euler, sym.p, sym.q)[0]))",
           (D + "TestAsymmetryCurve::test_each_genus_tested_once",)),
    Mutant("_counts without its positive face test (6325708 M2)", DES,
           "if e <= 0 or faces <= 0 or faces % e:", "if e <= 0 or faces % e:",
           (D + "TestCodeParameters::test_matches_record_composed_from_symbols",)),
    Mutant("polygon sides 2g on both kinds (6325708 M3)", GEO,
           "return 4 * self.genus if self.orientable else 2 * self.genus",
           "return 2 * self.genus",
           (A + "test_criterion_1_reference_tables_regenerate",
            ROW + "[orientable 8-gon]")),
    Mutant("d_x over the dual edge (6325708 M4)", DES,
           "_ceil_ratio(d_h, l_pq), d_h, l_pq, l_qp)", "_ceil_ratio(d_h, l_qp), d_h, l_pq, l_qp)",
           (D + "TestCodeParameters::test_genus5_37",
            D + "TestCodeParameters::test_matches_record_composed_from_symbols")),
    Mutant("mirrored record keeping {a,b} (6325708 M5)", DES,
           "CodeParameters(surface, dual, n_v", "CodeParameters(surface, cp.sym, n_v",
           (D + "TestEnumeration::test_swapped_maxima_give_dual_records",
            SCAN + "[N50-300-300]")),
    Mutant("edge length accepting excess 0 (6325708 M6)", GEO,
           "if sym.excess <= 0:", "if sym.excess < 0:",
           (G + "TestMetricQuantities::test_rejects_non_hyperbolic",
            G + "TestMemo::test_raises_on_every_call[{4,4}]")),
    Mutant("_reason without its surface test (6325708 M7)", DES,
           "if euler >= 0:", "if False:",
           (D + "TestAdmissibility::test_flat_cases",)),
    # the rate floor, applied by the cli to the full list
    Mutant("rate floor applied strictly (--min-rate)", CLI,
           "cp.rate >= ns.min_rate", "cp.rate > ns.min_rate",
           (C + "TestEnumerate::test_min_rate",)),
    # the kernel search's last level by lookup (9f2cc85)
    Mutant("last-level match on equal tags (9f2cc85 M1)", HOM,
           "if other_tag != tag ^ row_tag:", "if True:",
           (H + "TestDistances::test_coset_walk_last_level[equal-tags]",
            ROW + "[toric 3x3]")),
    Mutant("last-level halves of w // 2 rows each (9f2cc85 M2)", HOM,
           "xors(w - w // 2 - 1)", "xors(w // 2 - 1)",
           (H + "TestDistances::test_coset_walk_last_level[odd-w]",)),
    Mutant("kernel search's last level skipped (9f2cc85 M3)", HOM,
           "if w == best - 1 <= len(rows):", "if False:",
           (H + "TestDistances::test_coset_walk_last_level[empty-half]",
            H + "TestDistances::test_methods_agree_on_random_pairings")),
    Mutant("echelon without back-substitution (9f2cc85 M4)", HOM,
           "mask = sum(pivots)", "mask = 0",
           (H + "TestGf2::test_row_reduce_pivots", ROW + "[toric 4x4]")),
    Mutant("back-substitution from the lowest pivot up (9f2cc85 M5)", HOM,
           "for pivot in pivots:", "for pivot in reversed(pivots):",
           (ROW + "[{3,6} torus 3x3]", ROW + "[projective plane 4x4]")),
    # the even-genus theorem on two enumerations (2c1c86b)
    Mutant("even-genus check against N_h (2c1c86b A)", CHK,
           "((h, True), (2 * h, False))", "((h, True), (h, False))",
           (A + "test_criterion_3_even_genus_equivalence",)),
    Mutant("even-genus check on n and k alone (2c1c86b B)", CHK,
           "[cp[1:] for cp in", "[(cp.n, cp.k) for cp in",
           (D + "TestEvenGenusCheck::test_any_disagreement_fails[sym]",
            D + "TestEvenGenusCheck::test_any_disagreement_fails[d_h]")),
    Mutant("even-genus check dropping the last N_2h design (2c1c86b C)", CHK,
           "compared += len(s_h)", "compared, n_2h = compared + len(s_h), n_2h[:-1]",
           (A + "test_criterion_3_even_genus_equivalence",
            D + "TestEvenGenusCheck::test_any_disagreement_fails[added]")),
    # the cycle search's last level and the grid arithmetic (b33705c)
    Mutant("cycle search's last-level scan dropped (b33705c M1)", HOM,
           "if 2 * d + 1 < best:", "if False:",
           (H + "TestForestSplit::test_split_matches_elimination",)),
    Mutant("cycle search's last level on plain edges alone (b33705c M2)", HOM,
           "if depth[v] == d and par[v] != pu ^ pe:", "if False:",
           (H + "TestDistances::test_methods_agree_on_random_pairings",)),
    Mutant("parity-1 edges filed as plain (b33705c M3)", HOM,
           "elif pe:", "elif pe > 1:",
           (ROW + "[projective plane 2x2]", ROW + "[projective plane 3x3]")),
    Mutant("projective top wrap one row off (b33705c M4)", HOM,
           "row * (l - 1 - x) if flip_y", "row * ((l - x) % l) if flip_y",
           (H + "TestBuilders::test_builders_number_vertices_by_smallest_corner[projective]",
            ROW + "[projective plane 3x3]")),
    # check matrices built on first read, one-edge logicals settled first
    Mutant("h_x built from the vertex slots (matrices M1)", HOM,
           "return _incidence(self._dual_edges, self.n_faces)",
           "return _incidence(self.edge_endpoints, self.n_faces)",
           (H + "TestMatricesOnDemand::test_first_read_builds_each_matrix_once",
            H + "TestCssStructure::test_random_pairing_commutes")),
    Mutant("one-edge settle accepting two-edge cycles (matrices M2)", HOM,
           "cycle.bit_count() == 1", "cycle.bit_count() <= 2",
           (H + "TestMatricesOnDemand::test_one_edge_on_one_side_searches_the_other[hexagon]",
            ROW + "[toric 2x2]")),
    Mutant("one-edge settle reading the other side's cycles (matrices M3)", HOM,
           "1 if _one_edge(fs) else", "1 if _one_edge(ds) else",
           (H + "TestMatricesOnDemand::test_one_edge_on_one_side_searches_the_other[hexagon]",)),
    # the complex as its own code
    Mutant("complexes compared by identity, as the code once was (own code M1)", HOM,
           "@dataclass(frozen=True)\nclass SurfaceComplex:",
           "@dataclass(frozen=True, eq=False)\nclass SurfaceComplex:",
           (H + "TestOneCodePerComplex::test_read_code_keeps_equality_hash_and_repr",)),
    Mutant("split recomputed on every read (own code M2)", HOM,
           "@cached_property\n    def _split(", "@property\n    def _split(",
           (H + "TestOneCodePerComplex::test_code_is_built_once_per_complex",)),
    Mutant("css_from_complex returning the split (own code M3)", HOM,
           "the Z checks (see `SurfaceComplex`).\"\"\"\n    return cx\n",
           "the Z checks (see `SurfaceComplex`).\"\"\"\n    return cx._split\n",
           ("tests/test_bench_bindings.py::test_exact_distance_census_is_correct",)),
    Mutant("bool accepted as a genus (bool M1)", GEO,
           "if type(self.genus) is not int:", "if not isinstance(self.genus, int):",
           (G + "TestSurface::test_rejects_non_integer_genus",)),
    Mutant("bool accepted as p (bool M2)", GEO,
           "if not (type(self.p) is int and", "if not (isinstance(self.p, int) and",
           (G + "TestMemo::test_float_symbols_raise_on_cold_and_warm_cache",)),
    # the per-process geometry caches, below the traced names
    Mutant("edge-length cache keyed on (q, p) (memo M1)", GEO,
           "return _edge_length(sym.p, sym.q)", "return _edge_length(sym.q, sym.p)",
           (G + "TestMemo::test_edge_length_is_the_closed_form",
            D + "TestCodeParameters::test_genus5_37")),
    Mutant("dual factory returning (p, q) (memo M2)", GEO,
           "return symbol(self.q, self.p)", "return symbol(self.p, self.q)",
           (G + "TestSchlafliSymbol::test_dual_involution",
            A + "test_criterion_1_reference_tables_regenerate")),
    Mutant("d_h cached on N // 2 (memo M3)", GEO,
           "@functools.cache\ndef opposite_edge_distance(",
           "@lambda f, memo={}: lambda n: memo[n // 2] if n // 2 in memo"
           " else memo.setdefault(n // 2, f(n))\ndef opposite_edge_distance(",
           (G + "TestMemo::test_raises_on_every_call[11-gon after 10-gon]",)),
    Mutant("d_h read past the traced binding (memo M4)", DES,
           "d_h = opposite_edge_distance(surface.polygon_sides)\n    return",
           "d_h = __import__('aqsc.geometry', fromlist=['_']).opposite_edge_distance("
           "surface.polygon_sides)\n    return",
           ("tests/test_bench_bindings.py::test_warm_record_calls_traced_geometry",)),
    Mutant("symbol cache shared across argument types (memo M5)", GEO,
           "@functools.lru_cache(maxsize=None, typed=True)", "@functools.cache",
           (G + "TestMemo::test_float_symbols_raise_on_cold_and_warm_cache",)),
)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def survived(mutant: Mutant) -> str:
    """Why the mutant survived its kills ids, or '' when every one failed."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        try:
            run = subprocess.run(
                [sys.executable, *PYTEST, *mutant.kills], cwd=copy, capture_output=True,
                text=True, timeout=TIMEOUT, preexec_fn=_limit_memory,
                env=dict(os.environ, PYTHONPATH=str(copy / "src")))
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT} s"
    out = run.stdout + run.stderr
    if "MemoryError" in out:
        return "hit the memory limit"
    lines = out.splitlines()
    passed = [i for i in mutant.kills
              if f"FAILED {i}" not in lines and not any(
                  line.startswith(f"FAILED {i} - ") for line in lines)]
    if passed:
        return f"not failed: {', '.join(passed)}"
    if run.returncode != 1:
        return f"pytest exited {run.returncode}"
    return ""


def main() -> int:
    start = time.perf_counter()
    survivors = []
    for mutant in MUTANTS:
        began = time.perf_counter()
        why = survived(mutant)
        print(f"{time.perf_counter() - began:6.1f} s  {'SURVIVED' if why else 'killed  '}  "
              f"{mutant.name}{': ' + why if why else ''}", flush=True)
        if why:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    for name in survivors:
        print(f"survived: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
