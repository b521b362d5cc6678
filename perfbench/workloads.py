"""Seeded inputs, timed operations and correctness gates of the workloads.

All three workloads are closed loops with a single client: the next request
is issued only after the previous result has come back and been checked.

cli             design commands, one `python -m aqsc` subprocess each.  Part a
                is the query commands (params, inadmissible params,
                enumerate), part b the report commands (tables, figures).
                Interpreter start and `import aqsc` dominate.
design_sweep    in-process design work.  Part a is enumerate_admissible over
                seeded surfaces (reject-heavy: most symbols fail the integer
                test); part b is code_parameters on admissible pairs plus an
                asymmetry series and the catalog regeneration (accept-heavy).
exact_distance  explicit complexes built and certified through GF(2)
                homology.  Part a is build + css + logical count + cycle
                search; part b is kernel enumeration on complexes with at
                most 32 edges.

Inputs are drawn in stratified blocks, so every seed sees the same mix of
sizes and only the draws inside each stratum change.  That keeps the
per-run figures comparable across seeds.

Each operation times only its library calls and checks the output
afterwards; gates never call the library, so the traced run counts only the
workload's own work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

import speed
from aqsc import catalog, design, homology
from aqsc.geometry import SchlafliSymbol, Surface

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

# blocks pre-generated per seed; a run that outlives them wraps around
N_BLOCKS = 40


class Timing(NamedTuple):
    """One timed region of an operation."""

    part: str       # "a" or "b": which throughput metric it feeds
    seconds: float
    units: int      # results produced: commands, designs, records, complexes
    key: bool       # counts toward the p50/p90 latency
    kind: str


class Outcome(NamedTuple):
    ok: bool
    timings: tuple[Timing, ...]
    detail: str = ""


def digest(obj: object) -> str:
    """sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def chi(genus: int, orientable: bool) -> int:
    return 2 - 2 * genus if orientable else 2 - genus


def surface_key(genus: int, orientable: bool) -> str:
    return f"{genus}{'o' if orientable else 'n'}"


def is_admissible_int(p: int, q: int, euler: int) -> bool:
    """Integer-only admissibility: n_f = -2q chi/e and n_v = -2p chi/e.

    e = pq - 2p - 2q must be positive, chi negative, and e must divide both
    numerators.  No Fractions, no floats.
    """
    e = p * q - 2 * p - 2 * q
    return euler < 0 < e and (-2 * q * euler) % e == 0 and (-2 * p * euler) % e == 0


def _stratified_log(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers, one from each of n equal log-width bins of [lo, hi]."""
    span = math.log(hi / lo)
    return [min(hi, max(lo, round(lo * math.exp(span * (i + rng.random()) / n))))
            for i in range(n)]


# ----------------------------------------------------------------------- cli

# commands per block, by kind; part a = query, part b = report
CLI_BLOCK = (("params", 4, "a"), ("inadmissible", 2, "a"), ("enumerate", 2, "a"),
             ("tables", 2, "b"), ("figures", 2, "b"))
CLI_PART = {kind: part for kind, _, part in CLI_BLOCK}
_FORMATS = ("csv", "json", "markdown")
_SMALL_SURFACES = tuple([(g, False) for g in range(3, 13)] + [(g, True) for g in range(2, 7)])
ASYM_SYMS = ((3, 7), (3, 8), (3, 9), (4, 5), (4, 6), (5, 8), (3, 12), (4, 8), (7, 3), (5, 4))


def _orient_flag(orientable: bool) -> str:
    return "--orientable" if orientable else "--non-orientable"


def cli_pool() -> dict[str, list[list[str]]]:
    """The finite command set the cli workload draws from, by kind.

    Fixed, independent of the run seed, so its golden output can be stored.
    """
    rng = random.Random("aqsc-cli-pool")
    adm, inadm = [], []
    for g, o in _SMALL_SURFACES:
        for p in range(3, 25):
            for q in range(3, 25):
                if p * q - 2 * p - 2 * q <= 0:
                    continue
                argv = ["params", "-p", str(p), "-q", str(q), "-g", str(g), _orient_flag(o)]
                (adm if is_admissible_int(p, q, chi(g, o)) else inadm).append(argv)
    params = [a + ["--format", rng.choice(_FORMATS)] for a in rng.sample(adm, 120)]
    inadmissible = rng.sample(inadm, 40)
    enumerate_ = []
    for _ in range(60):
        g, o = rng.randint(3, 60), rng.random() < 0.5
        enumerate_.append(["enumerate", "-g", str(g), _orient_flag(o), "--max",
                           str(rng.randint(8, 40)), "--format", rng.choice(_FORMATS)])
    tables = [["tables", t, "--format", f] for t in ("1", "2", "3", "4", "families")
              for f in _FORMATS]
    figures = [["figures", "rates", "--format", f] for f in _FORMATS]
    figures += [["figures", "asymmetry", "-p", str(p), "-q", str(q),
                 "--format", rng.choice(_FORMATS)] for p, q in ASYM_SYMS]
    for _ in range(8):
        genera = sorted(rng.sample(range(3, 62, 2), rng.randint(3, 8)))
        figures.append(["figures", "rates", "--genera", *map(str, genera)])
    for _ in range(8):
        p, q = rng.choice(ASYM_SYMS)
        genera = sorted(rng.sample(range(3, 120), rng.randint(3, 10)))
        figures.append(["figures", "asymmetry", "-p", str(p), "-q", str(q),
                        "--genera", *map(str, genera)])
    return {"params": params, "inadmissible": inadmissible, "enumerate": enumerate_,
            "tables": tables, "figures": figures}


def child_env() -> dict[str, str]:
    """Environment for `python -m aqsc`: src on the path, no format override."""
    env = {k: v for k, v in os.environ.items() if k != "AQSC_FORMAT"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_aqsc(argv: Sequence[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "aqsc", *argv], capture_output=True,
                          env=env, cwd=ROOT, timeout=60)


def cli_fingerprint(returncode: int, stdout: bytes) -> list:
    return [returncode, hashlib.sha256(stdout).hexdigest()[:16]]


def check_cli(golden: dict, argv: Sequence[str], returncode: int, stdout: bytes) -> bool:
    """Exit code and stdout match the output captured at the seed commit."""
    return golden.get(" ".join(argv)) == cli_fingerprint(returncode, stdout)


class CliWorkload:
    name = "cli"
    block_size = sum(n for _, n, _ in CLI_BLOCK)
    probe, nominal = staticmethod(speed.floor_s), speed.FLOOR_NOMINAL_S
    setup_outcomes: tuple[Outcome, ...] = ()

    def __init__(self, seed: int, golden: Optional[dict] = None) -> None:
        self.golden = load_golden("cli.json") if golden is None else golden
        pool = cli_pool()
        rng = random.Random(seed)
        self.deck = []
        for _ in range(N_BLOCKS):
            block = [[kind, rng.choice(pool[kind])] for kind, n, _ in CLI_BLOCK
                     for _ in range(n)]
            rng.shuffle(block)
            self.deck += block
        self.env = child_env()

    def op(self, entry: Sequence) -> Outcome:
        kind, argv = entry
        t0 = perf_counter()
        try:
            proc = run_aqsc(argv, self.env)
        except subprocess.TimeoutExpired:
            return Outcome(False, (Timing(CLI_PART[kind], perf_counter() - t0, 1, True,
                                          f"cli.{kind}"),), f"timeout: {' '.join(argv)}")
        dt = perf_counter() - t0
        ok = check_cli(self.golden, argv, proc.returncode, proc.stdout)
        return Outcome(ok, (Timing(CLI_PART[kind], dt, 1, True, f"cli.{kind}"),),
                       "" if ok else f"golden mismatch: {' '.join(argv)}")


# -------------------------------------------------------------- design_sweep

BOUND_LO, BOUND_HI = 20, 300
PARAMS_BATCH = 1024
ASYM_GENERA = 14          # odd genera per asymmetry series, as in `figures asymmetry`
ASYM_GENUS_MAX = 401


def _pool_genera() -> list[int]:
    """20 genera spaced log-uniformly from 3 to 1000."""
    return sorted({round(3 * (1000 / 3) ** (i / 19)) for i in range(20)})


SURFACE_POOL = tuple((g, o) for g in _pool_genera() for o in (False, True))
# each pool surface keeps its bound stratum in every block and every seed, so
# blocks differ only by the draw inside each stratum and by their order
_BOUND_STRATUM = random.Random("aqsc-bound-strata").sample(range(len(SURFACE_POOL)),
                                                            len(SURFACE_POOL))

_P, _Q = np.meshgrid(np.arange(3, BOUND_HI + 1, dtype=np.int64),
                     np.arange(3, BOUND_HI + 1, dtype=np.int64), indexing="ij")
_E = _P * _Q - 2 * _P - 2 * _Q
_E_POS = _E > 0
_E_SAFE = np.where(_E_POS, _E, 1)


def admissible_pairs(genus: int, orientable: bool) -> set[tuple[int, int]]:
    """All admissible {p,q} with p, q <= BOUND_HI, by an integer-only scan."""
    c = -chi(genus, orientable)
    if c <= 0:
        return set()
    ok = _E_POS & ((2 * _Q * c) % _E_SAFE == 0) & ((2 * _P * c) % _E_SAFE == 0)
    return {(int(p), int(q)) for p, q in zip(_P[ok], _Q[ok])}


def record_of(cp: design.CodeParameters) -> list[int]:
    return [cp.n, cp.k, cp.d_z, cp.d_x]


def check_enumerate(expected: set[tuple[int, int]], golden: dict, bound: int,
                    result: Sequence[design.CodeParameters]) -> bool:
    """Same {p,q} set as the integer scan within the bound, golden records."""
    want = {pq for pq in expected if pq[0] <= bound and pq[1] <= bound}
    got = [(cp.sym.p, cp.sym.q) for cp in result]
    if len(got) != len(set(got)) or set(got) != want:
        return False
    return all(golden.get(f"{cp.sym.p},{cp.sym.q}") == record_of(cp) for cp in result)


def check_records(golden_by_surface: dict, pairs: Sequence[tuple[str, int, int]],
                  result: Sequence[design.CodeParameters]) -> bool:
    """Each code_parameters record equals the golden one for its pair."""
    return len(result) == len(pairs) and all(
        golden_by_surface[s].get(f"{p},{q}") == record_of(cp)
        for (s, p, q), cp in zip(pairs, result))


def check_asymmetry(golden: dict, genera: Sequence[int], points) -> bool:
    """The series skips inadmissible genera and matches the golden distances."""
    want = [[g, *golden[str(g)], golden[str(g)][0] - golden[str(g)][1]]
            for g in genera if str(g) in golden]
    return [list(pt) for pt in points] == want


def check_catalog(golden: list, result: Sequence[design.CodeParameters]) -> bool:
    return [record_of(cp) for cp in result] == golden


class DesignSweep:
    name = "design_sweep"
    block_size = 2 * len(SURFACE_POOL)
    probe, nominal = staticmethod(speed.loop_s), speed.LOOP_NOMINAL_S

    def __init__(self, seed: int, golden: Optional[dict] = None) -> None:
        self.golden = load_golden("design.json") if golden is None else golden
        self.oracle = {surface_key(*s): admissible_pairs(*s) for s in SURFACE_POOL}
        # discrepancies runs library code, so it is checked here, before timing
        self.setup_outcomes = tuple(
            Outcome(not catalog.discrepancies(genus), (), f"catalog discrepancies, genus {genus}")
            for genus in sorted(catalog.TABLES))
        self.surfaces = {surface_key(*s): Surface(*s) for s in SURFACE_POOL}
        rng = random.Random(seed)
        pairs = sorted((s, p, q) for s, pqs in self.oracle.items() for p, q in pqs)
        rng.shuffle(pairs)
        self.pairs = pairs
        self.pair_args = [(self.surfaces[s], SchlafliSymbol(p, q)) for s, p, q in pairs]
        self.rows = [(genus, row) for genus, table in sorted(catalog.TABLES.items())
                     for row in table.rows]
        self.deck = []
        start = 0
        n_asym = (ASYM_GENUS_MAX - 3) // 2 - ASYM_GENERA + 1
        for _ in range(N_BLOCKS):
            bounds = _stratified_log(rng, len(SURFACE_POOL), BOUND_LO, BOUND_HI)
            block = [(s, bounds[stratum]) for s, stratum in zip(SURFACE_POOL, _BOUND_STRATUM)]
            rng.shuffle(block)
            for (genus, o), bound in block:
                p, q = rng.choice(ASYM_SYMS)
                g0 = 3 + 2 * rng.randrange(n_asym)
                self.deck.append(["enumerate", genus, o, bound])
                self.deck.append(["batch", p, q, g0, start])
                start = (start + PARAMS_BATCH) % len(pairs)

    def op(self, entry: Sequence) -> Outcome:
        if entry[0] == "enumerate":
            _, genus, o, bound = entry
            key = surface_key(genus, o)
            t0 = perf_counter()
            result = design.enumerate_admissible(self.surfaces[key], bound, bound)
            dt = perf_counter() - t0
            ok = check_enumerate(self.oracle[key], self.golden["records"][key], bound, result)
            return Outcome(ok, (Timing("a", dt, len(result), True, "enumerate"),),
                           "" if ok else f"enumerate {key} max {bound}")
        _, p, q, g0, start = entry
        idx = [(start + j) % len(self.pairs) for j in range(PARAMS_BATCH)]
        args = [self.pair_args[j] for j in idx]
        genera = range(g0, g0 + 2 * ASYM_GENERA, 2)
        sym = SchlafliSymbol(p, q)
        t0 = perf_counter()
        records = [design.code_parameters(s, y) for s, y in args]
        points = design.asymmetry_curve(sym, genera)
        regen = [catalog.computed_parameters(genus, row) for genus, row in self.rows]
        dt = perf_counter() - t0
        ok = (check_records(self.golden["records"], [self.pairs[j] for j in idx], records)
              and check_asymmetry(self.golden["asymmetry"][f"{p},{q}"], genera, points)
              and check_catalog(self.golden["catalog"], regen))
        units = len(records) + len(points) + len(regen)
        return Outcome(ok, (Timing("b", dt, units, False, "params"),),
                       "" if ok else f"params batch at {start}, asymmetry {{{p},{q}}} from {g0}")


# ------------------------------------------------------------ exact_distance

LATTICE_SIZES = range(2, 15)
EXHAUSTIVE_MAX_EDGES = 32


def exact_inputs() -> list[list]:
    """Every complex of one block: three lattice families and polygon codes.

    Polygon codes stop at 16 edges: their single face cancels every edge, so
    the kernel enumerated is 2^E.
    """
    out = [[kind, l] for kind in ("toric", "klein", "projective") for l in LATTICE_SIZES]
    out += [["polygon", 4 * h, True] for h in range(1, 9)]
    out += [["polygon", 2 * g, False] for g in range(1, 17)]
    return out


def relabel(cx: homology.SurfaceComplex, rng: random.Random) -> homology.SurfaceComplex:
    """The same complex with vertices, edges and faces renumbered.

    Edge directions flip and face boundaries rotate at random.  Distances and
    k do not change, but no two blocks hand the library an equal complex.
    """
    v = rng.sample(range(cx.n_vertices), cx.n_vertices)
    e = rng.sample(range(cx.n_edges), cx.n_edges)
    endpoints: list = [None] * cx.n_edges
    for old, (a, b) in enumerate(cx.edge_endpoints):
        endpoints[e[old]] = (v[a], v[b]) if rng.random() < 0.5 else (v[b], v[a])
    faces = []
    for boundary in rng.sample(cx.face_boundaries, cx.n_faces):
        r = rng.randrange(len(boundary))
        faces.append(tuple(e[x] for x in boundary[r:] + boundary[:r]))
    return homology.SurfaceComplex(cx.n_vertices, cx.n_edges, cx.n_faces,
                                   tuple(endpoints), tuple(faces))


def build(entry: Sequence) -> homology.SurfaceComplex:
    kind = entry[0]
    if kind == "toric":
        return homology.build_toric(entry[1])
    if kind == "klein":
        return homology.build_klein_bottle(entry[1])
    if kind == "projective":
        return homology.build_projective_plane(entry[1])
    return homology.build_polygon_code(entry[1], entry[2])


def expected_exact(entry: Sequence) -> tuple[int, list[int]]:
    """(k, sorted distances) that the complex must give, from its kind alone."""
    kind = entry[0]
    if kind in ("toric", "klein"):
        return 2, [entry[1], entry[1]]
    if kind == "projective":
        return 1, [entry[1], entry[1] + 1]
    # the 4h-gon carries chi = 2 - 2h and the 2g-gon chi = 2 - g: either way
    # k = 2 - chi is half the number of sides
    return entry[1] // 2, [1, 1]


def check_exact(entry: Sequence, k: int, cycle: Sequence[int],
                exhaustive: Optional[Sequence[int]]) -> bool:
    """k = 2 - chi, distances as expected, and both methods agree.

    Distances compare as unordered pairs, so swapping the d_x/d_z labels
    does not count as a failure.
    """
    want_k, want_d = expected_exact(entry)
    if k != want_k or sorted(cycle) != want_d:
        return False
    return exhaustive is None or sorted(exhaustive) == sorted(cycle)


class ExactDistance:
    name = "exact_distance"
    block_size = len(exact_inputs())
    probe, nominal = staticmethod(speed.loop_s), speed.LOOP_NOMINAL_S
    setup_outcomes: tuple[Outcome, ...] = ()

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.deck = []
        for _ in range(N_BLOCKS):
            block = [entry + [rng.getrandbits(32)] for entry in exact_inputs()]
            rng.shuffle(block)
            self.deck += block

    def op(self, entry: Sequence) -> Outcome:
        """entry is an exact_inputs() entry plus a relabelling seed."""
        t0 = perf_counter()
        cx = build(entry)
        built = perf_counter() - t0
        cx = relabel(cx, random.Random(entry[-1]))
        t0 = perf_counter()
        code = homology.css_from_complex(cx)
        k = homology.logical_count(code)
        cy = homology.cycle_distances(cx)
        t1 = perf_counter()
        timings = [Timing("a", built + t1 - t0, 1, True, "cycle")]
        ex = None
        if cx.n_edges <= EXHAUSTIVE_MAX_EDGES:
            ex = homology.exhaustive_distances(code)
            timings.append(Timing("b", perf_counter() - t1, 1, False, "exhaustive"))
        ok = check_exact(entry, k, cy[:2], ex[:2] if ex else None)
        return Outcome(ok, tuple(timings), "" if ok else f"exact {entry}: k={k} {cy} {ex}")


WORKLOADS: dict[str, Callable[[int], object]] = {
    "cli": CliWorkload,
    "design_sweep": DesignSweep,
    "exact_distance": ExactDistance,
}


def census() -> dict[str, list]:
    """A small fixed input per workload, run at the end of every traced run.

    It gives every per-layer metric a value on every workload: a layer that
    the workload itself never reaches is measured on these inputs alone,
    which do not depend on the seed.
    """
    pool = cli_pool()
    return {
        "cli": [[kind, pool[kind][0]] for kind, _, _ in CLI_BLOCK],
        "design_sweep": [["enumerate", 10, False, 40], ["batch", 3, 7, 5, 0]],
        "exact_distance": [["toric", 4, 0], ["projective", 8, 0], ["polygon", 12, False, 0]],
    }
