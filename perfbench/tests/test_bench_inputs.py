"""The seeded inputs: deterministic per seed, stratified, independent oracle."""

import json
from pathlib import Path

import pytest

import workloads as w
from aqsc import design
from aqsc.geometry import Surface
from metrics import END_TO_END, PER_LAYER, percentile

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def golden():
    return {"cli": w.load_golden("cli.json"), "design": w.load_golden("design.json")}


def decks(seed, golden):
    return {
        "cli": w.CliWorkload(seed, golden=golden["cli"]).deck,
        "design_sweep": w.DesignSweep(seed, golden=golden["design"]).deck,
        "exact_distance": w.ExactDistance(seed).deck,
    }


def test_same_seed_same_inputs(golden):
    a, b, c = decks(7, golden), decks(7, golden), decks(8, golden)
    for name in a:
        assert w.digest(a[name]) == w.digest(b[name])
        assert w.digest(a[name]) != w.digest(c[name])


def test_blocks_have_the_same_composition(golden):
    cli = w.CliWorkload(3, golden=golden["cli"])
    size = cli.block_size
    want = sorted(kind for kind, n, _ in w.CLI_BLOCK for _ in range(n))
    for start in range(0, 5 * size, size):
        assert sorted(k for k, _ in cli.deck[start:start + size]) == want
    exact = w.ExactDistance(3)
    block = sorted(map(json.dumps, w.exact_inputs()))
    second = exact.deck[exact.block_size:2 * exact.block_size]
    assert sorted(json.dumps(entry[:-1]) for entry in second) == block


def test_enumerate_bounds_are_stratified(golden):
    sweep = w.DesignSweep(5, golden=golden["design"])
    bounds = sorted(e[3] for e in sweep.deck[:sweep.block_size] if e[0] == "enumerate")
    assert bounds[0] < 25 and bounds[-1] > 250
    assert len(bounds) == len(w.SURFACE_POOL)


def test_cli_pool_is_covered_by_golden(golden):
    argvs = [" ".join(a) for pool in w.cli_pool().values() for a in pool]
    assert set(argvs) == set(golden["cli"])


def test_integer_scan_matches_library_on_small_surfaces():
    for genus, orientable in ((3, False), (5, False), (2, True), (8, True)):
        surface = Surface(genus, orientable)
        lib = {(cp.sym.p, cp.sym.q) for cp in design.enumerate_admissible(surface, 40, 40)}
        scan = {pq for pq in w.admissible_pairs(genus, orientable) if max(pq) <= 40}
        brute = {(p, q) for p in range(3, 41) for q in range(3, 41)
                 if w.is_admissible_int(p, q, w.chi(genus, orientable))}
        assert lib == scan == brute


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 90) == 5
    assert percentile(list(range(11)), 90) == pytest.approx(9.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [wl["name"] for wl in spec["workloads"]] == list(w.WORKLOADS)


def test_op_scales_use_the_nearest_probes():
    import worker
    probes = [(0, 1.0), (3, 3.0), (6, 9.0), (9, 27.0)]
    scales = worker.op_scales(10, probes, nominal=9.0)
    assert scales[0] == 3.0          # probes 0, 3, 6: median 3
    assert scales[8] == 1.0          # probes 9, 6, 3: median 9
