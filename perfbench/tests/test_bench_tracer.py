"""The traced run's wrappers: self time, computed counts, restoration."""

import importlib
import subprocess
import sys
from pathlib import Path

import tracer as tr
from aqsc import catalog, homology

HERE = Path(__file__).resolve().parents[1]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_span_minus_covered_children():
    # a [0, 10] holds b [2, 5] and c [6, 7]; b holds d [3, 4]
    t = tr.Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 7, 10]))
    a = t.enter()
    b = t.enter()
    d = t.enter()
    t.exit("d", d)
    t.exit("b", b)
    c = t.enter()
    t.exit("c", c)
    t.exit("a", a)
    assert t.spans == {"d": [1, 1, 1], "b": [1, 3, 2], "c": [1, 1, 1], "a": [1, 10, 6]}


def test_wrappers_restore_every_binding():
    modules = {name: importlib.import_module(name) for name, *_ in tr.PATCHES}
    before = {(m, a): getattr(modules[m], a) for m, a, *_ in tr.PATCHES}
    with tr.installed(tr.Tracer()):
        for (m, a), fn in before.items():
            assert getattr(modules[m], a) is not fn
            assert getattr(modules[m], a).__wrapped__ is fn
    for (m, a), fn in before.items():
        assert getattr(modules[m], a) is fn


def test_caller_bindings_are_counted():
    t = tr.Tracer()
    with tr.installed(t):
        catalog.computed_parameters(5, catalog.TABLES[5].rows[0])
    assert t.calls("catalog.computed_parameters") == 1
    assert t.calls("design.code_parameters") == 1
    assert t.calls("geometry.edge_length") == 2
    assert t.calls("geometry.opposite_edge_distance") == 1


def test_computed_counts():
    t = tr.Tracer()
    with tr.installed(t):
        cx = homology.build_toric(3)
        code = homology.css_from_complex(cx)
        homology.exhaustive_distances(code)
        homology.cycle_distances(cx)
    # toric 3x3: V = F = 9, E = 18, both kernels of dimension 10
    assert t.counts["homology.exhaustive_distances.vectors"] == 2 * 2 ** 10
    assert t.counts["homology.cycle_distances.candidates"] == (9 + 9) * 18
    assert t.calls("homology.builders") == 1
    assert t.calls("homology.css_from_complex") == 2   # cycle_distances builds its own
    assert t.counts["homology.gf2_row_reduce.cells"] > 0


def test_untraced_worker_never_imports_tracer():
    code = ("import sys; sys.argv = ['worker']; import worker; "
            "worker.main(['--workload', 'exact_distance', '--seed', '1', '--seconds', '0.01']); "
            "assert 'tracer' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
