"""The benchmark's traced run patches library names; tier-1 keeps them bound.

`perfbench/tracer.PATCHES` lists every (module, attribute) the traced run
wraps, and the benchmark worker reads numpy's import time from
`python -X importtime -c "import aqsc"`.  A refactor that drops either
would crash only a traced or full benchmark run, so both are checked here,
and so is the number of geometry calls a warm record makes through those
bindings.
"""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from aqsc import design
from aqsc.geometry import SchlafliSymbol, Surface

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_binding_resolves():
    patches = _tracer().PATCHES
    assert patches
    missing = [f"{module}.{attr}" for module, attr, *_ in patches
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_import_aqsc_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import aqsc"],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    imported = {m.group(1) for m in re.finditer(r"^import time:.*\|\s+(\S+)$",
                                                proc.stderr, re.MULTILINE)}
    assert {"aqsc", "numpy"} <= imported


def test_warm_record_calls_traced_geometry():
    # the geometry is cached below the traced names, so a warm record still
    # makes 2 edge_length calls and 1 opposite_edge_distance call through them
    tracer = _tracer()
    t = tracer.Tracer()
    names = ("geometry.edge_length", "geometry.opposite_edge_distance")
    with tracer.installed(t):
        design.code_parameters(Surface(5, False), SchlafliSymbol(3, 7))
        cold = [t.calls(name) for name in names]
        design.code_parameters(Surface(5, False), SchlafliSymbol(3, 7))
    assert [t.calls(name) - c for name, c in zip(names, cold)] == [2, 1]
