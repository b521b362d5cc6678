"""The benchmark's traced run patches library names; tier-1 keeps them bound.

`perfbench/tracer.PATCHES` lists every (module, attribute) the traced run
wraps, and the benchmark worker reads numpy's import time from
`python -X importtime -c "import aqsc"`.  A refactor that drops either
would crash only a traced or full benchmark run, so both are checked here.
"""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _patches():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PATCHES


def test_every_traced_binding_resolves():
    patches = _patches()
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
