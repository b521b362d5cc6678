"""Capture the golden outputs the benchmark gates compare against.

Run once, at the commit whose behaviour is the reference, from the repo root:

    python3 perfbench/capture_golden.py

It writes perfbench/golden/cli.json (exit code and a stdout digest for every
command in the cli pool) and perfbench/golden/design.json (the [[n,k,d_z/d_x]]
records of every admissible design on the surface pool, the asymmetry series
and the regenerated catalog).  Re-capturing after a change of behaviour
hides that change from the gates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as w  # noqa: E402
from aqsc import catalog, design  # noqa: E402
from aqsc.geometry import SchlafliSymbol, Surface  # noqa: E402


def capture_cli() -> dict:
    env = w.child_env()
    out = {}
    for argvs in w.cli_pool().values():
        for argv in argvs:
            proc = w.run_aqsc(argv, env)
            out[" ".join(argv)] = w.cli_fingerprint(proc.returncode, proc.stdout)
    return out


def capture_design() -> dict:
    records = {}
    for genus, orientable in w.SURFACE_POOL:
        cps = design.enumerate_admissible(Surface(genus, orientable), w.BOUND_HI, w.BOUND_HI)
        records[w.surface_key(genus, orientable)] = {
            f"{cp.sym.p},{cp.sym.q}": w.record_of(cp) for cp in cps}
    asymmetry = {}
    for p, q in w.ASYM_SYMS:
        pts = design.asymmetry_curve(SchlafliSymbol(p, q), range(3, w.ASYM_GENUS_MAX + 1))
        asymmetry[f"{p},{q}"] = {str(pt.genus): [pt.d_z, pt.d_x] for pt in pts}
    regen = [w.record_of(catalog.computed_parameters(genus, row))
             for genus, table in sorted(catalog.TABLES.items()) for row in table.rows]
    return {"records": records, "asymmetry": asymmetry, "catalog": regen}


def main() -> None:
    w.GOLDEN.mkdir(exist_ok=True)
    for name, data in (("design.json", capture_design()), ("cli.json", capture_cli())):
        (w.GOLDEN / name).write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {w.GOLDEN / name}")


if __name__ == "__main__":
    main()
