"""One benchmark process: set up a workload, run it, print its figures.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Prints READY once set-up is done (imports, input generation, golden data,
oracle scans), so the parent can time set-up from process start.  With
--setup-only it stops there.  Otherwise it runs the closed loop and prints
one JSON line of raw figures for perfbench/run.py to report.

--trace 0 runs the workload for S seconds, with speed probes between
operations (see speed.py).  --trace 1 runs whole blocks
untraced for S/2 seconds, replays the same operations with the tracer
installed, then runs the census; per-layer figures are per block of the
workload plus one census pass.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import platform
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import aqsc  # noqa: E402
import numpy as np  # noqa: E402
import speed  # noqa: E402
import workloads as w  # noqa: E402
from metrics import ALIASES, PER_LAYER, percentile, tail_label  # noqa: E402


def run_ops(workload, entries) -> list:
    """Run each entry; an exception is a failed operation, not a crash."""
    outcomes = []
    for entry in entries:
        try:
            outcomes.append(workload.op(entry))
        except Exception as exc:  # the loop must survive a broken operation
            outcomes.append(w.Outcome(False, (), f"{entry}: {type(exc).__name__}: {exc}"))
    return outcomes


# a speed probe runs at every block start and before any operation that
# starts this long after the previous probe
PROBE_INTERVAL_S = 0.5


def timed_pass(workload, seconds: float, whole_blocks: bool) -> tuple[list, list, list]:
    """Run deck entries in order until `seconds` have passed.

    With whole_blocks the pass stops only at a block boundary.  Returns the
    entries, their outcomes and the speed probes as (entry index, seconds).
    """
    deck, size = workload.deck, workload.block_size
    entries, outcomes, probes = [], [], []
    deadline = time.perf_counter() + seconds
    last_probe = -PROBE_INTERVAL_S
    i = 0
    while time.perf_counter() < deadline or (whole_blocks and i % size):
        if i % size == 0 or time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            probes.append((i, workload.probe()))
            last_probe = time.perf_counter()
        entry = deck[i % len(deck)]
        entries.append(entry)
        outcomes += run_ops(workload, [entry])
        i += 1
    return entries, outcomes, probes


# an operation's scale comes from the median of the probes nearest to it
NEAREST_PROBES = 3


def op_scales(n: int, probes: list, nominal: float) -> list[float]:
    """nominal / (median of the NEAREST_PROBES probes around each operation).

    A probe recorded at index i ran just before operation i.
    """
    out = []
    for i in range(n):
        j = bisect.bisect_right(probes, (i, math.inf))
        window = probes[max(0, j - NEAREST_PROBES):j + NEAREST_PROBES]
        near = sorted(window, key=lambda p: abs(p[0] - i - 0.5))[:NEAREST_PROBES]
        out.append(nominal / percentile([s for _, s in near], 50))
    return out


def figures(name: str, blocks: list) -> dict:
    """Slot and alias values; blocks are lists of (outcome, scale).

    Latency percentiles pool the scaled calls of every block; each
    throughput is the median over blocks of the block's own rate.
    """
    def rate(block: list, part: Optional[str]) -> float:
        ts = [(t, s) for o, s in block for t in o.timings if part in (None, t.part)]
        return sum(t.units for t, _ in ts) / sum(t.seconds * s for t, s in ts)

    key = [t.seconds * 1000 * s for b in blocks for o, s in b for t in o.timings if t.key]
    out = {"p50_ms": percentile(key, 50), "p90_ms": percentile(key, 90)}
    for part in ("a", "b"):
        out[f"part_{part}_per_s"] = percentile([rate(b, part) for b in blocks], 50)
    for alias, slot, _ in ALIASES[name]:
        # cli_cmds_per_s, the one alias without a slot, counts every command
        out[alias] = out[slot] if slot else percentile([rate(b, None) for b in blocks], 50)
    return out


def summarize(workload, outcomes: list, probes: list) -> dict:
    """End-to-end figures of one untraced pass that started at a block boundary.

    Only whole blocks count, unless the pass holds none.  Every block holds
    the same strata of inputs.  Each operation's times are scaled by its
    nearest speed probes (see speed.py); the unscaled figures come along.
    """
    size = workload.block_size
    spans = [(lo, lo + size) for lo in range(0, len(outcomes) - size + 1, size)]
    spans = spans or [(0, len(outcomes))]
    scales = op_scales(len(outcomes), probes, workload.nominal)
    blocks = [list(zip(outcomes[lo:hi], scales[lo:hi])) for lo, hi in spans]
    scaled = figures(workload.name, blocks)
    raw = figures(workload.name, [[(o, 1.0) for o, _ in b] for b in blocks])
    key = sum(1 for b in blocks for o, _ in b for t in o.timings if t.key)
    return {"slots": {k: scaled[k] for k in ("p50_ms", "p90_ms", "part_a_per_s", "part_b_per_s")},
            "aliases": scaled, "raw": raw, "key_samples": key, "tail": tail_label(key),
            "blocks": len(blocks), "probe_ms": percentile([s for _, s in probes], 50) * 1000,
            "nominal_ms": workload.nominal * 1000}


def _import_ms(env: dict) -> tuple[float, float]:
    """Cumulative import time of aqsc and of numpy, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import aqsc"],
                          capture_output=True, text=True, env=env, check=True, timeout=60)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1000
    return cumulative["aqsc"], cumulative["numpy"]


def startup_probes(reps: int = 5) -> dict:
    env = w.child_env()
    floor = [speed.floor_s() * 1000 for _ in range(reps)]
    imports = [_import_ms(env) for _ in range(reps)]
    return {"cli.python_floor_ms": percentile(floor, 50),
            "cli.import_aqsc_ms": percentile([a for a, _ in imports], 50),
            "cli.import_numpy_ms": percentile([n for _, n in imports], 50)}


def traced_run(workload, seconds: float) -> tuple[dict, list]:
    entries, untraced, _ = timed_pass(workload, seconds / 2, whole_blocks=True)
    blocks = len(entries) // workload.block_size

    import tracer as tr  # only the traced run loads the wrappers

    tracer = tr.Tracer()
    with tr.installed(tracer):
        traced = run_ops(workload, entries)
        per_block = {name: list(agg) for name, agg in tracer.spans.items()}
        counts_per_block = dict(tracer.counts)
        census_outcomes = []
        for name, census_entries in w.census().items():
            instance = workload if name == workload.name else w.WORKLOADS[name](0)
            census_outcomes += run_ops(instance, census_entries)
    census_spans = {name: [agg[i] - per_block.get(name, [0, 0, 0])[i] for i in range(3)]
                    for name, agg in tracer.spans.items()}
    census_counts = {name: v - counts_per_block.get(name, 0)
                     for name, v in tracer.counts.items()}

    def spans(name: str, i: int) -> float:
        return (per_block.get(name, [0, 0, 0])[i] / blocks
                + census_spans.get(name, [0, 0, 0])[i])

    def counts(name: str) -> float:
        return counts_per_block.get(name, 0) / blocks + census_counts.get(name, 0)

    layer = startup_probes()
    cli_ms = {}
    for o in traced + census_outcomes:
        for t in o.timings:
            if t.kind.startswith("cli."):
                cli_ms.setdefault(t.kind, []).append(t.seconds * 1000)
    for kind, values in cli_ms.items():
        layer[f"{kind}.p50_ms"] = percentile(values, 50)
    for name, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            layer[name] = spans(base, 0)
        elif stat == "self_ms":
            layer[name] = spans(base, 2) / 1e6
        elif stat in ("cells", "vectors", "candidates"):
            layer[name] = counts(name)
    layer["design.admit_ratio"] = (counts("design.enumerate_admissible.designs")
                                   / counts("design.enumerate_admissible.symbols"))
    before = sum(t.seconds for o in untraced for t in o.timings)
    after = sum(t.seconds for o in traced for t in o.timings)
    layer["bench.trace_overhead_pct"] = (after - before) / before * 100
    layer["_blocks"] = blocks
    layer["_overhead_ms_per_op"] = (after - before) * 1000 / len(entries)
    return layer, untraced + traced + census_outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(w.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = w.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"inputs_digest": w.digest(workload.deck), "inputs": len(workload.deck),
              "versions": {"python": platform.python_version(), "numpy": np.__version__,
                           "aqsc": aqsc.__version__}}
    if args.trace:
        result["per_layer"], outcomes = traced_run(workload, args.seconds)
    else:
        _, outcomes, probes = timed_pass(workload, args.seconds, whole_blocks=False)
        result.update(summarize(workload, outcomes, probes))
    outcomes = list(workload.setup_outcomes) + outcomes
    failures = [o.detail for o in outcomes if not o.ok]
    result["attempted"] = len(outcomes)
    result["failed"] = len(failures)
    result["failures"] = failures[:10]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
