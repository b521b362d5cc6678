"""aqsc benchmark: run one workload (or all) and report its metrics.

    python3 perfbench/run.py --workload cli|design_sweep|exact_distance|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is used from src/, not
installed.  Each workload runs in fresh worker processes (perfbench/worker.py):
SETUP_RUNS of them are timed from process start to the end of set-up, and
the middle one also runs the timed loop.  The report is a header with the
provenance of the run, one line per metric with its workload-specific
name, unit and sample count, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  The exit code is 0 only when every worker ran.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import speed
from metrics import ALIASES, END_TO_END, PER_LAYER, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "design_sweep", "exact_distance")
SETUP_RUNS = 9


class WorkerFailed(RuntimeError):
    pass


def _worker(args: argparse.Namespace, workload: str, setup_only: bool) -> tuple[float, dict]:
    """Start a worker; return (seconds to READY, its JSON result or {})."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=2 * args.seconds + 60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else {})


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "aqsc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _setup(args: argparse.Namespace, workload: str, setup_only: bool) -> tuple[float, float, dict]:
    """(raw set-up seconds, python floor just before, worker result)."""
    floor = speed.floor_s()
    setup_s, result = _worker(args, workload, setup_only)
    return setup_s, floor, result


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    # set-up is timed in fresh processes before and after the timed loop, so
    # a short burst of machine contention cannot cover every sample; each is
    # scaled by a python floor probe taken just before it
    runs = [_setup(args, workload, True) for _ in range(SETUP_RUNS // 2)]
    runs.append(_setup(args, workload, False))
    result = runs[-1][2]
    runs += [_setup(args, workload, True) for _ in range(SETUP_RUNS // 2)]
    result["setup_runs"] = [s for s, _, _ in runs]
    result["setup_s"] = percentile([s * speed.FLOOR_NOMINAL_S / f for s, f, _ in runs], 50)
    result["setup_raw_s"] = percentile(result["setup_runs"], 50)
    return result


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers every waited-for
    # descendant: the workers and the aqsc commands they ran
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def report(workload: str, result: dict, trace: int) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    print(f"== {workload}: {result['attempted']} operations, {result['failed']} failed, "
          f"failed_ratio {result['failed'] / result['attempted']:.6f}; "
          f"inputs {result['inputs']} digest {result['inputs_digest'][:16]}")
    for detail in result["failures"]:
        print(f"   FAILED {detail}")
    print(f"   set-up wall times, s: " + " ".join(f"{s:.3f}" for s in result["setup_runs"]))
    if trace:
        layer = result["per_layer"]
        print(f"   traced {layer['_blocks']} whole blocks; tracing overhead "
              f"{layer['bench.trace_overhead_pct']:.1f}% = {layer['_overhead_ms_per_op']:.3f} "
              "ms per operation (traced minus untraced, same operations)")
        for name, unit, _ in PER_LAYER:
            print(f"   {name:44s} {layer[name]:14.4f} {unit}")
        return {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
    slots = dict(result["slots"], setup_s=result["setup_s"], peak_rss_mb=result["peak_rss_mb"])
    raw = result["raw"]
    print(f"   {result['blocks']} whole block(s), latency over {result['key_samples']} calls "
          f"(tail with >= 10 samples beyond: {result['tail']}); speed probe median "
          f"{result['probe_ms']:.3f} ms, nominal {result['nominal_ms']:.3f} ms")
    print(f"   {'metric':28s} {'scaled':>14s} {'unit':5s} {'measured':>14s}")
    for alias, slot, unit in ALIASES[workload]:
        print(f"   {alias:28s} {result['aliases'][alias]:14.4f} {unit:5s} {raw[alias]:14.4f}"
              + (f"  [{slot}]" if slot else ""))
    print(f"   {'setup_s':28s} {slots['setup_s']:14.4f} {'s':5s} {result['setup_raw_s']:14.4f}"
          "  [setup_s]")
    print(f"   {'peak_rss_mb':28s} {slots['peak_rss_mb']:14.4f} {'MB':5s} "
          f"{slots['peak_rss_mb']:14.4f}  [peak_rss_mb]")
    print(f"   {'failed_ratio':28s} {result['failed'] / result['attempted']:14.4f} ratio")
    return {name: {"value": slots[name], "unit": unit} for name, unit, _ in END_TO_END}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load = os.getloadavg()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for name in names:
            results[name] = run_workload(args, name)
            results[name]["peak_rss_mb"] = _peak_rss_mb()
    except (WorkerFailed, json.JSONDecodeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    versions = next(iter(results.values()))["versions"]
    header = {"git_commit": _git_commit(), "src_digest": _source_digest(), **versions,
              "platform": platform.platform(), "nproc": os.cpu_count(),
              "loadavg_at_start": [round(x, 2) for x in load],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print("# run " + json.dumps(header))
    metrics = {}
    for name, result in results.items():
        shown = report(name, result, args.trace)
        if len(results) == 1:
            metrics = shown
        else:
            metrics.update({f"{name}.{k}": v for k, v in shown.items()})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
