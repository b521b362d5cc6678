"""Metric names, units and the summary statistics the benchmark reports.

End-to-end metrics have the same names on every workload; what a call and
what parts a and b are differs per workload, and ALIASES gives each slot
the workload-specific name it stands for.
"""

from __future__ import annotations

import math
from typing import Sequence

# name, unit, better
END_TO_END = (
    ("p50_ms", "ms", "lower"),
    ("p90_ms", "ms", "lower"),
    ("part_a_per_s", "1/s", "higher"),
    ("part_b_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# workload -> (workload-specific name, slot or None when derived, unit)
ALIASES = {
    "cli": (("cli_p50_ms", "p50_ms", "ms"), ("cli_p90_ms", "p90_ms", "ms"),
            ("cli_cmds_per_s", None, "1/s"), ("cli_query_cmds_per_s", "part_a_per_s", "1/s"),
            ("cli_report_cmds_per_s", "part_b_per_s", "1/s")),
    "design_sweep": (("enumerate_designs_per_s", "part_a_per_s", "1/s"),
                     ("enumerate_call_p50_ms", "p50_ms", "ms"),
                     ("enumerate_call_p90_ms", "p90_ms", "ms"),
                     ("params_per_s", "part_b_per_s", "1/s")),
    "exact_distance": (("cycle_per_s", "part_a_per_s", "1/s"),
                       ("cycle_call_p50_ms", "p50_ms", "ms"),
                       ("cycle_call_p90_ms", "p90_ms", "ms"),
                       ("exhaustive_per_s", "part_b_per_s", "1/s")),
}

_CLI_KINDS = ("params", "enumerate", "tables", "figures", "inadmissible")


def _layer(name: str, *stats: str) -> list[tuple[str, str, str]]:
    units = {"calls": ("count", "lower"), "self_ms": ("ms", "lower"),
             "cells": ("count", "lower"), "vectors": ("count", "lower"),
             "candidates": ("count", "lower")}
    return [(f"{name}.{s}", *units[s]) for s in stats]


PER_LAYER = tuple(
    [("cli.python_floor_ms", "ms", "lower"), ("cli.import_aqsc_ms", "ms", "lower"),
     ("cli.import_numpy_ms", "ms", "lower")]
    + [(f"cli.{kind}.p50_ms", "ms", "lower") for kind in _CLI_KINDS]
    + _layer("design.admissibility", "calls", "self_ms")
    + _layer("design.enumerate_admissible", "calls", "self_ms")
    + [("design.admit_ratio", "ratio", "higher")]
    + _layer("design.code_parameters", "calls", "self_ms")
    + _layer("design.face_count", "calls", "self_ms")
    + _layer("design.asymmetry_curve", "self_ms")
    + _layer("geometry.edge_length", "calls", "self_ms")
    + _layer("geometry.opposite_edge_distance", "calls", "self_ms")
    + _layer("catalog.computed_parameters", "calls", "self_ms")
    + _layer("homology.builders", "self_ms")
    + _layer("homology.css_from_complex", "self_ms")
    + _layer("homology.gf2_row_reduce", "calls", "self_ms", "cells")
    + _layer("homology.gf2_nullspace", "self_ms")
    + _layer("homology.logical_operators", "self_ms")
    + _layer("homology.exhaustive_distances", "calls", "self_ms", "vectors")
    + _layer("homology.cycle_distances", "calls", "self_ms", "candidates")
    + [("bench.trace_overhead_pct", "%", "lower")]
)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_label(n: int) -> str:
    """Highest percentile with at least ten samples beyond it."""
    for pct in (99.9, 99, 90, 50):
        if n * (100 - pct) / 100 >= 10:
            return f"p{pct:g}"
    return "max"
