"""In-memory spans and counts for the traced run.

Wraps the public functions of each aqsc layer at the binding its caller
looks up (code_parameters reads `aqsc.design.edge_length`, so that is the
name patched, not `aqsc.geometry.edge_length`).  Each wrapper opens a span;
a span's self time is its duration minus the time its wrapped children
cover.  Per span name the tracer keeps calls, total and self time, plus
counts computed from the call's inputs, and hands them over at the end.

Only the traced run imports this module.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Optional

Count = Callable[..., dict]


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: dict[str, list[int]] = {}   # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self._children: list[int] = []          # ns covered by children, per open span

    def enter(self) -> int:
        self._children.append(0)
        return self.clock()

    def exit(self, name: str, start: int) -> None:
        duration = self.clock() - start
        covered = self._children.pop()
        agg = self.spans.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - covered
        if self._children:
            self._children[-1] += duration

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn: Callable, count: Optional[Count] = None) -> Callable:
        def traced(*args, **kwargs):
            start = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name, start)
            if count is not None:
                for stat, value in count(result, *args, **kwargs).items():
                    self.add(f"{name}.{stat}", value)
            return result
        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0, 0])[0]


# computed counts, from the inputs (and for enumerate, the output length)

def _enumerate_count(result, surface, p_max, q_max, *rest, **kw) -> dict:
    return {"symbols": max(0, p_max - 2) * max(0, q_max - 2), "designs": len(result)}


def _cells_count(result, m, *rest, **kw) -> dict:
    rows = len(m)
    return {"cells": rows * (len(m[0]) if rows else 0)}


def _vectors_count(result, code, *rest, **kw) -> dict:
    # both kernels of a connected closed surface: rank h_x = V - 1 and
    # rank h_z = F - 1 over GF(2), so the kernels have E - V + 1 and
    # E - F + 1 dimensions
    (v, e), f = code.h_x.shape, code.h_z.shape[0]
    return {"vectors": 2 ** (e - v + 1) + 2 ** (e - f + 1)}


def _candidates_count(result, cx, *rest, **kw) -> dict:
    # a BFS from every vertex (primal) and every face (dual), each testing
    # every edge
    return {"candidates": (cx.n_vertices + cx.n_faces) * cx.n_edges}


# (module, attribute, span name, count); aliases of one function share a name
PATCHES: tuple[tuple[str, str, str, Optional[Count]], ...] = (
    ("aqsc.design", "admissibility", "design.admissibility", None),
    ("aqsc.design", "enumerate_admissible", "design.enumerate_admissible", _enumerate_count),
    ("aqsc.design", "code_parameters", "design.code_parameters", None),
    ("aqsc.catalog", "code_parameters", "design.code_parameters", None),
    ("aqsc.design", "face_count", "design.face_count", None),
    ("aqsc.design", "asymmetry_curve", "design.asymmetry_curve", None),
    ("aqsc.design", "edge_length", "geometry.edge_length", None),
    ("aqsc.design", "opposite_edge_distance", "geometry.opposite_edge_distance", None),
    ("aqsc.catalog", "computed_parameters", "catalog.computed_parameters", None),
    ("aqsc.homology", "build_toric", "homology.builders", None),
    ("aqsc.homology", "build_klein_bottle", "homology.builders", None),
    ("aqsc.homology", "build_projective_plane", "homology.builders", None),
    ("aqsc.homology", "build_polygon_code", "homology.builders", None),
    ("aqsc.homology", "css_from_complex", "homology.css_from_complex", None),
    ("aqsc.homology", "gf2_row_reduce", "homology.gf2_row_reduce", _cells_count),
    ("aqsc.homology", "gf2_nullspace", "homology.gf2_nullspace", None),
    ("aqsc.homology", "logical_operators", "homology.logical_operators", None),
    ("aqsc.homology", "exhaustive_distances", "homology.exhaustive_distances", _vectors_count),
    ("aqsc.homology", "cycle_distances", "homology.cycle_distances", _candidates_count),
)


class installed:
    """Context manager: patch every binding in PATCHES, restore on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> Tracer:
        for module_name, attr, name, count in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self.tracer.wrap(name, original, count))
        return self.tracer

    def __exit__(self, *exc) -> None:
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)
