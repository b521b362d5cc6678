import functools
import os
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import accumulate, chain, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aqsc import checks, homology
from aqsc.checks import triangle_torus
from aqsc.homology import (
    NoLogicals,
    NotClosedSurface,
    SurfaceComplex,
    build_klein_bottle,
    build_polygon_code,
    build_projective_plane,
    build_toric,
    complex_from_polygons,
    css_from_complex,
    cycle_distances,
    dump_complex,
    exhaustive_distances,
    gf2_nullspace,
    gf2_rank,
    gf2_row_reduce,
    load_complex,
    logical_count,
    logical_operators,
)


def _random_polygon(rng, n_sides):
    """One polygon, its sides paired at random: (pairs, complex)."""
    sides = rng.sample(range(n_sides), n_sides)
    pairs = [(sides[i], sides[i + 1], rng.random() < 0.5) for i in range(0, n_sides, 2)]
    return pairs, complex_from_polygons([n_sides], pairs)


def _random_sides(rng, n_edges):
    """One to four polygons with 2 n_edges sides in all, their sides paired
    at random: the (face sizes, pairs) of `complex_from_polygons`."""
    n_sides = 2 * n_edges
    cuts = sorted(rng.sample(range(1, n_sides), min(n_sides - 1, rng.randint(0, 3))))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n_sides])]
    sides = rng.sample(range(n_sides), n_sides)
    pairs = [(sides[2 * e], sides[2 * e + 1], rng.random() < 0.5) for e in range(n_edges)]
    return sizes, pairs


def _random_gluing(rng, n_edges):
    """A closed surface, perhaps disconnected: `_random_sides` glued."""
    return complex_from_polygons(*_random_sides(rng, n_edges))


def _twisted_sides(rng, projective=False):
    """a x b squares, each glued to its right and upper neighbours; the last
    column and row wrap around with a random shift and perhaps a flip, and
    about 30% of the squares are cut on a diagonal into two triangles.
    E = 2ab + cuts <= 27 edges, in reach of kernel enumeration.  With
    `projective`, both wraps flip with no shift: a projective plane, chi = 1,
    which no other shift and flip gives.  Returns the (face sizes, pairs)
    of `complex_from_polygons`."""
    a = rng.randint(2, 4)
    b = rng.randint(2, 9 // a)
    sizes, sides, pairs = [], {}, []   # sides[x, y]: bottom, right, top, left
    for x in range(a):
        for y in range(b):
            s = sum(sizes)
            if rng.random() < 0.3:   # (bottom, right, diagonal), (diagonal, top, left)
                sizes += [3, 3]
                sides[x, y] = (s, s + 1, s + 4, s + 5)
                pairs.append((s + 2, s + 3, False))
            else:
                sizes.append(4)
                sides[x, y] = (s, s + 1, s + 2, s + 3)
    if projective:
        shift_x = shift_y = 0
        flip_x = flip_y = True
    else:
        shift_x, shift_y = rng.randrange(b), rng.randrange(a)
        flip_x, flip_y = rng.random() < 0.5, rng.random() < 0.5
    for (x, y), (_, right, top, _) in sides.items():
        nx = (x + 1, y) if x < a - 1 else (0, (shift_x - 1 - y if flip_x else shift_x + y) % b)
        ny = (x, y + 1) if y < b - 1 else ((shift_y - 1 - x if flip_y else shift_y + x) % a, 0)
        pairs += [(right, sides[nx][3], flip_x and x == a - 1),
                  (top, sides[ny][0], flip_y and y == b - 1)]
    return sizes, pairs


def _twisted_grid(rng, projective=False):
    """The surface of `_twisted_sides`, glued."""
    return complex_from_polygons(*_twisted_sides(rng, projective))


def _reference_gluing(face_sizes, pairs):
    """(V, edge endpoints, face boundaries) of `complex_from_polygons`, by
    union-find over the corners: each class of glued corners is a vertex,
    numbered by its smallest corner."""
    starts = list(accumulate(face_sizes, initial=0))
    head = list(range(1, starts[-1] + 1))
    for a, b in zip(starts, starts[1:]):
        head[b - 1] = a
    parent = list(range(starts[-1]))

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for s, t, reversing in pairs:
        for a, b in ((s, t), (head[s], head[t])) if reversing else ((s, head[t]), (head[s], t)):
            parent[find(a)] = find(b)   # any root: the numbering below ignores it
    smallest = {}
    for c in range(starts[-1]):
        smallest.setdefault(find(c), c)
    number = {root: i for i, root in enumerate(sorted(smallest, key=smallest.get))}
    edge_of = {side: i for i, (s, t, _) in enumerate(pairs) for side in (s, t)}
    endpoints = tuple((number[find(s)], number[find(head[s])]) for s, _, _ in pairs)
    faces = tuple(tuple(edge_of[c] for c in range(a, b)) for a, b in zip(starts, starts[1:]))
    return len(number), endpoints, faces


def _reference_grid_pairs(l, flip_x, flip_y):
    """The side pairs of `_grid_quotient`, each side number from the square
    (x, y) and its side k = bottom, right, top, left, wrapping around."""
    side = lambda x, y, k: 4 * (x % l * l + y % l) + k
    pairs = []
    for x in range(l):
        for y in range(l):
            fx, fy = flip_x and x == l - 1, flip_y and y == l - 1
            pairs.append((side(x, y, 1), side(0, l - 1 - y, 3) if fx else side(x + 1, y, 3), fx))
            pairs.append((side(x, y, 2), side(l - 1 - x, 0, 0) if fy else side(x, y + 1, 0), fy))
    return pairs


def _components(cx):
    """Connected components of a complex whose every vertex lies on an edge:
    those of its dual graph, faces joined across each edge."""
    label = list(range(cx.n_faces))

    def find(f):
        while label[f] != f:
            f = label[f]
        return f

    face_of = {}
    for f, boundary in enumerate(cx.face_boundaries):
        for e in boundary:
            label[find(f)] = find(face_of.setdefault(e, f))
    return len({find(f) for f in range(cx.n_faces)})


def _renumbered(cx, rng):
    """cx with vertices, edges and faces renumbered, edges flipped and
    boundaries rotated at random: the same surface in another root order."""
    v = rng.sample(range(cx.n_vertices), cx.n_vertices)
    e = rng.sample(range(cx.n_edges), cx.n_edges)
    endpoints = [None] * cx.n_edges
    for old, (a, b) in enumerate(cx.edge_endpoints):
        endpoints[e[old]] = (v[a], v[b]) if rng.random() < 0.5 else (v[b], v[a])
    faces = []
    for boundary in rng.sample(cx.face_boundaries, cx.n_faces):
        r = rng.randrange(len(boundary))
        faces.append(tuple(e[x] for x in boundary[r:] + boundary[:r]))
    return SurfaceComplex(cx.n_vertices, cx.n_edges, cx.n_faces, tuple(endpoints), tuple(faces))


def _face_walk(cx, boundary):
    """Per side of a face, +1 where its walk runs along the edge's (u, v)
    endpoints and -1 against, read from the endpoints alone (so a loop,
    whose direction they do not show, reads +1)."""
    ends = cx.edge_endpoints
    for start in ends[boundary[0]]:
        at, signs = start, []
        for e in boundary:
            u, v = ends[e]
            if at not in (u, v):
                break
            signs.append(1 if at == u else -1)
            at = v if at == u else u
        else:
            if at == start:
                return signs
    raise AssertionError(f"face {boundary} is no closed walk")


def _orientable(cx):
    """Whether each face can keep or reverse its walk so that every edge is
    run once each way: a 2-colouring of the faces, where two faces whose
    walks run a shared edge the same way take opposite colours."""
    slots = [[] for _ in range(cx.n_edges)]
    for f, boundary in enumerate(cx.face_boundaries):
        for e, sign in zip(boundary, _face_walk(cx, boundary)):
            slots[e].append((f, sign))
    # turn[g] = rel * turn[f] along each edge, from turn[f] * a = -turn[g] * b
    adj = [[] for _ in range(cx.n_faces)]
    for (f, a), (g, b) in slots:
        adj[f].append((g, -a * b))
        adj[g].append((f, -a * b))
    turn = [0] * cx.n_faces
    for root in range(cx.n_faces):
        if turn[root]:
            continue
        turn[root], stack = 1, [root]
        while stack:
            f = stack.pop()
            for g, rel in adj[f]:
                if not turn[g]:
                    turn[g] = rel * turn[f]
                    stack.append(g)
                elif turn[g] != rel * turn[f]:
                    return False
    return True


def _reference_checks(cx):
    """(h_x, h_z) built one incidence at a time: faces, then vertex stars."""
    h_x = np.zeros((cx.n_faces, cx.n_edges), dtype=np.uint8)
    for f, b in enumerate(cx.face_boundaries):
        for e in b:
            h_x[f, e] ^= 1
    h_z = np.zeros((cx.n_vertices, cx.n_edges), dtype=np.uint8)
    for e, (u, v) in enumerate(cx.edge_endpoints):
        h_z[u, e] ^= 1
        h_z[v, e] ^= 1
    return h_x, h_z


def _logical_basis(kernel_of, modulo):
    """Representatives spanning ker(kernel_of) / rowspace(modulo), by the
    numpy pivot loop `_reference_row_reduce`, sharing no code with the
    library's elimination.

    Adding rows of rref(modulo) clears its pivot columns from every kernel
    vector (uint8 products wrap mod 256, which keeps their parity).  The
    residues are zero on those columns, so they meet the row space only in
    0, and their echelon rows are a basis of the quotient.
    """
    rref, pivots = _reference_row_reduce(modulo)
    kernel = _reference_nullspace(kernel_of)
    return _reference_row_reduce((kernel + kernel[:, pivots] @ rref) % 2)[0]


def _reference_logicals(cx):
    """(X logicals, Z logicals) of `_reference_checks` by elimination, with
    no use of the tree-cotree split."""
    h_x, h_z = _reference_checks(cx)
    return _logical_basis(h_z, h_x), _logical_basis(h_x, h_z)


def _reference_systole(n_nodes, endpoints, detector):
    """Shortest cycle the detector rows pair oddly with, by full-depth BFS.

    Every root is searched to the end, every edge closes a candidate from
    the two tree paths, and each candidate is held as its GF(2) edge set.
    """
    adj = [[] for _ in range(n_nodes)]
    for e, (u, v) in enumerate(endpoints):
        adj[u].append((v, e))
        if u != v:
            adj[v].append((u, e))
    det = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in detector]
    best = None
    for root in range(n_nodes):
        path = [None] * n_nodes
        path[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v, e in adj[u]:
                    if path[v] is None:
                        path[v] = path[u] ^ (1 << e)
                        nxt.append(v)
            queue = nxt
        for e, (u, v) in enumerate(endpoints):
            if path[u] is None or path[v] is None:
                continue
            vec = path[u] ^ path[v] ^ (1 << e)
            if vec and any((vec & m).bit_count() & 1 for m in det):
                if best is None or vec.bit_count() < best:
                    best = vec.bit_count()
    return best


def _lifted_systole(n_nodes, endpoints, detector):
    """Shortest closed walk the detector rows pair oddly with, or None.

    A BFS from (r, 0) for every node r, to full depth and with no pruning,
    in the parity-lifted graph: node (x, p) joins (y, p ^ parity(e)) along
    each edge e = (x, y).  The nearest lift (r, p) with p != 0 closes the
    shortest such walk through r, and the shortest walk is a cycle, since
    the cycles it splits into mod 2 are no longer and one of them is odd.
    """
    adj = [[] for _ in range(n_nodes)]
    for e, (u, v) in enumerate(endpoints):
        parity = sum(int(row[e]) << i for i, row in enumerate(detector))
        adj[u].append((v, parity))
        adj[v].append((u, parity))
    best = None
    for root in range(n_nodes):
        dist = {(root, 0): 0}
        queue = [(root, 0)]
        for x, p in queue:   # the loop reaches the nodes appended during it
            for y, parity in adj[x]:
                lift = y, p ^ parity
                if lift not in dist:
                    dist[lift] = dist[x, p] + 1
                    queue.append(lift)
        for (x, p), d in dist.items():
            if x == root and p and (best is None or d < best):
                best = d
    return best


def _reference_cycle_distances(cx, systole=_reference_systole):
    """(d_x, d_z) by a full-depth search, tested against the opposing logicals."""
    lx, lz = _reference_logicals(cx)
    face_of = [[] for _ in range(cx.n_edges)]
    for f, b in enumerate(cx.face_boundaries):
        for e in b:
            face_of[e].append(f)
    d_x = systole(cx.n_vertices, cx.edge_endpoints, lz)
    d_z = systole(cx.n_faces, [tuple(fs) for fs in face_of], lx)
    return d_x, d_z


def _brute_force_distances(cx):
    """(d_x, d_z) over all 2^n edge sets, or None when nothing is a logical.

    A Z logical commutes with every X check (h_x c = 0) and is not in the
    span of the Z checks, which is enumerated element by element; X
    logicals swap the roles.
    """
    def masks(h):
        return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in h]

    def span(rows):
        out = {0}
        for r in rows:
            out |= {s ^ r for s in out}
        return out

    def lightest(opposing, own):
        stabilizers = span(own)
        weights = [c.bit_count() for c in range(1, 1 << cx.n_edges)
                   if c not in stabilizers
                   and not any((c & r).bit_count() & 1 for r in opposing)]
        return min(weights, default=None)

    h_x, h_z = (masks(h) for h in _reference_checks(cx))
    d_x, d_z = lightest(h_z, h_x), lightest(h_x, h_z)
    assert (d_x is None) == (d_z is None)
    return None if d_x is None else (d_x, d_z)


_TOKEN = st.sampled_from(("-1", "0", "1", "2", "3", "x", "#", "1.5"))
_LINE = st.lists(_TOKEN, max_size=4).map(" ".join)


@functools.cache
def _dumps():
    """The split dump lines of a few small complexes, built on the first draw."""
    return [[line.split() for line in dump_complex(cx).splitlines()]
            for cx in (SurfaceComplex(0, 0, 0, (), ()), build_toric(2), build_polygon_code(4),
                       build_polygon_code(6, orientable=False))]


@st.composite
def _edited_dumps(draw):
    """The lines of a small complex's dump with up to three tokens replaced."""
    lines = [list(line) for line in draw(st.sampled_from(_dumps()))]
    for _ in range(draw(st.integers(0, 3))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        line[draw(st.integers(0, len(line) - 1))] = draw(_TOKEN)
    return [" ".join(line) for line in lines]


@st.composite
def _two_slot_complexes(draw):
    """SurfaceComplex arguments whose faces use each edge twice, on
    arbitrary endpoints, loops included: the checks may not commute."""
    n_edges, n_vertices = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    vertex = st.integers(0, n_vertices - 1)
    endpoints = tuple(draw(st.lists(st.tuples(vertex, vertex),
                                    min_size=n_edges, max_size=n_edges)))
    slots = draw(st.permutations([e for e in range(n_edges) for _ in (0, 1)]))
    cuts = sorted(draw(st.sets(st.integers(1, 2 * n_edges - 1))))
    faces = tuple(tuple(slots[a:b]) for a, b in zip([0] + cuts, cuts + [2 * n_edges]))
    return n_vertices, n_edges, len(faces), endpoints, faces


def _meets_oddly(endpoints, faces):
    """Whether some vertex star and face share a column oddly: the count of
    (endpoint slot, face slot) pairs of each edge, by vertex and face."""
    dual = [[] for _ in endpoints]
    for f, boundary in enumerate(faces):
        for e in boundary:
            dual[e].append(f)
    meets = Counter(chain.from_iterable(map(product, endpoints, dual)))
    return any(m % 2 for m in meets.values())


def _reference_row_reduce(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2) by a numpy pivot loop, column by
    column, with none of the library's int-mask elimination."""
    a = np.atleast_2d(np.array(m, dtype=np.uint8) % 2)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        hit = np.nonzero(a[r:, c])[0]
        if hit.size == 0:
            continue
        pr = r + hit[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        mask = a[:, c].astype(bool)
        mask[r] = False
        a[mask] ^= a[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def _reference_rank(m):
    return len(_reference_row_reduce(m)[1])


def _reference_nullspace(m):
    """Basis of the right kernel from `_reference_row_reduce`: free column c
    set, and each pivot column the entry of its rref row at c."""
    rref, pivots = _reference_row_reduce(m)
    free = [c for c in range(rref.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), rref.shape[1]), dtype=np.uint8)
    for i, c in enumerate(free):
        basis[i, c] = 1
        basis[i, pivots] = rref[:, c]
    return basis


@st.composite
def _matrices(draw):
    """Up to 12 x 40 matrices of entries 0..3, some of them 0 x n or r x 0,
    and now and then one row as a 1-D list."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 40))
    entries = st.integers(0, 3) if draw(st.booleans()) else st.sampled_from((0, 0, 0, 1, 2, 3))
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if rows and draw(st.booleans()):
        return m[0]
    return np.array(m, dtype=np.uint8).reshape(rows, cols)


class TestGf2:
    def test_rank_examples(self):
        assert gf2_rank(np.array([[1, 0], [0, 1]], dtype=np.uint8)) == 2
        assert gf2_rank(np.array([[1, 1], [1, 1]], dtype=np.uint8)) == 1
        assert gf2_rank(np.zeros((3, 4), dtype=np.uint8)) == 0

    def test_row_reduce_pivots(self):
        m = np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8)
        rref, pivots = gf2_row_reduce(m)
        assert pivots == [0, 1]
        assert rref.tolist() == [[1, 0, 1], [0, 1, 1]]

    @given(_matrices())
    @example([2, 3, 0, 1])
    @example(np.zeros((0, 5), dtype=np.uint8))
    @example(np.zeros((3, 0), dtype=np.uint8))
    @settings(max_examples=300, deadline=None)
    def test_row_reduce_matches_pivot_loop(self, m):
        # the one elimination against the numpy pivot loop that the
        # test-side references above run on, sharing no code with it
        rref, pivots = gf2_row_reduce(m)
        expect, expect_pivots = _reference_row_reduce(m)
        assert (rref.dtype, rref.shape, pivots) == (expect.dtype, expect.shape, expect_pivots)
        assert rref.tolist() == expect.tolist()

    @given(st.integers(1, 6), st.integers(1, 8), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_rank_nullity(self, rows, cols, rng):
        m = np.array([[rng.randint(0, 1) for _ in range(cols)]
                      for _ in range(rows)], dtype=np.uint8)
        null = gf2_nullspace(m)
        assert null.tolist() == _reference_nullspace(m).tolist()
        assert gf2_rank(m) + len(null) == cols
        if len(null):
            assert not ((m @ null.T) % 2).any()
            assert gf2_rank(null) == len(null)


class TestBuilders:
    @pytest.mark.parametrize("l", range(2, 7))
    def test_toric_counts(self, l):
        cx = build_toric(l)
        assert (cx.n_vertices, cx.n_edges, cx.n_faces) == (l * l, 2 * l * l, l * l)
        assert cx.euler_characteristic == 0
        assert all(len(b) == 4 for b in cx.face_boundaries)
        ends = [u for pair in cx.edge_endpoints for u in pair]
        assert all(ends.count(u) == 4 for u in range(cx.n_vertices))

    def test_small_side_rejected(self):
        with pytest.raises(ValueError):
            build_toric(1)

    def test_polygons_glue_into_a_sphere(self):
        # two triangles glued along their boundaries: V - E + F = 3 - 3 + 2
        cx = complex_from_polygons([3, 3], [(0, 5, False), (1, 4, False), (2, 3, False)])
        assert cx.edge_endpoints == ((0, 1), (1, 2), (2, 0))
        assert cx.face_boundaries == ((0, 1, 2), (2, 1, 0))
        assert cx.euler_characteristic == 2

    @pytest.mark.parametrize("sizes,pairs", [
        ([2], [(0, 0, False)]),
        ([2], [(0, 2, False)]),
        ([4], [(0, 1, False)]),
        ([2, 0], [(0, 1, False)]),
    ])
    def test_polygons_need_a_partition_of_sides(self, sizes, pairs):
        with pytest.raises(ValueError):
            complex_from_polygons(sizes, pairs)

    @given(st.one_of(
        st.builds(_random_sides, st.randoms(use_true_random=False), st.integers(1, 18)),
        st.builds(_twisted_sides, st.randoms(use_true_random=False), st.booleans())))
    @settings(max_examples=200, deadline=None)
    def test_gluings_number_vertices_by_smallest_corner(self, glued):
        cx = complex_from_polygons(*glued)
        assert (cx.n_vertices, cx.edge_endpoints, cx.face_boundaries) == _reference_gluing(*glued)

    # build_polygon_code(2l) has one or two vertices; its non-orientable
    # form always has one, so no numbering to check
    @pytest.mark.parametrize("build", [
        build_toric, build_klein_bottle, build_projective_plane, triangle_torus,
        lambda l: build_polygon_code(2 * l),
    ], ids=["toric", "klein", "projective", "triangle torus", "polygon"])
    def test_builders_number_vertices_by_smallest_corner(self, build, monkeypatch):
        calls = []

        def recording(face_sizes, pairs):
            calls.append((face_sizes, pairs))
            return complex_from_polygons(face_sizes, pairs)

        monkeypatch.setattr(homology, "complex_from_polygons", recording)
        flips = {build_toric: (False, False), build_klein_bottle: (True, False),
                 build_projective_plane: (True, True)}.get(build)
        for l in range(2, 15):
            cx = build(l)
            face_sizes, pairs = calls.pop()
            assert (cx.n_vertices, cx.edge_endpoints, cx.face_boundaries) \
                == _reference_gluing(face_sizes, pairs), l
            if flips:
                assert pairs == _reference_grid_pairs(l, *flips), l

    @pytest.mark.parametrize("l", range(3, 7))
    def test_orientability(self, l):
        # the torus and the Klein bottle share V, E, F, k and (d_x, d_z):
        # only the gluing tells them apart
        assert _orientable(build_toric(l))
        assert not _orientable(build_klein_bottle(l))
        assert not _orientable(build_projective_plane(l))

    @pytest.mark.parametrize("l", range(3, 6))
    def test_triangle_torus_counts(self, l):
        cx = triangle_torus(l)
        assert (cx.n_vertices, cx.n_edges, cx.n_faces) == (l * l, 3 * l * l, 2 * l * l)
        ends = [u for pair in cx.edge_endpoints for u in pair]
        assert all(ends.count(u) == 6 for u in range(cx.n_vertices))
        assert logical_count(cx) == 2


class TestComplexValidation:
    def test_edge_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            SurfaceComplex(2, 1, 1, ((0, 5),), ((0,),))

    def test_face_edge_out_of_range(self):
        with pytest.raises(ValueError):
            SurfaceComplex(2, 1, 1, ((0, 1),), ((3,),))

    def test_empty_face_rejected(self):
        # the one-vertex, one-face sphere would dump its face as a blank line
        with pytest.raises(ValueError, match="empty"):
            SurfaceComplex(1, 0, 1, (), ((),))

    def test_open_surface_rejected(self):
        # an edge used once cannot close up
        with pytest.raises(NotClosedSurface):
            SurfaceComplex(2, 2, 1, ((0, 1), (0, 1)), ((0, 0),))

    def test_non_commuting_checks_rejected(self):
        # every edge is used twice, but both faces meet vertex 0 once, on
        # edge 0: the loop at vertex 0 drops out of its star
        with pytest.raises(NotClosedSurface, match="do not commute"):
            SurfaceComplex(2, 2, 2, ((0, 1), (0, 0)), ((0, 1), (0, 1)))

    @staticmethod
    def _assert_commutation(args):
        if _meets_oddly(*args[3:]):
            with pytest.raises(NotClosedSurface, match="do not commute"):
                SurfaceComplex(*args)
        else:
            SurfaceComplex(*args)

    @given(_two_slot_complexes())
    @example((2, 2, 2, ((0, 1), (0, 0)), ((0, 1), (0, 1))))
    @settings(max_examples=300, deadline=None)
    def test_commutation_matches_slot_count(self, args):
        self._assert_commutation(args)

    def test_commutation_on_a_lattice(self):
        cx = build_toric(2)
        self._assert_commutation((4, 8, 4, cx.edge_endpoints, cx.face_boundaries))

    @pytest.mark.parametrize("faces,bad", [
        (((0,), (0,), (1,), (1,)), None),   # two spheres: face 2 is edge 1's first
        (((0,), (0,), (0,), (1,)), "[0, 1]"),
        (((0, 1), (0, 1), (0, 0)), "[0]"),
    ])
    def test_each_edge_fills_two_slots(self, faces, bad):
        args = (1, 2, len(faces), ((0, 0), (0, 0)), faces)
        if bad is None:
            assert SurfaceComplex(*args)._dual_edges == ((0, 1), (2, 3))
        else:
            with pytest.raises(NotClosedSurface, match=re.escape(f"by faces: {bad}")):
                SurfaceComplex(*args)


class TestCssStructure:
    @given(st.one_of(
        st.builds(lambda half, rng: _random_polygon(rng, 2 * half)[1],
                  st.integers(1, 7), st.randoms(use_true_random=False)),
        st.builds(_random_gluing, st.randoms(use_true_random=False), st.integers(1, 18)),
        st.builds(_twisted_grid, st.randoms(use_true_random=False), st.booleans())))
    @settings(max_examples=150, deadline=None)
    def test_random_pairing_commutes(self, cx):
        h_x, h_z = _reference_checks(cx)
        assert np.array_equal(cx.h_x, h_x) and np.array_equal(cx.h_z, h_z)
        assert not ((cx.h_x @ cx.h_z.T) % 2).any()
        # k = 2 - chi on each closed component
        k = logical_count(cx)
        assert k == 2 * _components(cx) - cx.euler_characteristic
        # cycle i holds edge e when bit i of its mask is set, read bit by bit
        for masks in cx._split[1:]:
            assert homology._cycles(masks, k) == [
                sum(1 << e for e, mask in enumerate(masks) if mask >> i & 1) for i in range(k)]

    def test_logical_operators_pair_nondegenerately(self):
        for cx in (build_toric(2), build_klein_bottle(3),
                   build_projective_plane(2), build_polygon_code(8)):
            lx, lz = logical_operators(cx)
            k = logical_count(cx)
            assert lx.shape == lz.shape == (k, cx.n_edges)
            # the split pairs X logical i with Z logical i alone
            assert ((lx @ lz.T) % 2).tolist() == np.eye(k, dtype=int).tolist()
            # logicals commute with the opposite stabilizer group ...
            assert not ((cx.h_z @ lx.T) % 2).any()
            assert not ((cx.h_x @ lz.T) % 2).any()
            # ... and are independent of their own
            assert gf2_rank(np.vstack([cx.h_x, lx])) == gf2_rank(cx.h_x) + k
            assert gf2_rank(np.vstack([cx.h_z, lz])) == gf2_rank(cx.h_z) + k

    def test_sphere_encodes_nothing(self):
        cx = build_polygon_code(2, orientable=True)
        assert cx.euler_characteristic == 2
        assert logical_count(cx) == 0
        lx, lz = logical_operators(cx)
        assert lx.shape == lz.shape == (0, cx.n_edges)
        with pytest.raises(NoLogicals):
            exhaustive_distances(cx)


class TestOneCodePerComplex:
    def test_code_is_built_once_per_complex(self, monkeypatch):
        calls = _counting(monkeypatch, "_tree_cotree")
        cx, twin = build_toric(3), build_toric(3)
        assert css_from_complex(cx) is cx
        for _ in range(2):
            assert logical_count(cx) == 2 and cycle_distances(cx)[:2] == (3, 3)
            logical_operators(cx)
            exhaustive_distances(cx)
        # kept on the instance, not keyed by value: an equal complex splits its own
        assert logical_count(twin) == 2
        assert [id(c) for c, in calls] == [id(cx), id(twin)]

    def test_read_code_keeps_equality_hash_and_repr(self):
        # the split and the matrices stay outside the fields: a numpy array
        # in a compared field makes == raise ValueError and hash TypeError
        cx, twin = build_toric(2), build_toric(2)
        assert cx.h_x is not None and cx.h_z is not None and cx._split
        assert cx == twin and twin == cx and hash(cx) == hash(twin) and repr(cx) == repr(twin)
        assert len({cx, twin}) == 1

    def test_two_eliminations_per_complex(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(np.shape(m))
            return gf2_row_reduce(m)

        monkeypatch.setattr(homology, "gf2_row_reduce", counting)
        cx = build_klein_bottle(3)
        assert logical_count(cx) == 2
        assert cycle_distances(cx)[:2] == exhaustive_distances(cx)[:2] == (3, 3)
        assert calls == [cx.h_x.shape, cx.h_z.shape]

    def test_check_matrices_are_read_only(self):
        cx = build_toric(2)
        for m in (cx.h_x, cx.h_z):
            with pytest.raises(ValueError):
                m[0, 0] ^= 1


def _counting(monkeypatch, name):
    """Replace homology.<name> by a wrapper; returns the list of its calls."""
    calls, original = [], getattr(homology, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(homology, name, counting)
    return calls


# one-face rows of the exact table: one vertex and N/2 loops, each a
# logical on both sides
_POLYGON_ROWS = [row for row in checks.exact() if row.record[2] == 1]


class TestMatricesOnDemand:
    @pytest.mark.parametrize("build", [
        functools.partial(build_toric, 3), functools.partial(build_klein_bottle, 4),
        functools.partial(build_projective_plane, 5), functools.partial(triangle_torus, 3),
        functools.partial(build_polygon_code, 8),
        functools.partial(build_polygon_code, 6, orientable=False),
    ], ids=["toric", "klein", "projective", "triangle-torus", "8-gon", "non-orientable 6-gon"])
    def test_no_matrix_for_count_logicals_or_cycles(self, build, monkeypatch):
        calls = _counting(monkeypatch, "_incidence")
        cx = build()
        k = logical_count(cx)
        lx, lz = logical_operators(cx)
        assert lx.shape == lz.shape == (k, cx.n_edges)
        cycle_distances(cx)
        assert calls == []

    def test_first_read_builds_each_matrix_once(self, monkeypatch):
        calls = _counting(monkeypatch, "_incidence")
        cx = build_klein_bottle(3)
        h_x, h_z = _reference_checks(cx)
        for _ in range(2):
            assert np.array_equal(cx.h_x, h_x) and np.array_equal(cx.h_z, h_z)
        assert cx.h_x is cx.h_x and cx.h_z is cx.h_z
        assert [(n_rows, len(slots)) for slots, n_rows in calls] == [(9, 18), (9, 18)]
        for m in (cx.h_x, cx.h_z):
            assert m.dtype == np.uint8 and not m.flags.writeable

    @pytest.mark.parametrize("row", _POLYGON_ROWS, ids=lambda row: row.name)
    def test_one_face_polygon_settles_with_no_matrix(self, row, monkeypatch):
        eliminations = _counting(monkeypatch, "gf2_row_reduce")
        matrices = _counting(monkeypatch, "_incidence")
        d = exhaustive_distances(row.cx)
        assert (d.d_x, d.d_z) == (1, 1)
        assert eliminations == matrices == []

    @pytest.mark.parametrize("orientable", [True, False])
    def test_polygon_past_the_cap_settles(self, orientable):
        # 30 loops and a face row: 31 kernel dimensions, past the 28 that
        # _min_coset_weight enumerates, and each loop a logical of weight 1
        cx = build_polygon_code(60, orientable)
        k = logical_count(cx)
        with pytest.raises(ValueError, match="kernel dimension 31"):
            homology._min_coset_weight(homology._masks(cx.h_x), homology._cycles(cx._split[2], k))
        assert exhaustive_distances(cx)[:2] == (1, 1)

    @pytest.mark.parametrize("sizes,pairs,expect", [
        # the hexagonal torus: two vertices joined by three edges, every
        # D_i a loop of the one face, every F_i two edges
        ([6], [(0, 3, False), (1, 4, False), (2, 5, False)], (2, 1)),
        # its dual: one vertex with three loops, two triangles
        ([3, 3], [(0, 3, False), (1, 4, False), (2, 5, False)], (1, 2)),
    ], ids=["hexagon", "two-triangles"])
    def test_one_edge_on_one_side_searches_the_other(self, sizes, pairs, expect, monkeypatch):
        cx = complex_from_polygons(sizes, pairs)
        eliminations = _counting(monkeypatch, "gf2_row_reduce")
        d = exhaustive_distances(cx)
        assert (d.d_x, d.d_z) == _brute_force_distances(cx) == expect
        # only the side with no one-edge logical is eliminated
        searched = cx.h_x if expect[0] > 1 else cx.h_z
        assert [np.shape(m) for m, in eliminations] == [searched.shape]


def _bit_columns(masks, k):
    """Bit i of each edge's mask as column i: an E x k GF(2) matrix."""
    return np.array([[m >> i & 1 for i in range(k)] for m in masks],
                    dtype=np.uint8).reshape(len(masks), k)


class TestForestSplit:
    @staticmethod
    def _assert_split(cx):
        h_x, h_z = _reference_checks(cx)
        k = cx.n_edges - _reference_rank(h_x) - _reference_rank(h_z)
        leftover, primal, dual = cx._split
        assert len(leftover) == k
        f, d = _bit_columns(dual, k), _bit_columns(primal, k)
        # F_i are primal cycles, D_i dual ones, and F_i meets D_j oddly iff i = j
        assert not ((h_z @ f) % 2).any() and not ((h_x @ d) % 2).any()
        assert ((f.T @ d) % 2).tolist() == np.eye(k, dtype=int).tolist()
        if k == 0:
            with pytest.raises(NoLogicals):
                cycle_distances(cx)
        else:
            assert cycle_distances(cx)[:2] == _reference_cycle_distances(cx)

    @given(st.one_of(
        st.builds(_twisted_grid, st.randoms(use_true_random=False), st.booleans()),
        st.builds(_random_gluing, st.randoms(use_true_random=False), st.integers(1, 12))))
    @settings(max_examples=200, deadline=None)
    def test_split_matches_elimination(self, cx):
        self._assert_split(cx)

    def test_split_on_degenerate_complexes(self):
        self._assert_split(build_polygon_code(2))   # the sphere: k = 0
        self._assert_split(SurfaceComplex(1, 0, 0, (), ()))   # a lone vertex, no face
        # a torus beside a sphere: two components
        self._assert_split(complex_from_polygons(
            [4, 2], [(0, 2, False), (1, 3, False), (4, 5, False)]))

    def test_no_elimination_for_k_and_cycles(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(np.shape(m))
            return gf2_row_reduce(m)

        monkeypatch.setattr(homology, "gf2_row_reduce", counting)
        cx = build_projective_plane(4)
        assert logical_count(cx) == 1
        assert cycle_distances(cx)[:2] == (4, 5)
        assert calls == []


def _plain_coset_weight(stabilizers, logicals):
    """Minimum weight over the combinations of stabilizers + logicals that
    take some logical, one step per combination."""
    vectors = stabilizers + logicals
    s = len(stabilizers)
    expect = None
    for combo in range(1 << len(vectors)):
        if combo >> s:
            vec = 0
            for i in range(len(vectors)):
                if combo >> i & 1:
                    vec ^= vectors[i]
            if expect is None or vec.bit_count() < expect:
                expect = vec.bit_count()
    return expect


class TestDistances:
    @given(st.randoms(use_true_random=False))
    # d_x = d_z = 3, where the cycle search's last level, an odd edge
    # between two depth-1 nodes of a later root, settles d_z
    @example(random.Random(1112))
    @settings(max_examples=200, deadline=None)
    def test_methods_agree_on_random_pairings(self, rng):
        # up to 27 edges, past the 12 of the brute-force test, and unlike
        # random side pairs, often with both distances 2 or more; every
        # shift and flip gives k >= 1, and the cuts leave k as it is
        cx = _twisted_grid(rng)
        ex = exhaustive_distances(cx)
        cy = cycle_distances(cx)
        assert (ex.d_x, ex.d_z) == (cy.d_x, cy.d_z)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_methods_agree_on_projective_grids(self, rng):
        # chi = 1 and k = 1: the grids on which walking the D_i for d_x, or
        # the F_i for d_z, gives a wrong distance, and about 3% of the draws
        # above
        cx = _twisted_grid(rng, projective=True)
        assert cx.n_vertices - cx.n_edges + cx.n_faces == 1
        ex = exhaustive_distances(cx)
        cy = cycle_distances(cx)
        assert (ex.d_x, ex.d_z) == (cy.d_x, cy.d_z)

    @given(st.sampled_from((build_toric, build_klein_bottle, build_projective_plane)),
           st.integers(2, 9), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_cycle_search_matches_reference(self, builder, l, rng):
        # root order decides what the cutoff and root exclusion prune;
        # projective lattices have d_x != d_z
        cx = _renumbered(builder(l), rng)
        d = cycle_distances(cx)
        assert (d.d_x, d.d_z) == _reference_cycle_distances(cx)

    @given(st.one_of(
        st.builds(_twisted_grid, st.randoms(use_true_random=False), st.booleans()),
        st.builds(_random_gluing, st.randoms(use_true_random=False), st.integers(1, 12)),
        st.builds(lambda build, l: build(l),
                  st.sampled_from((build_toric, build_klein_bottle, build_projective_plane)),
                  st.integers(2, 8))),
        st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_cycle_search_matches_lifted_bfs(self, cx, rng):
        # the reference shares neither the forests, the root cover nor the
        # prunings: its detectors come from elimination, and it searches
        # every root to full depth
        cx = _renumbered(cx, rng)
        expect = _reference_cycle_distances(cx, _lifted_systole)
        if expect == (None, None):
            with pytest.raises(NoLogicals):
                cycle_distances(cx)
            return
        assert cycle_distances(cx)[:2] == expect

    @pytest.mark.parametrize("builder,expect", [
        (build_toric, (30, 30)), (build_klein_bottle, (30, 30)),
        (build_projective_plane, (30, 31))])
    def test_cycle_at_scale(self, builder, expect):
        # E = 1,800: the root cover holds under a tenth of the 900 nodes a side
        d = cycle_distances(builder(30))
        assert (d.d_x, d.d_z) == expect

    @given(st.one_of(
        st.builds(_random_gluing, st.randoms(use_true_random=False), st.integers(1, 12)),
        st.builds(lambda build, rng: _renumbered(build(2), rng),
                  st.sampled_from((build_toric, build_klein_bottle, build_projective_plane)),
                  st.randoms(use_true_random=False))))
    @settings(max_examples=100, deadline=None)
    def test_searches_match_brute_force(self, cx):
        # independent of the tree-cotree split that both searches share; most
        # random gluings have distance 1, the 8-edge lattices 2 or 3
        expect = _brute_force_distances(cx)
        if expect is None:
            with pytest.raises(NoLogicals):
                exhaustive_distances(cx)
            with pytest.raises(NoLogicals):
                cycle_distances(cx)
            return
        d = exhaustive_distances(cx)
        assert (d.d_x, d.d_z) == expect
        d = cycle_distances(cx)
        assert (d.d_x, d.d_z) == expect

    @given(st.integers(0, 13), st.integers(1, 6), st.integers(1, 20),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_coset_walk_matches_plain_walk(self, s, k, n, rng):
        # the information-set search against one step per combination that
        # takes a logical; short random rows are often dependent, zero or
        # equal
        k = min(k, 14 - s)
        vectors = [rng.getrandbits(n) for _ in range(s + k)]
        stabilizers, logicals = vectors[:s], vectors[s:]
        assert homology._min_coset_weight(stabilizers, logicals) \
            == _plain_coset_weight(stabilizers, logicals)

    @pytest.mark.parametrize("stabilizers,logicals,expect", [
        # a logical that is an XOR of stabilizers: a row with no edge bit
        ([0b0011, 0b0110], [0b0101], 0),
        ([0b1], [0b1], 0),   # one edge bit, where no row subset is searched
        # zero stabilizers among nonzero ones are dropped, not taken as rows
        ([0, 0b0011, 0, 0b0110], [0b1001], 2),
        ([0, 0], [0b110, 0b011], 2),
    ])
    def test_coset_walk_early_exits(self, stabilizers, logicals, expect):
        assert _plain_coset_weight(stabilizers, logicals) == expect
        assert homology._min_coset_weight(stabilizers, logicals) == expect

    @pytest.mark.parametrize("stabilizers,logicals,expect", [
        # n = 2, so best starts at 2 and the last level, w = 1, meets each
        # row with the empty half: a row with no bit off the pivots wins
        ([], [0b10], 1),
        ([], [0b11], 2),
        # w = 2: off-pivot key 0b1100 holds tags 2 and 1, and the row of
        # tag 2 meets the row of tag 1, after skipping its own tag
        ([], [0b1110, 0b1101], 2),
        # w = 2: both rows have key 0b1100 and tag 1; their XOR is the
        # stabilizer 0b0011, lighter than any logical, and must not match
        ([0b0011], [0b1110], 3),
        # w = 3, halves of one row and two: the logical 0b0001011 lies on
        # the three pivots alone, so it is the XOR of all three rows, and
        # no nontrivial XOR of fewer rows weighs under 4
        ([0b1010110, 0b1101110], [0b0001011], 3),
    ], ids=["empty-half", "empty-half-no-match", "two-tags-one-key", "equal-tags", "odd-w"])
    def test_coset_walk_last_level(self, stabilizers, logicals, expect):
        assert _plain_coset_weight(stabilizers, logicals) == expect
        assert homology._min_coset_weight(stabilizers, logicals) == expect

    @given(st.builds(_twisted_grid, st.randoms(use_true_random=False), st.booleans()),
           st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_last_level_matches_plain_walk(self, cx, primal, rng):
        # the rows of one kernel of a twisted grid, at most 14 of them, each
        # XOR-ed with some rows before it; about three edges in four count
        # twice, so that nearly every draw of weight 4 or more ends at a
        # last level of w >= 3
        k = logical_count(cx)
        h, masks = (cx.h_z, cx._split[1]) if primal else (cx.h_x, cx._split[2])
        stabilizers = rng.sample(homology._masks(h), min(len(h), 14 - k))
        rows = stabilizers + homology._cycles(masks, k)
        for i in range(1, len(rows)):
            for j in range(i):
                if rng.random() < 0.3:
                    rows[i] ^= rows[j]
        twice = rng.getrandbits(cx.n_edges) | rng.getrandbits(cx.n_edges)
        rows = [row | (row & twice) << cx.n_edges for row in rows]
        stabilizers, logicals = rows[:len(stabilizers)], rows[len(stabilizers):]
        expect = _plain_coset_weight(stabilizers, logicals)
        assume(expect >= 4)
        assert homology._min_coset_weight(stabilizers, logicals) == expect

    @pytest.mark.parametrize("builder,expect", [
        (build_toric, (5, 5)), (build_klein_bottle, (5, 5)), (build_projective_plane, (6, 5))])
    def test_exhaustive_at_the_cap(self, builder, expect):
        # E = 50: 25 or 26 kernel dimensions a side, near the 28 enumerated,
        # where only stopping at the proven minimum keeps the search short;
        # the last level, w = d - 1, is settled by halves matched in a dict
        cx = builder(5)
        d = exhaustive_distances(cx)
        assert (d.d_x, d.d_z) == cycle_distances(cx)[:2] == expect

    def test_exhaustive_kernel_limit(self):
        # E - F + 1 = 72 - 36 + 1 = 37 kernel dimensions, past the 28 enumerated
        with pytest.raises(ValueError, match="kernel dimension 37"):
            exhaustive_distances(build_toric(6))

    def test_distance_needs_logicals(self):
        sphere = build_polygon_code(2, orientable=True)
        with pytest.raises(NoLogicals):
            exhaustive_distances(sphere)
        with pytest.raises(NoLogicals):
            cycle_distances(sphere)


class TestSerialization:
    @pytest.fixture
    def cx(self, request):
        """The complex a test is parametrized with, built when the test runs."""
        return request.param()

    @pytest.mark.parametrize("cx", [functools.partial(*args) for args in (
        (build_toric, 2), (build_klein_bottle, 3), (build_projective_plane, 2),
        (build_polygon_code, 8), (build_polygon_code, 6, False),
    )], indirect=True)
    def test_round_trip(self, cx):
        assert load_complex(dump_complex(cx)) == cx

    def test_comments_and_blank_lines_skipped(self):
        text = dump_complex(build_toric(2))
        noisy = "# fundamental domain\n\n" + text.replace("\n", "\n# noise\n", 1)
        assert load_complex(noisy) == build_toric(2)

    def test_truncated_input(self):
        text = dump_complex(build_toric(2))
        lines = text.strip().splitlines()
        with pytest.raises(ValueError):
            load_complex("\n".join(lines[:-1]))

    def test_bad_header(self):
        with pytest.raises(ValueError):
            load_complex("1 1\n0 0\n0 0\n")
        with pytest.raises(ValueError, match="nonnegative"):
            load_complex("-1 0 0")

    @given(st.one_of(_edited_dumps(), st.lists(_LINE, max_size=6)))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_lines(self, lines):
        # a closed complex with nonnegative counts, or a ValueError
        try:
            cx = load_complex("\n".join(lines))
        except ValueError:
            return
        assert min(cx.n_vertices, cx.n_edges, cx.n_faces) >= 0
        assert load_complex(dump_complex(cx)) == cx
        assert not ((cx.h_x @ cx.h_z.T) % 2).any()


class TestExactTable:
    @pytest.mark.parametrize("row", checks.exact(), ids=lambda row: row.name)
    def test_row(self, row):
        # the oracle's checks of the row, then its record against the
        # references above, which share no code with the tree-cotree split
        check = checks._certify(row)
        assert check.ok, check.detail
        cx = row.cx
        ranks = [_reference_rank(h) for h in _reference_checks(cx)]
        # the method each search reports, which the record does not hold;
        # kernel enumeration runs where both kernels, E - rank, are in reach
        assert cycle_distances(cx).method == "cycle"
        if cx.n_edges - min(ranks) <= homology.KERNEL_MAX_DIM:
            assert exhaustive_distances(cx).method == "exhaustive"
        k = cx.n_edges - sum(ranks)
        found = (cx.n_vertices, cx.n_edges, cx.n_faces, k) + _reference_cycle_distances(cx)
        assert found == row.record

    def test_collection_builds_no_complex(self):
        # the rows carry builders, so listing the table's ids, here and in
        # the acceptance criteria, constructs no SurfaceComplex
        script = ("import pytest, aqsc.homology as h\n"
                  "built, check = [], h.SurfaceComplex.__post_init__\n"
                  "h.SurfaceComplex.__post_init__ = lambda cx: built.append(cx) or check(cx)\n"
                  "code = pytest.main(['--collect-only', '-q', '-p', 'no:cacheprovider',\n"
                  "                    'test_homology.py', 'test_acceptance.py'])\n"
                  "print('built', len(built), 'exit', code)\n")
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(tests, os.pardir, "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script], cwd=tests, env=env,
                             capture_output=True, text=True)
        assert run.stdout.endswith("built 0 exit 0\n"), run.stdout[-2000:] + run.stderr[-2000:]
