"""Combinatorial surface complexes, each its own CSS code, and exact distances.

A closed surface is described by a cell complex: vertices, edges with two
endpoint slots (loops allowed), faces listing boundary edges with
multiplicity.  A `SurfaceComplex` checks at construction that it is
closed: each edge fills exactly two face slots, and the vertex and face
checks commute.  The two face slots of each edge are its dual edge.  The
builders glue polygons side to side with `complex_from_polygons`.  The
complex is the code: qubits live on edges; X checks are face boundaries,
Z checks vertex stars: over GF(2) they are the incidence matrices of the
dual graph (faces as nodes) and of the primal graph, so an edge looping
at a vertex or doubled in a face drops out of the corresponding check.
So d_x is the primal systole and d_z the dual one, as in the design layer.

Distances are computed exactly, in one of two ways, and both read one
logical basis, the tree-cotree split of the complex (Eppstein, "Dynamic
generators of topologically embedded graphs", SODA 2003), computed once
per complex on first read: a breadth-first spanning forest T of the
primal graph, a breadth-first spanning forest C of the dual graph on the
edges outside T, and k leftover edges, each closing one primal cycle F_i
in T and one dual cycle D_i in C.  Those fundamental cycles count the
logicals, detect them and represent them, with no elimination (see
`SurfaceComplex`), and with no check matrix: the complex builds h_x and
h_z on their first read.
The systole search finds the shortest homologically nontrivial cycle of
the primal and dual graphs, each edge carrying as a k-bit int mask the
opposing fundamental cycles it lies on.  A breadth-first search from a
root carries depth and the XOR of those masks along the tree path, the
parity-lifted graph (Erickson and Nayyeri, SODA 2011), and an edge whose
ends differ in parity closes a nontrivial cycle.  Plain edges, of mask 0,
are kept apart from odd ones, so a step along one copies the parity.  The
roots are a cover of the edges with a nonzero mask, few when the forests
are breadth-first and so the fundamental cycles short.  A search expands
depth d in full only while 2d + 2 is below the best length found; at the
level where 2d + 1 still is, it only looks for an edge between two depth-d
nodes, and it reaches no node past that last level.  It skips the roots
searched before it; the `_graph_systole` docstring proves that the cover
and the prunings keep it exact.
Kernel enumeration searches ker h_z as the face rows plus the F_i, and
ker h_x as the vertex stars plus the D_i, as int bitmasks that `_echelon`,
the one GF(2) elimination, reduces.  A vector is a nontrivial logical
exactly when it takes some F_i (or D_i), so no detector is needed.  A
side whose F_i (or D_i) include a single edge has distance 1 and is
settled with no matrix and no elimination, as the systole search settles
a loop.  Each vector of the span weighs at least the number of reduced
rows it combines, the information-set bound of Brouwer-Zimmermann.  So
row subsets are walked by size up to two below the lightest nontrivial
vector found, and halves matched in a dict settle the next size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class HomologyError(ValueError):
    """A homology-level precondition failed."""


class NotClosedSurface(HomologyError):
    """Some edge is not shared by exactly two face slots."""


class NoLogicals(HomologyError):
    """The code encodes nothing; distances are undefined."""


@dataclass(frozen=True)
class SurfaceComplex:
    """Cell complex of a closed surface and its CSS code; all ids are 0-based.

    Construction raises NotClosedSurface unless every edge fills exactly
    two face slots and the vertex and face checks commute, so every complex
    is a code, with a qubit per edge.  The face slots of each edge are its
    dual edge.  h_x rows are X checks, one per face, and h_z rows Z checks,
    one per vertex star (mod 2): the incidence matrices of the dual and the
    primal graph, read-only and built on first read, so a complex that is
    only counted or cycle-searched holds no matrix.

    Its logical basis is its tree-cotree split (Eppstein 2003), `_split` =
    (leftover, primal, dual), computed on first read.  T is a spanning
    forest of the primal graph, C a spanning forest of the dual graph on the
    edges outside T, and the leftover edges l_0, l_1, ... are the rest, k of
    them.  F_i, l_i plus its path in T, is a primal cycle; D_i, l_i plus its
    path in C, a dual one.  Bit i of primal[e] says whether edge e is in
    D_i, bit i of dual[e] whether it is in F_i.  Both forests are
    breadth-first, so each tree path is a shortest path to its root and the
    F_i and D_i are short: few edges carry a nonzero mask.  The split and
    the matrices are kept in the instance __dict__, outside the fields, so
    ==, hash and repr read the cells alone and two equal complexes stay equal.
    """

    n_vertices: int
    n_edges: int
    n_faces: int
    edge_endpoints: tuple[tuple[int, int], ...]
    face_boundaries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if min(self.n_vertices, self.n_edges, self.n_faces) < 0:
            raise ValueError("vertex, edge and face counts must be nonnegative")
        if len(self.edge_endpoints) != self.n_edges:
            raise ValueError("endpoint list does not match edge count")
        if len(self.face_boundaries) != self.n_faces:
            raise ValueError("boundary list does not match face count")
        nv, ne, nf = self.n_vertices, self.n_edges, self.n_faces
        for u, v in self.edge_endpoints:
            if not (0 <= u < nv and 0 <= v < nv):
                raise ValueError(f"edge endpoint out of range: ({u},{v})")
        # one pass over the face slots: first[e] and second[e] are the faces
        # of edge e's two slots, -1 while a slot is empty
        first, second = [-1] * ne, [-1] * ne
        for f, b in enumerate(self.face_boundaries):
            if not b:  # every face has a side; an empty one would not round-trip
                raise ValueError("face boundary is empty")
            for e in b:
                if not 0 <= e < ne:
                    raise ValueError(f"face boundary edge out of range: {b}")
                if first[e] < 0:
                    first[e] = f
                elif second[e] < 0:
                    second[e] = f
                else:
                    second[e] = nf   # a third slot: nf is no face id
        bad = [e for e in range(ne) if not 0 <= second[e] < nf]
        if bad:
            raise NotClosedSurface(f"edges not used exactly twice by faces: {bad}")
        # bit g of star[u] is the parity of star u against face g: each
        # edge adds, per endpoint slot at u, its face slots as bits.  A loop
        # fills both endpoint slots, a side doubled in one face both face
        # slots, and either drops out
        star = [0] * nv
        for (u, v), f, g in zip(self.edge_endpoints, first, second):
            meets = (1 << f) ^ (1 << g)
            star[u] ^= meets
            star[v] ^= meets
        if any(star):
            raise NotClosedSurface("vertex and face checks do not commute")
        # kept in the instance __dict__ like _split, outside the fields
        self.__dict__["_dual_edges"] = tuple(zip(first, second))

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    # cached_property writes the instance __dict__, so it works on the
    # frozen dataclass
    @cached_property
    def _split(self) -> tuple[tuple[int, ...], list[int], list[int]]:
        return _tree_cotree(self)

    @cached_property
    def h_x(self) -> np.ndarray:
        return _incidence(self._dual_edges, self.n_faces)

    @cached_property
    def h_z(self) -> np.ndarray:
        return _incidence(self.edge_endpoints, self.n_vertices)


# ---------------------------------------------------------------- builders

def complex_from_polygons(face_sizes: Sequence[int],
                          pairs: Sequence[tuple[int, int, bool]]) -> SurfaceComplex:
    """Polygons glued side to side: the one place where corners are identified.

    Face f owns the next face_sizes[f] sides, numbered from 0 around it;
    side s runs from corner s to the next corner of its face.  Pair i =
    (s, t, reversing) glues sides s and t into edge i, directed as s.  With
    reversing=False they are glued head to tail, the boundary word reading
    "a ... a^-1"; with reversing=True both run the same way, "a ... a", which
    reverses orientation.  Vertices are the classes of glued corners,
    numbered by their smallest corner.  Each corner is glued to one corner
    across each of its two sides, so the classes are cycles, and one sweep
    over the corners in increasing order walks each class from its first,
    smallest corner.
    """
    if any(size < 1 for size in face_sizes):
        raise ValueError("every face needs at least one side")
    starts = list(accumulate(face_sizes, initial=0))
    head = list(range(1, starts[-1] + 1))
    for a, b in zip(starts, starts[1:]):
        head[b - 1] = a
    sides = [s for s, _, _ in pairs] + [t for _, t, _ in pairs]
    sides.sort()
    if sides != list(range(len(head))):
        raise ValueError(f"pairs must partition the sides 0..{len(head) - 1}")
    # corner c starts side c and ends one other: fore[c] is the corner
    # glued to c across the side it starts, back[c] across the side it ends
    fore, back, edge_of = [0] * len(head), [0] * len(head), [0] * len(head)
    for i, (s, t, reversing) in enumerate(pairs):
        edge_of[s] = edge_of[t] = i
        hs, ht = head[s], head[t]
        if reversing:   # s ~ t and head[s] ~ head[t]
            fore[s], fore[t], back[hs], back[ht] = t, s, ht, hs
        else:           # s ~ head[t] and head[s] ~ t
            fore[s], back[ht], back[hs], fore[t] = ht, s, t, hs
    # every corner below the first unlabelled one has its class labelled,
    # so that corner is the smallest of its class
    vertex = [-1] * len(head)
    n_vertices = 0
    for c in range(len(head)):
        if vertex[c] < 0:
            x = c
            while vertex[x] < 0:   # on to the neighbour not labelled yet, if any
                vertex[x] = n_vertices
                x = fore[x] if vertex[fore[x]] < 0 else back[x]
            n_vertices += 1
    endpoints = tuple((vertex[s], vertex[head[s]]) for s, _, _ in pairs)
    faces = tuple(tuple(edge_of[a:b]) for a, b in zip(starts, starts[1:]))
    return SurfaceComplex(n_vertices, len(pairs), len(face_sizes), endpoints, faces)


def _grid_quotient(l: int, flip_x: bool, flip_y: bool) -> SurfaceComplex:
    """l x l squares, each glued to its right and upper neighbours, wrapping around.

    The last column wraps onto the first reversed when flip_x, the last row
    when flip_y: no flip is the torus, one the Klein bottle, two the
    projective plane.
    """
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    # square (x, y) has sides bottom, right, top, left, counterclockwise,
    # numbered 4 (x l + y) + 0..3, so the sides of column x start at row x
    row = 4 * l
    pairs = []
    for x in range(l):
        here, right = row * x, row * ((x + 1) % l)
        fx = flip_x and x == l - 1
        for y4 in range(0, row, 4):   # y4 = 4 y
            pairs.append((here + y4 + 1, row - 1 - y4 if fx else right + y4 + 3, fx))
            pairs.append((here + y4 + 2, here + y4 + 4, False))
        # the top of the column's last square wraps to its first bottom, or flips
        pairs[-1] = (here + row - 2, row * (l - 1 - x) if flip_y else here, flip_y)
    return complex_from_polygons([4] * (l * l), pairs)


def build_toric(l: int) -> SurfaceComplex:
    """l x l square lattice on the torus: V = l^2, E = 2 l^2, F = l^2."""
    return _grid_quotient(l, flip_x=False, flip_y=False)


def build_klein_bottle(l: int) -> SurfaceComplex:
    """l x l lattice on the Klein bottle (one orientation-reversing gluing)."""
    return _grid_quotient(l, flip_x=True, flip_y=False)


def build_projective_plane(l: int) -> SurfaceComplex:
    """l x l lattice on the projective plane (antipodal boundary gluing)."""
    return _grid_quotient(l, flip_x=True, flip_y=True)


def build_polygon_code(n_edges: int, orientable: bool = True) -> SurfaceComplex:
    """Fundamental-polygon code: side i of the N-gon glued to side i + N/2.

    Orientable convention (4h-gon): every pair head to tail, the boundary
    word x1..xm x1^-1..xm^-1.  Non-orientable convention (2g-gon): the first
    pair keeps the boundary direction and the rest are head to tail, the
    word x1 x2..xg x1 x2^-1..xg^-1.  Reversing ALL pairs would be the
    antipodal quotient, a projective plane for every N, never the genus-g
    surface.  One face, one edge per pair, numbered by its smaller side; an
    odd N or N < 2 leaves no partition of the sides and raises ValueError.
    """
    half = n_edges // 2
    return complex_from_polygons(
        [n_edges], [(i, i + half, not orientable and i == 0) for i in range(half)])


# ------------------------------------------------------------ GF(2) algebra

def _echelon(vectors: Iterable[int]) -> list[int]:
    """Reduced echelon form over GF(2) of int bitmasks, the one elimination:
    each row's pivot is its lowest set bit and no other row holds it, zero
    rows are dropped, and the rows come in pivot order.  Vectors are reduced
    through a pivot -> row dict, then back-substituted once from the top."""
    by_pivot: dict[int, int] = {}
    for vec in vectors:
        while vec & -vec in by_pivot:   # 0 is no pivot
            vec ^= by_pivot[vec & -vec]
        if vec:
            by_pivot[vec & -vec] = vec
    pivots = sorted(by_pivot, reverse=True)
    mask = sum(pivots)
    for pivot in pivots:   # the rows above are reduced by now
        hits = (by_pivot[pivot] ^ pivot) & mask
        while hits:
            by_pivot[pivot] ^= by_pivot[hits & -hits]
            hits &= hits - 1
    return [by_pivot[pivot] for pivot in reversed(pivots)]


def gf2_row_reduce(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (nonzero rows, pivot cols)."""
    a = np.atleast_2d(np.array(m, dtype=np.uint8) % 2)
    rows = _echelon(_masks(a))
    return _rows(rows, a.shape[1]), [(row & -row).bit_length() - 1 for row in rows]


def gf2_rank(m: np.ndarray) -> int:
    return len(gf2_row_reduce(m)[1])


def gf2_nullspace(m: np.ndarray) -> np.ndarray:
    """Basis of the right kernel, one row per basis vector."""
    rref, pivots = gf2_row_reduce(m)
    cols = rref.shape[1]
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = rref[:, free].T
    return basis


def _masks(rows: np.ndarray) -> list[int]:
    """Each GF(2) row as an int bitmask, column j at bit j."""
    packed = np.packbits(rows, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _rows(masks: Sequence[int], n: int) -> np.ndarray:
    """Inverse of `_masks`: int bitmasks as uint8 rows of n columns."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks),
                           dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=-1, count=n, bitorder="little")


# ------------------------------------------------------------------ codes

def _incidence(slots: Sequence[tuple[int, int]], n_rows: int) -> np.ndarray:
    """Read-only GF(2) incidence matrix of a graph: column e has a 1 in each
    row that fills exactly one of edge e's two slots, so a loop's column is 0."""
    n = len(slots)
    ends = np.fromiter(chain.from_iterable(slots), dtype=np.intp, count=2 * n)
    m = np.zeros((n_rows, n), dtype=np.uint8)
    columns = np.arange(n)
    m[ends[0::2], columns] = 1
    m[ends[1::2], columns] ^= 1
    m.flags.writeable = False
    return m


def css_from_complex(cx: SurfaceComplex) -> SurfaceComplex:
    """The code of a closed surface complex: the complex itself, whose faces
    are the X checks and vertex stars the Z checks (see `SurfaceComplex`)."""
    return cx


# (order, parent, up): the nodes, each after its parent, and per node its
# parent and the edge up to it, -1 at a root
_Forest = tuple[list[int], list[int], list[int]]


def _forest(n_nodes: int, slots: Sequence[tuple[int, int]], edges: Iterable[int]) -> _Forest:
    """A breadth-first spanning forest of the graph on `edges`, edge e
    joining slots[e]: each node's path to its root is a shortest one, so the
    cycles the forest closes are short (see `SurfaceComplex`)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for e in edges:
        u, v = slots[e]
        if u != v:  # a loop joins nothing
            adj[u].append((v, e))
            adj[v].append((u, e))
    parent, up = [-1] * n_nodes, [-1] * n_nodes
    seen = [False] * n_nodes
    order: list[int] = []
    for root in range(n_nodes):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:   # the loop reaches the nodes appended during it
            for v, e in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v], up[v] = u, e
                    queue.append(v)
        order += queue
    return order, parent, up


def _cycle_masks(slots: Sequence[tuple[int, int]], forest: _Forest,
                 leftover: Sequence[int], n_edges: int) -> list[int]:
    """Per edge, bit i set when it lies on leftover[i] plus its forest path.

    Edge x-parent(x) is on that path exactly when one end of leftover[i] lies
    in the subtree of x, so one pass from the leaves up, XOR-ing each
    node's subtree into its parent, gives every mask.
    """
    order, parent, up = forest
    below = [0] * len(order)
    masks = [0] * n_edges
    for i, e in enumerate(leftover):
        u, v = slots[e]
        below[u] ^= 1 << i
        below[v] ^= 1 << i  # a loop's ends cancel: its cycle is itself
        masks[e] = 1 << i
    for x in reversed(order):
        if up[x] >= 0:
            masks[up[x]] = below[x]
            below[parent[x]] ^= below[x]
    return masks


def _tree_cotree(cx: SurfaceComplex) -> tuple[tuple[int, ...], list[int], list[int]]:
    """(leftover, primal, dual), the split of the complex, found with no
    elimination.

    Cutting a closed surface along a spanning forest of its graph leaves
    each component in one piece, so C spans the dual graph.  A spanning
    forest has as many edges as its graph's incidence matrix has rank, so
    the leftover edges number n - rank h_z - rank h_x = k.  As T and C share
    no edge, F_i and D_j meet oddly exactly when i = j.  So the D_i and the
    vertex stars span ker h_x, and a primal cycle is a nontrivial X logical
    exactly when it is odd against some D_i; likewise the F_i detect Z
    logicals among dual cycles.
    """
    tree = _forest(cx.n_vertices, cx.edge_endpoints, range(cx.n_edges))
    in_tree = set(tree[2])
    rest = [e for e in range(cx.n_edges) if e not in in_tree]
    cotree = _forest(cx.n_faces, cx._dual_edges, rest)
    in_cotree = set(cotree[2])
    leftover = tuple(e for e in rest if e not in in_cotree)
    return (leftover, _cycle_masks(cx._dual_edges, cotree, leftover, cx.n_edges),
            _cycle_masks(cx.edge_endpoints, tree, leftover, cx.n_edges))


def logical_count(cx: SurfaceComplex) -> int:
    """k, the number of leftover edges of the tree-cotree split."""
    return len(cx._split[0])


def _cycles(masks: Sequence[int], k: int) -> list[int]:
    """The k cycles of one mask family of a split as edge bitmasks: cycle i
    holds edge e when bit i of masks[e] is set."""
    cycles = [0] * k
    for e, mask in enumerate(masks):
        while mask:   # each set bit once, lowest first
            low = mask & -mask
            cycles[low.bit_length() - 1] |= 1 << e
            mask ^= low
    return cycles


def logical_operators(cx: SurfaceComplex) -> tuple[np.ndarray, np.ndarray]:
    """(X logicals, Z logicals) as rows: the primal cycles F_i and the dual
    cycles D_i of the split, so X logical i meets Z logical j oddly iff i = j."""
    leftover, primal, dual = cx._split
    k, n = len(leftover), cx.n_edges
    return _rows(_cycles(dual, k), n), _rows(_cycles(primal, k), n)


class Distances(NamedTuple):
    d_x: int
    d_z: int
    method: str


KERNEL_MAX_DIM = 28   # most kernel dimensions that exhaustive_distances enumerates


def _min_coset_weight(stabilizers: list[int], logicals: list[int]) -> int:
    """Minimum weight over the combinations of stabilizers + logicals that
    take some logical: the nontrivial vectors, given independent logicals.

    An information-set search, the one-matrix case of Brouwer-Zimmermann
    (Zimmermann 1996; Grassl 2006).  Logical i carries a tag, bit n + i
    above the n edge bits, and `_echelon` reduces the stabilizers and tagged
    logicals: a combination takes some logical exactly when its tag is
    nonzero.  A row with no edge bit is a tag alone and gives 0; the other
    rows split into (edges, tag).  The XOR of w rows holds their w pivots
    and no other, so it weighs w plus its bits off the pivots.  Subsets are
    walked by size w = 1, 2, ... depth first while w < best - 1, best being
    the lightest nontrivial XOR found.  At the last level, w = best - 1, a
    subset wins only with no bit off the pivots, and a collision search
    (Stern 1989) settles it: each XOR of w // 2 rows is keyed by its
    off-pivot bits, and a XOR of w - w // 2 rows wins if its key is there
    under another tag.  Halves that share rows cannot match: they would
    leave a lighter XOR of fewer rows, which the walk ruled out.  When a
    vector of the distance d combines at most d - 2 rows, this visits
    sum_{w < d-1} C(m, w) + C(m, (d-1)//2) + C(m, d-1 - (d-1)//2) subsets of
    the m rows, under 2^m, so the cap on m bounds the work.
    """
    vectors = stabilizers + logicals
    if len(vectors) > KERNEL_MAX_DIM:
        raise ValueError(f"kernel dimension {len(vectors)} too large to enumerate")
    n = best = max(vectors).bit_length()   # no vector of the span is longer
    low = (1 << n) - 1
    rows = _echelon(stabilizers + [vec | 1 << n + i for i, vec in enumerate(logicals)])
    if any(not row & low for row in rows):
        return 0
    rows = [(row & low, row >> n) for row in rows]

    def walk(start: int, vec: int, tag: int, left: int) -> None:
        # every XOR of `left` more rows from rows[start:] onto (vec, tag)
        nonlocal best
        if left == 1:
            best = min([best] + [(vec ^ row).bit_count()
                                 for row, row_tag in rows[start:] if row_tag != tag])
            return
        for i in range(start, len(rows) - left + 1):
            row, row_tag = rows[i]
            walk(i + 1, vec ^ row, tag ^ row_tag, left - 1)

    def xors(size: int) -> list[tuple[int, int, int]]:
        level = [(0, 0, 0)]   # (next row, edges, tag) of every XOR of `size` rows
        for _ in range(size):
            level = [(i + 1, vec ^ rows[i][0], tag ^ rows[i][1])
                     for start, vec, tag in level for i in range(start, len(rows))]
        return level

    w = 1
    while w < best - 1 and w <= len(rows):
        walk(0, 0, 0, w)
        w += 1
    if w == best - 1 <= len(rows):   # the last level
        off = low - sum(row & -row for row, _ in rows)   # the bits off the pivots
        halves: dict[int, dict[int, int]] = {}
        for _, vec, tag in xors(w // 2):
            halves.setdefault(vec & off, {})[tag] = vec
        for start, vec, tag in xors(w - w // 2 - 1):
            for row, row_tag in rows[start:]:
                for other_tag, other in halves.get((vec ^ row) & off, {}).items():
                    if other_tag != tag ^ row_tag:
                        return (vec ^ row ^ other).bit_count()
    return best


def _one_edge(cycles: list[int]) -> bool:
    """Whether some logical cycle is a single edge, and so a nontrivial
    vector of weight 1, the least there is."""
    return any(cycle.bit_count() == 1 for cycle in cycles)


def exhaustive_distances(cx: SurfaceComplex) -> Distances:
    """Exact distances by enumerating both check kernels.

    The face rows and the F_i span ker h_z, where the X logicals live, and
    the vertex stars and the D_i span ker h_x (see `_tree_cotree`); each is
    searched by `_min_coset_weight`, which reduces its own rows.  A side
    whose F_i (or D_i) include a single edge, a loop that is a logical,
    has distance 1 and is settled before any matrix is built, as
    `_graph_systole` settles it on a loop.  Every other side passes its
    check matrix through `gf2_row_reduce` first, a redundant step kept only
    because the benchmark counts that call.
    """
    leftover, primal, dual = cx._split
    if not leftover:
        raise NoLogicals("k = 0")
    fs, ds = _cycles(dual, len(leftover)), _cycles(primal, len(leftover))
    d_x = 1 if _one_edge(fs) else _min_coset_weight(_masks(gf2_row_reduce(cx.h_x)[0]), fs)
    d_z = 1 if _one_edge(ds) else _min_coset_weight(_masks(gf2_row_reduce(cx.h_z)[0]), ds)
    return Distances(d_x, d_z, "exhaustive")


def _graph_systole(n_nodes: int, endpoints: Sequence[tuple[int, int]],
                   edge_parity: list[int]) -> int:
    """Length of the shortest cycle of nonzero parity: the homological systole.

    Bit i of edge_parity[e] says whether edge e lies on detector i, so a
    cycle is nontrivial exactly when the XOR over its edges is nonzero.
    The roots are a cover: a set of nodes that touches every edge of
    nonzero parity, built greedily and searched in node order.  Each BFS
    carries depth d and the parity par of the tree path from its root; an
    edge e = (u, v) with par[u] ^ edge_parity[e] != par[v] closes a walk of
    d(u) + d(v) + 1 edges, which reduces mod 2 to a nontrivial cycle no
    longer than the walk.  Each node keeps its plain edges, of parity 0,
    apart from its odd ones, so a step along a plain edge copies the parity.

    The search is exact.  Let C be a shortest nontrivial cycle (a simple
    one, as some simple cycle in a minimal one is nontrivial).  Its parity
    is nonzero, so some edge of C has nonzero parity, and an end of that
    edge is a root: let r be the first root on C in search order.  With P_x
    the tree path from r to x, C = sum over e = (u, v) in C of
    (P_u + e + P_v) mod 2, so some e in C closes an odd candidate with
    d(u) + d(v) + 1 <= |C|.  Three prunings follow.  A BFS skips the roots
    searched before it: C avoids them, as r is its first, so the argument
    holds in the graph left.  The ends of an edge differ in depth by at
    most 1, so a candidate through a node of depth d is 2d, 2d + 1 or
    2d + 2 long.  One of 2d edges runs to depth d - 1, where its edge was
    checked while level d - 1 was expanded: a non-tree edge down from
    level d - 1 finds its far end reached already.  So a BFS expands level
    d in full, reaching level d + 1, only while 2d + 2 < best.  At the
    level with 2d + 1 < best <= 2d + 2, only a candidate of 2d + 1 edges,
    an edge between two depth-d nodes, can still be shorter, so that last
    level is scanned for such an edge alone and reaches no node.  Past it,
    every candidate is at least as long as best.
    """
    # per node its plain neighbours, across an edge of parity 0, and its
    # odd edges, as (neighbour, parity)
    plain: list[list[int]] = [[] for _ in range(n_nodes)]
    odd: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    cover = [False] * n_nodes
    for (u, v), pe in zip(endpoints, edge_parity):
        if u == v:  # a 1-edge cycle, on no longer simple cycle
            if pe:
                return 1
        elif pe:
            odd[u].append((v, pe))
            odd[v].append((u, pe))
            if not cover[v]:
                cover[u] = True
        else:
            plain[u].append(v)
            plain[v].append(u)
    best = len(endpoints) + 1
    # -2 marks a root searched before, -1 a node not reached yet
    start = [-1] * n_nodes
    for root in compress(range(n_nodes), cover):
        depth = start[:]
        start[root] = -2
        depth[root] = 0
        par = [0] * n_nodes
        level, d = [root], 0
        while level and 2 * d + 2 < best:
            nxt = []
            for u in level:
                pu = par[u]
                for v in plain[u]:
                    dv = depth[v]
                    if dv == -1:
                        depth[v] = d + 1
                        par[v] = pu
                        nxt.append(v)
                    elif dv >= 0 and pu != par[v] and d + dv + 1 < best:
                        best = d + dv + 1
                for v, pe in odd[u]:
                    dv = depth[v]
                    if dv == -1:
                        depth[v] = d + 1
                        par[v] = pu ^ pe
                        nxt.append(v)
                    elif dv >= 0 and pu ^ pe != par[v] and d + dv + 1 < best:
                        best = d + dv + 1
            level, d = nxt, d + 1
        if 2 * d + 1 < best:   # the last level: only an edge inside it can win
            for u in level:
                pu = par[u]
                for v in plain[u]:
                    if depth[v] == d and par[v] != pu:
                        best = 2 * d + 1
                for v, pe in odd[u]:
                    if depth[v] == d and par[v] != pu ^ pe:
                        best = 2 * d + 1
    if best > len(endpoints):
        raise NoLogicals("no nontrivial cycle found")
    return best


def cycle_distances(cx: SurfaceComplex) -> Distances:
    """Exact distances as homological systoles of the primal and dual graphs.

    X logicals are nontrivial cycles of the primal graph, Z logicals of the
    dual graph (faces as nodes, an edge joining the faces it bounds).  The
    tree-cotree split detects them: a primal cycle is nontrivial when it is
    odd against some dual cycle D_i, a dual one when it is odd against some
    primal cycle F_i (see `SurfaceComplex`).  So each edge carries k bits,
    and no elimination runs.
    """
    # css_from_complex returns cx; the call stays while the benchmark's
    # tracer counts it, until ROADMAP item 1 changes that contract
    leftover, primal, dual = css_from_complex(cx)._split
    if not leftover:
        raise NoLogicals("k = 0")
    d_x = _graph_systole(cx.n_vertices, cx.edge_endpoints, primal)
    d_z = _graph_systole(cx.n_faces, cx._dual_edges, dual)
    return Distances(d_x, d_z, "cycle")


# -------------------------------------------------------------- text format

def dump_complex(cx: SurfaceComplex) -> str:
    """Plain-text form: header counts, then one line per edge and face."""
    lines = [f"{cx.n_vertices} {cx.n_edges} {cx.n_faces}"]
    for u, v in cx.edge_endpoints:
        lines.append(f"{u} {v}")
    for b in cx.face_boundaries:
        lines.append(" ".join(str(e) for e in b))
    return "\n".join(lines) + "\n"


def load_complex(text: str) -> SurfaceComplex:
    """Inverse of dump_complex; blank lines and # comments are skipped."""
    rows = [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows or len(rows[0]) != 3:
        raise ValueError("expected a 'V E F' header line")
    nv, ne, nf = (int(x) for x in rows[0])
    if len(rows) != 1 + ne + nf:
        raise ValueError(f"expected {ne} edge and {nf} face lines, got {len(rows) - 1}")
    endpoints = []
    for r in rows[1:1 + ne]:
        if len(r) != 2:
            raise ValueError(f"edge line needs two endpoints: {' '.join(r)}")
        endpoints.append((int(r[0]), int(r[1])))
    faces = tuple(tuple(int(e) for e in r) for r in rows[1 + ne:])
    return SurfaceComplex(nv, ne, nf, tuple(endpoints), faces)
