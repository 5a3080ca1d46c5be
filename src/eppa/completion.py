"""Shortest-path completion and non-metric cycle detection.

A cycle is non-metric when one of its edges (necessarily unique) is strictly
longer than the sum of all the others.  Completing a connected graph by
shortest-path distances always yields a metric space; it agrees with the
original labels exactly when no induced non-metric cycle is present, and it
never loses automorphisms.

The completion has one exact path at every size.  The spectrum is scaled
once by the lcm of its denominators and indexed by the code matrix into an
n x n integer matrix; non-edges hold a sentinel longer than any path, and a
min-plus closure over every middle vertex gives all distances.  The
sentinel is 2 * ecc * max + 1, where ecc is the depth of the breadth-first
search (`reach`) that proves the graph connected: any two vertices are
joined through its start vertex by a walk of at most 2 * ecc edges, so no
distance exceeds 2 * ecc * max.  The matrix has the narrowest of int8 to
int64 that holds twice the sentinel, so no sum of two entries can
overflow, and Python ints (dtype=object) beyond int64.  The distinct
distances, ascending, become the spectrum of the result and their ranks its
codes.

`build_witness` runs this completion only on levels above the subset graph
B0: B0 alone is completed by a class lookup on the Johnson scheme
(`setrep.class_completion`), which gives the same graph.  `eppa complete`
runs it on any connected graph.

Short non-metric cycles are found by the same kind of matrix, with a bound
on the number of edges instead of a closure (`has_nonmetric_cycle_up_to`).
The construction's bad-set search is a separate depth-first search for
induced cycles (`induced_nonmetric_cycles_at`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import BudgetExhausted, DisconnectedGraph, GraphFormatError
from .graphs import EdgeLabelledGraph, scaled_matrix, scaled_spectrum


@dataclass(frozen=True, slots=True)
class CycleWitness:
    """A concrete non-metric cycle: the vertex order, its long edge, and by
    how much the long edge beats the rest (deficit > 0)."""

    vertices: tuple[str, ...]
    long_edge: tuple[str, str]
    deficit: Fraction

    @property
    def members(self) -> frozenset[str]:
        """The vertex set on which the cycle is induced."""
        return frozenset(self.vertices)

    def check(self, g: EdgeLabelledGraph) -> bool:
        """Re-verify this witness against a graph."""
        vs = self.vertices
        n = len(vs)
        if n < 3 or len(set(vs)) != n:
            return False
        labels = []
        for i, u in enumerate(vs):
            v = vs[(i + 1) % n]
            label = g.label(u, v)
            if label is None:
                return False
            labels.append(((u, v) if u < v else (v, u), label))
        table = dict(labels)
        if tuple(sorted(self.long_edge)) != self.long_edge or self.long_edge not in table:
            return False
        long_label = table[self.long_edge]
        rest = sum(label for edge, label in labels) - long_label
        return long_label - rest == self.deficit and self.deficit > 0


def reach(g: EdgeLabelledGraph, seeds: Iterable[int]) -> tuple[np.ndarray, int]:
    """(reached, depth): the positions of the vertices joined to the seed
    positions by paths, ascending, and the most edges on a fewest-edge path
    from the seeds to one of them.  Breadth-first, one layer at a time over
    the rows of the code matrix."""
    seen = np.zeros(len(g), dtype=bool)
    seen[list(seeds)] = True
    layer, depth = seen.copy(), 0
    while True:
        layer = g.codes[layer].any(axis=0) & ~seen
        if not layer.any():
            return np.flatnonzero(seen), depth
        seen |= layer
        depth += 1


def is_connected(g: EdgeLabelledGraph) -> bool:
    if not g.vertices:
        raise ValueError("connectivity of the empty graph is undefined")
    return len(reach(g, [0])[0]) == len(g)


def shortest_path_completion(g: EdgeLabelledGraph) -> EdgeLabelledGraph:
    """Complete graph on the same vertices, labelled by path-length distance.

    Requires a connected, non-empty graph.  Existing labels can only shrink
    (they shrink exactly on edges involved in non-metric cycles); the result
    is always a metric space.
    """
    n = len(g)
    if not n:
        raise GraphFormatError("need at least one vertex")
    reached, ecc = reach(g, [0])
    if len(reached) < n:
        raise DisconnectedGraph("shortest-path completion needs a connected graph")
    scale, values = scaled_spectrum(g)
    unreachable = 2 * ecc * max(values, default=0) + 1  # longer than any shortest path
    dist = scaled_matrix(g, values, unreachable, 2 * unreachable)  # sums of two entries stay exact
    via = np.empty_like(dist)
    for z in range(n):
        np.add(dist[:, z, None], dist[None, z, :], out=via)
        np.minimum(dist, via, out=dist)
    # connected, so every entry is a path length; 0 only on the diagonal
    distances, codes = np.unique(dist, return_inverse=True)
    labels = tuple(Fraction(int(w), scale) for w in distances.tolist()[1:])
    codes = codes.reshape(n, n).astype(np.min_scalar_type(len(labels)))
    return EdgeLabelledGraph._trusted(g.vertices, labels, codes, n * (n - 1) // 2)


def find_induced_nonmetric_cycles(g: EdgeLabelledGraph, size: int) -> list[CycleWitness]:
    """All vertex sets of the given size on which g induces a non-metric cycle.

    Enumeration is anchored at the long edge: every edge is searched by
    `induced_nonmetric_cycles_at`.  A non-metric cycle has exactly one long
    edge, so each qualifying set is found exactly once; the result is sorted
    by vertex set.  Exhaustive, no budget.
    """
    if size < 3:
        raise ValueError("cycles have at least 3 vertices")
    found: list[tuple[tuple[str, ...], CycleWitness]] = []
    for u, v, _ in g.edges():
        for w in induced_nonmetric_cycles_at(g, u, v, size):
            found.append((tuple(sorted(w.vertices)), w))
    found.sort(key=lambda pair: pair[0])
    return [witness for _, witness in found]


def induced_nonmetric_cycles_at(
    g: EdgeLabelledGraph, u: str, v: str, size: int
) -> list[CycleWitness]:
    """The induced non-metric cycles on `size` vertices whose long edge is
    the edge u-v, in search order.

    Depth-first search from u for the short paths that close an induced
    cycle at v with a strictly smaller total; each cycle is found once and
    its witness names (u, v) as the long edge.
    """
    if size < 3:
        raise ValueError("cycles have at least 3 vertices")
    start, end = g.position(u), g.position(v)
    long_code = g.codes.item(start, end)
    if not long_code:
        raise ValueError(f"({u!r}, {v!r}) is not an edge")
    scale, values = scaled_spectrum(g)
    weight = [0, *values]  # by code
    long_label, smallest = weight[long_code], values[0]
    need = size - 1  # edges on the short side
    found: list[CycleWitness] = []
    if long_label <= need * smallest:
        return found
    rows: dict[int, list[int]] = {}  # position -> its codes, read on first visit
    by_code: dict[int, list[tuple[int, list[int]]]] = {}  # position -> its neighbours by code

    def row(p: int) -> list[int]:
        if p not in rows:
            rows[p] = g.codes[p].tolist()
        return rows[p]

    def buckets(p: int) -> list[tuple[int, list[int]]]:
        """(code, neighbours), codes ascending and neighbours in vertex order."""
        if p not in by_code:
            grouped: dict[int, list[int]] = {}
            for w, code in enumerate(row(p)):
                if code:
                    grouped.setdefault(code, []).append(w)
            by_code[p] = sorted(grouped.items())
        return by_code[p]

    row_v = row(end)
    path = [start]
    on_path = {start}

    def grow(last: int, total: int, used: int) -> None:
        remaining = need - used
        if remaining == 1:
            closing = weight[row_v[last]]
            if closing and total + closing < long_label:
                deficit = Fraction(long_label - total - closing, scale)
                found.append(CycleWitness((*(g.vertices[p] for p in path), v), (u, v), deficit))
            return
        floor = (remaining - 1) * smallest
        for code, bucket in buckets(last):
            if total + weight[code] + floor >= long_label:
                continue
            for w in bucket:
                if w == end or w in on_path:
                    continue
                # induced: w may touch the path only at its predecessor,
                # and may touch v only as the final intermediate
                row_w = row(w)
                if remaining > 2 and row_w[end]:
                    continue
                if any(row_w[p] for p in path if p != last):
                    continue
                path.append(w)
                on_path.add(w)
                grow(w, total + weight[code], used + 1)
                path.pop()
                on_path.remove(w)

    grow(start, 0, 0)
    return found


def has_nonmetric_cycle_up_to(
    g: EdgeLabelledGraph, max_vertices: int, budget: int = 10_000_000,
    sources: Iterable[int] | None = None,
) -> CycleWitness | None:
    """First non-metric cycle (not necessarily induced) with at most the given
    number of vertices, whose long edge has an end among the vertex
    positions `sources` (every vertex when None), or None when there is none.

    g has a non-metric cycle on at most L vertices iff some edge u-v has a
    walk of at most L-1 edges strictly shorter than its label: a shortest
    such walk is a simple path, not the edge itself, and closes a cycle
    with u-v.  So the check is hop-bounded min-plus products on the scaled
    label matrix M, on the rows of the sources: D_1 = M and D_h = D_(h-1)
    (min,+) M, the shortest walks of at most h edges, with a sentinel of
    h * max + 1 on non-edges.  h goes up to the least of L-1, n-1 and the
    last h with h * smallest label < largest label, and the products stop
    early at the first h where some edge has a shorter walk, or when D
    stops changing.  The witness is the first such edge in vertex order,
    with its path read back from the hop matrices.  A product counts n row
    sweeps against the budget whatever the sources; running out raises
    BudgetExhausted rather than reporting a false absence.

    On a vertex-transitive g, `sources=[0]` finds the same cycle at the same
    product as every vertex: automorphisms keep every hop matrix.
    """
    if max_vertices < 3:
        raise ValueError("cycles have at least 3 vertices")
    spectrum = g.spectrum()
    if not spectrum:
        return None
    verts = g.vertices
    n = len(verts)
    # a simple path has at most n - 1 edges, and one of h edges is at least
    # h * smallest long, so it undercuts no label unless h * smallest < largest
    hops = min(max_vertices - 1, n - 1, math.ceil(spectrum[-1] / spectrum[0]) - 1)
    if hops < 2:  # under 3 vertices, or no label above twice the smallest
        return None
    scale, values = scaled_spectrum(g)
    unreachable = hops * max(values) + 1  # longer than any walk of `hops` edges
    mat = scaled_matrix(g, values, unreachable, 2 * unreachable)
    rows = np.arange(n) if sources is None else np.array(sorted(sources), dtype=np.intp)
    labels = mat[rows]
    is_edge = labels < unreachable  # and the diagonal, where nothing is shorter
    hop = [labels]
    via = np.empty_like(mat)
    for product in range(1, hops):
        if product * n > budget:
            raise BudgetExhausted(
                f"cycle search budget {budget} exhausted after {budget} row sweeps"
            )
        last = hop[-1]
        walks = np.empty_like(last)
        for r, row in enumerate(last):  # the zero diagonal keeps the shorter walks
            np.add(row[:, None], mat, out=via)
            via.min(axis=0, out=walks[r])
        hop.append(walks)
        shorter = np.argwhere((walks < labels) & is_edge)
        if len(shorter):
            r, j = map(int, shorter[0])
            i = int(rows[r])
            path = _walk_back([h[r] for h in hop], mat, i, j)
            deficit = Fraction(int(mat[i, j] - walks[r, j]), scale)
            return CycleWitness(tuple(verts[p] for p in path),
                                (verts[min(i, j)], verts[max(i, j)]), deficit)
        if np.array_equal(walks, last):
            break
    return None


def _walk_back(hop: list[np.ndarray], mat: np.ndarray, i: int, j: int) -> list[int]:
    """A shortest walk from i to j of at most len(hop) edges, read back from
    i's rows of the hop matrices (hop[h] holds the walks of at most h + 1
    edges).

    Such a walk is a simple path: cutting out a repeated vertex would give
    a strictly shorter walk with fewer edges.
    """
    h = len(hop) - 1
    cur, length = j, hop[h][j]
    path = [j]
    while cur != i:
        while h > 0 and hop[h - 1][cur] == length:
            h -= 1  # reached with fewer edges
        if h == 0:  # the edge i-cur itself
            path.append(i)
            break
        # one more edge than hop[h - 1] allows: the last one is k-cur, k != cur
        k = int(np.flatnonzero(hop[h - 1] + mat[:, cur] == length)[0])
        cur, length = k, hop[h - 1][k]
        path.append(k)
        h -= 1
    return path[::-1]
