"""Level-by-level elimination of short non-metric cycles.

Level L replaces every vertex x of the level below by one copy per
0/1-valuation of the bad sets through x, where a bad set is an L-element
vertex set whose induced subgraph is a non-metric cycle.  Edges survive
between copies that agree on every shared bad set, except across the cycle's
long edge where they must disagree.  Walking any bad cycle then forces a bit
to both flip and stay equal, so level L induces no non-metric cycle on L or
fewer vertices, while a fixed copy of the original space and the
extendability of its partial automorphisms are both carried upward.

A level whose level below has no bad set of its size is that level again
under new names (each vertex with the empty valuation), so it is not
stored: a stored level is built by `build_next_level` at its own size from
the previous stored level.  A stored level holds its graph, its number, its
copy of the original space and its bad sets, each as its cycle; the rest is
read off those.  A vertex id `x;bits` names its projection x onto the level
below and its bits, one per bad set through x (`parse_level_vertex`).  Which
level of the subset graph B0 is the first with bad sets is decided before
B0 is built (`setrep.first_bad_level`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

import numpy as np

from .completion import CycleWitness, find_induced_nonmetric_cycles
from .errors import GraphFormatError, InvalidMap, NotAMetricSpace, VertexCapExceeded
from .graphs import (
    EdgeLabelledGraph, PartialMap, check_map, induced_subgraph, is_metric_space,
)


@dataclass(frozen=True)
class LevelGraph:
    """One stored level of the construction tower.

    `bad_sets` are the bad sets of size `level` of the previous stored level
    that this level's valuations range over, each held as its cycle; there
    are none at the base level.  `base_embedding` places the original space
    inside this level.
    """

    graph: EdgeLabelledGraph
    level: int
    base_embedding: PartialMap
    bad_sets: tuple[CycleWitness, ...]

    def membership(self) -> dict[str, tuple[int, ...]]:
        """Vertex of the level below -> indices of the bad sets through it."""
        below: dict[str, list[int]] = {}
        for j, m in enumerate(self.bad_sets):
            for x in m.members:
                below.setdefault(x, []).append(j)
        return {x: tuple(js) for x, js in below.items()}


def bad_sets(g: EdgeLabelledGraph, cycle_size: int) -> tuple[CycleWitness, ...]:
    """All vertex sets of the given size on which g induces a non-metric
    cycle, as those cycles, in canonical order."""
    return tuple(find_induced_nonmetric_cycles(g, cycle_size))


def level_vertex_id(base: str, bits: Iterable[int]) -> str:
    return base + ";" + "".join("01"[b] for b in bits)


def parse_level_vertex(vid: str) -> tuple[str, str]:
    base, sep, bits = vid.rpartition(";")
    if not sep or not base or any(c not in "01" for c in bits):
        raise GraphFormatError(f"not a valuation vertex id: {vid!r}")
    return base, bits


def anchor_valuations(
    g: EdgeLabelledGraph, copy_vertices: Iterable[str], bad: tuple[CycleWitness, ...]
) -> dict[tuple[CycleWitness, str], int]:
    """Fixed valuation bits for the embedded copy, keyed (bad set, vertex).

    The copy is complete and metric, so it meets each bad cycle in at most
    one edge; across the long edge the bits must differ (smaller name gets
    0), anywhere else they are 0.
    """
    copy = set(copy_vertices)
    anchors: dict[tuple[CycleWitness, str], int] = {}
    for m in bad:
        hit = sorted(m.members & copy)
        if not hit:
            continue
        if len(hit) > 2:
            raise NotAMetricSpace(
                f"embedded copy meets bad set {sorted(m.members)} in {len(hit)} vertices"
            )
        if len(hit) == 2 and g.label(hit[0], hit[1]) is None:
            raise NotAMetricSpace(
                f"embedded copy meets bad set {sorted(m.members)} in a non-edge"
            )
        if tuple(hit) == tuple(sorted(m.long_edge)):
            anchors[(m, hit[0])] = 0
            anchors[(m, hit[1])] = 1
        else:
            for x in hit:
                anchors[(m, x)] = 0
    return anchors


def build_next_level(
    prev: LevelGraph,
    size: int,
    vertex_cap: int = 200_000,
) -> LevelGraph:
    """Expand a level by 0/1-valuations of its bad sets of the given size,
    into the level of that number.

    The levels in between, if any, are `prev` renamed: the caller has found
    no bad set of their sizes.  The result induces no non-metric cycle on at
    most `size` vertices and carries a copy of the original space at
    anchored valuations.
    """
    g = prev.graph
    copy_vertices = tuple(prev.base_embedding.image())
    copy = induced_subgraph(g, copy_vertices)
    if not is_metric_space(copy):
        raise NotAMetricSpace("embedded copy is not a metric space")
    bad = bad_sets(g, size)
    member_idx: dict[str, tuple[int, ...]] = {x: () for x in g.vertices}
    for j, m in enumerate(bad):
        for x in m.members:
            member_idx[x] = member_idx[x] + (j,)

    needed = sum(1 << len(member_idx[x]) for x in g.vertices)
    if needed > vertex_cap:
        raise VertexCapExceeded(
            f"level {size} (valuation expansion)", needed, vertex_cap
        )

    vertex_ids = {
        x: [(level_vertex_id(x, bits), bits) for bits in product((0, 1), repeat=len(member_idx[x]))]
        for x in g.vertices
    }
    verts = tuple(sorted(vid for copies in vertex_ids.values() for vid, _ in copies))
    where = dict(zip(verts, range(len(verts))))
    codes = np.zeros((len(verts), len(verts)), dtype=g.codes.dtype)
    for row, col in np.argwhere(np.triu(g.codes, 1)).tolist():  # the edges, in vertex order
        code = g.codes[row, col]
        x, y = g.vertices[row], g.vertices[col]
        jx, jy = member_idx[x], member_idx[y]
        jy_set = set(jy)
        shared = [j for j in jx if j in jy_set]
        pos_x = {j: p for p, j in enumerate(jx)}
        pos_y = {j: p for p, j in enumerate(jy)}
        want_diff = [(pos_x[j], pos_y[j], bad[j].long_edge == (x, y)) for j in shared]
        for vx, bx in vertex_ids[x]:
            for vy, by in vertex_ids[y]:
                ok = True
                for px, py, diff in want_diff:
                    if (bx[px] != by[py]) != diff:
                        ok = False
                        break
                if ok:
                    p, q = where[vx], where[vy]
                    codes[p, q] = codes[q, p] = code

    # no label is lost: each edge x-y below joins some copy of x to some copy
    # of y, as y has a copy for every bit string, so one copy meets every
    # constraint on the bad sets through both
    graph = EdgeLabelledGraph._trusted(verts, g.spectrum(), codes)

    anchors = anchor_valuations(g, copy_vertices, bad)
    embedding = {}
    for a, x in prev.base_embedding.items():
        bits = tuple(anchors[(bad[j], x)] for j in member_idx[x])
        embedding[a] = level_vertex_id(x, bits)
    return LevelGraph(
        graph=graph,
        level=size,
        base_embedding=PartialMap(embedding),
        bad_sets=bad,
    )


def _bad_set_targets(prev: LevelGraph, nxt: LevelGraph, hat_phi: PartialMap) -> list[int]:
    """Entry j is the index of the image of bad set j under `hat_phi`, a
    total map of `prev` (the level below), among the bad sets of `nxt`."""
    if sorted(hat_phi.domain()) != list(prev.graph.vertices):
        raise InvalidMap("expected a total automorphism of the level below")
    index_of = {m.members: j for j, m in enumerate(nxt.bad_sets)}
    targets = []
    for m in nxt.bad_sets:
        jt = index_of.get(frozenset(hat_phi[x] for x in sorted(m.members)))
        if jt is None:
            raise InvalidMap(
                f"automorphism of the lower level does not map bad set "
                f"{sorted(m.members)} to a bad set"
            )
        targets.append(jt)
    return targets


def compute_flip_set(
    prev: LevelGraph, nxt: LevelGraph, phi: PartialMap, hat_phi: PartialMap
) -> frozenset[CycleWitness]:
    """Bad sets whose valuation the lifted automorphism must invert.

    `phi` is a partial automorphism of the embedded copy at level `nxt` and
    `hat_phi` an automorphism of `prev` (the level below) extending its
    projection.  A bad set flips when some vertex of it carries an anchored
    copy mapped by `phi` whose bit disagrees with the bit of the image vertex
    at the image bad set; the construction guarantees all witnesses of one
    bad set agree, which is re-checked here.
    """
    targets = _bad_set_targets(prev, nxt, hat_phi)
    bit_at: dict[tuple[str, int], int] = {}
    member = nxt.membership()
    dom_by_base: dict[str, str] = {}
    for u in phi.domain():
        base, bits = parse_level_vertex(u)
        dom_by_base[base] = u
        for p, j in enumerate(member.get(base, ())):
            bit_at[(base, j)] = int(bits[p])
    image_bits: dict[tuple[str, int], int] = {}
    for u in phi.domain():
        v = phi[u]
        base, bits = parse_level_vertex(v)
        for p, j in enumerate(member.get(base, ())):
            image_bits[(base, j)] = int(bits[p])

    flips: set[CycleWitness] = set()
    for j, (m, jt) in enumerate(zip(nxt.bad_sets, targets)):
        verdicts = []
        for x in sorted(m.members):
            u = dom_by_base.get(x)
            if u is None:
                continue
            y = parse_level_vertex(phi[u])[0]
            if y != hat_phi[x]:
                raise InvalidMap("lower-level automorphism does not extend the projection")
            verdicts.append(bit_at[(x, j)] != image_bits[(y, jt)])
        if not verdicts:
            continue
        if len(set(verdicts)) != 1:
            raise InvalidMap(
                f"inconsistent flip evidence on bad set {sorted(m.members)}"
            )
        if verdicts[0]:
            flips.add(m)
    return frozenset(flips)


def lift_automorphism(
    prev: LevelGraph,
    nxt: LevelGraph,
    hat_phi: PartialMap,
    flips: frozenset[CycleWitness] = frozenset(),
) -> PartialMap:
    """Lift an automorphism of the level below, inverting the given bad sets.

    The result moves each valuation copy of x to a valuation copy of
    hat_phi(x), transporting every bit to the image bad set and inverting it
    exactly on the flip set, so it commutes with the projection read off the
    ids.  The lift is verified to be an automorphism before it is returned.
    """
    targets = _bad_set_targets(prev, nxt, hat_phi)
    if not check_map(hat_phi, prev.graph, prev.graph):
        raise InvalidMap("map of the level below is not an automorphism")
    member = nxt.membership()
    flip_index = {j for j, m in enumerate(nxt.bad_sets) if m in flips}

    table: dict[str, str] = {}
    for vid in nxt.graph.vertices:
        base, bits = parse_level_vertex(vid)
        y = hat_phi[base]
        out_bits: dict[int, int] = {}
        for p, j in enumerate(member.get(base, ())):
            out_bits[targets[j]] = int(bits[p]) ^ (j in flip_index)
        new_bits = tuple(out_bits[j] for j in member.get(y, ()))
        table[vid] = level_vertex_id(y, new_bits)
    theta = PartialMap(table)
    if not check_map(theta, nxt.graph, nxt.graph):
        raise InvalidMap("lift is not an automorphism")
    return theta
