"""End-to-end construction: metric space in, extension witness out.

`build_witness` turns a finite metric space A with rational distances into a
finite metric space B containing an isometric copy of A such that every
partial isometry of the copy extends to a full isometry of B, and keeps
every intermediate object needed to replay those extensions explicitly
(`extend_isometry`, on `setrep.extend_by_permutation` per map and one
`setrep.subset_automorphism` per batch).  The size of the subset graph B0
is read off A's codes before any token is laid out, and refused past the
vertex cap (`setrep.subset_graph_size`).

The tower C3..CN is decided before the subset graph B0 is built, in closed
form on the Johnson scheme (`setrep.first_bad_level`): token permutations
act on B0 transitively on the subsets that share c tokens with a fixed one,
so shortest walks over the k + 1 intersection classes tell the first level
L with bad sets, and a lower bound c on the bad L-sets through each vertex.
A level without bad sets is the level below renamed and is not stored, so
when there is no such L the witness is B0 alone.  Level L is refused before
B0 exists when |V| * 2^c exceeds the vertex cap; otherwise B0 is built and
`build_next_level` builds L and every level above it with a full search,
storing only the ones with bad sets.

The final space is the shortest-path completion of the copy's component in
the top stored level.  When that level is B0, B0 is the Johnson scheme
J(m, k), the component is all of it, and the completion's codes are
T[|X & Z|] for the class table T (`SetAssignment.classes`); its metric
check runs on class triples (`setrep.is_class_metric`).  A token
permutation keeps every |X & Z|, so it induces an automorphism of this
final space: only a lift through stored levels is checked as one again
(`check_map`), and `verifier.cross_check` judges every map.  That B0 holds
the set assignment's k-subsets, and whether a replay needs a lift, is
decided once per witness.  A witness file holds the input and B0's code
string alone: the loader derives B0's vertices and labels, its copy
(`setrep.subset_copy`), the tower height (`compute_N`) and the final space
(`final_space`) with the build's own code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from .completion import reach, shortest_path_completion
from .errors import GraphFormatError, InvalidMap, NotAMetricSpace, VertexCapExceeded
from .graphs import (
    EdgeLabelledGraph,
    PartialMap,
    check_map,
    check_vertex_name,
    induced_subgraph,
    is_metric_space,
)
from .levels import LevelGraph, build_next_level, compute_flip_set, lift_automorphism
from .setrep import (
    SetAssignment, build_eppa_graph, build_set_assignment, class_completion,
    extend_by_permutation, first_bad_level, is_class_metric, subset_automorphism,
    subset_graph_size,
)


@dataclass(frozen=True)
class Witness:
    """Everything produced by one run of the construction, each fact once.

    `levels` holds the stored levels of the expansion tower bottom-up: the
    subset graph, then each level built with bad sets (any other level is
    the stored level below it renamed).  `final` is the completion of the
    component of the top stored level that holds the copy of the input, so
    its vertices are that component; with B0 alone the component is all of
    B0, and the completion is read off its class distances rather than
    computed pair by pair; `final_space` derives it.  `n` is the tower
    height, `compute_N(input)`.  `set_assignment` is
    `build_set_assignment(input)`, or None for a one-point input, which has
    no level to replay.  A file stores the input and B0's codes alone
    (`fileio`), so only a witness whose levels are B0 can be written; a
    tower with stored levels above B0 lives in memory only.
    """

    input: EdgeLabelledGraph
    set_assignment: SetAssignment | None
    levels: tuple[LevelGraph, ...]
    final: EdgeLabelledGraph
    n: int

    @property
    def final_embedding(self) -> PartialMap:
        """The copy of the input in the final space: the top level's
        embedding, or the identity when there is no level."""
        if self.levels:
            return self.levels[-1].base_embedding
        return PartialMap.identity(self.input.vertices)

    @cached_property
    def _replays_on_final(self) -> bool:
        """Does a replay's permutation of B0 act on the final space with no
        lift?  Decided once, after refusing a B0 whose ids are not the Johnson
        table's (the count first, so that no input makes a table larger than
        its B0).  A built or loaded B0 holds the table's tuple itself, so this
        compares that tuple with itself and only a witness changed in memory
        is refused; a final space read off the table holds the tuple too."""
        sa = self.set_assignment
        b0 = self.levels[0].graph
        if len(b0) != math.comb(len(sa.universe), sa.k) or b0.vertices != sa.johnson.ids:
            raise InvalidMap("B0's vertices are not the k-subsets of the set assignment's tokens")
        return len(self.levels) == 1 and self.final.vertices == sa.johnson.ids

    @cached_property
    def _copy_positions(self) -> tuple[int, ...]:
        """The final space's position of each input point's copy, by the
        point's position in the input; -1 where the copy is outside it."""
        final, emb = self.final, self.final_embedding
        return tuple(final.position(v) if v in final else -1
                     for v in map(emb.get, self.input.vertices))


def compute_N(a: EdgeLabelledGraph) -> int:
    """One above the floor of max distance over min distance.

    Any cycle whose long edge beats the rest has fewer edges on the short
    side than that ratio, so no non-metric cycle can have more vertices.
    Edgeless inputs get the degenerate height 2 (nothing to eliminate).
    """
    spectrum = a.spectrum()
    if not spectrum:
        return 2
    return int(spectrum[-1] / spectrum[0]) + 1


def build_witness(a: EdgeLabelledGraph, vertex_cap: int = 200_000) -> Witness:
    """Run the full construction on a finite rational metric space; no
    graph it builds may have more than `vertex_cap` vertices."""
    if len(a) == 0:
        raise GraphFormatError("need at least one vertex")
    for x in a.vertices:
        check_vertex_name(x)
    if not is_metric_space(a):
        raise NotAMetricSpace("input is not a finite metric space")

    if len(a) == 1:
        return Witness(input=a, set_assignment=None, levels=(), final=a, n=compute_N(a))

    vertices = subset_graph_size(a, vertex_cap)  # before any token is laid out
    sa = build_set_assignment(a)
    n = compute_N(a)
    bad_from = n + 1  # the first level with bad sets, past n when there is none
    first = first_bad_level(sa, n)
    if first is not None:
        bad_from, per_vertex = first
        # every vertex gets at least 2**per_vertex copies: refuse before B0 exists
        if per_vertex >= vertex_cap.bit_length() or vertices << per_vertex > vertex_cap:
            raise VertexCapExceeded(
                f"level {bad_from} (valuation expansion)", vertices, vertex_cap,
                exponent=per_vertex, at_least=True,
            )
    base_graph, base_embedding = build_eppa_graph(sa, vertex_cap=vertex_cap)
    levels = (LevelGraph(graph=base_graph, level=2, base_embedding=base_embedding, bad_sets=()),)
    for size in range(bad_from, n + 1):
        nxt = build_next_level(levels[-1], size, vertex_cap=vertex_cap)
        if nxt.bad_sets:
            levels += (nxt,)

    final = final_space(a, sa, levels)
    metric = (is_class_metric(len(sa.universe), sa.classes.distances) if len(levels) == 1
              else is_metric_space(final))
    emb = levels[-1].base_embedding

    for x, y, d in a.edges():
        got = final.label(emb[x], emb[y])
        if got != d:
            raise NotAMetricSpace(
                f"construction broke the copy: d({x},{y}) became {got}, expected {d}"
            )
    if not metric:
        raise NotAMetricSpace("completion failed to produce a metric space")
    return Witness(input=a, set_assignment=sa, levels=levels, final=final, n=n)


def final_space(a: EdgeLabelledGraph, sa: SetAssignment | None,
                levels: tuple[LevelGraph, ...]) -> EdgeLabelledGraph:
    """The final space of a witness, which the build and the loader both
    derive here: the input without levels; with B0 alone, the Johnson
    scheme's completion read off the class distances; otherwise the
    shortest-path completion of the copy's component in the top level."""
    if not levels:
        return a
    if len(levels) == 1:
        return class_completion(sa.johnson, sa.classes)
    top = levels[-1]
    reached, _ = reach(top.graph, map(top.graph.position, top.base_embedding.image()))
    component = tuple(map(top.graph.vertices.__getitem__, reached.tolist()))
    return shortest_path_completion(induced_subgraph(top.graph, component))


def _as_input_map(w: Witness, phi: PartialMap) -> PartialMap:
    """A partial map on the final ids of the copy, read on input names;
    refused when one of its names is no such id."""
    names = set(phi.domain()) | set(phi.image())
    final_ids = {y: x for x, y in w.final_embedding.items()}
    if all(v in final_ids for v in names):
        return PartialMap({final_ids[u]: final_ids[v] for u, v in phi.items()})
    raise InvalidMap(
        "map must live on the input vertices or on the embedded copy in the result"
    )


def _input_pairs(w: Witness, phi: PartialMap) -> list[tuple[int, int]]:
    """`phi` as its (x, phi(x)) pairs of input positions, ascending in x,
    each name looked up once; a map that is not on input names is read on
    final ids by `_as_input_map`, which refuses one on neither form."""
    at = w.input._index
    try:
        return [(at[x], at[y]) for x, y in phi.items()]
    except KeyError:
        return [(at[x], at[y]) for x, y in _as_input_map(w, phi).items()]


def extend_isometry(w: Witness, phi: PartialMap) -> PartialMap:
    """Extend a partial isometry of the embedded copy to an isometry of the
    final space, replaying the stored construction.

    `phi` may be written on input vertex names or on their images under
    `final_embedding`; the result is a total automorphism of `w.final`
    (always on final vertex ids) extending the image form of `phi`: the
    permutation of final positions that `replay_positions` gives for the
    batch of one, named only here.  It raises what `replay_positions` raises.
    """
    return _permutation_map(w.final.vertices, replay_positions(w, [phi])[0])


def replay_positions(w: Witness, phis: Sequence[PartialMap]) -> np.ndarray:
    """The replayed extensions of partial isometries of the copy, as an
    (M, V) array with one row per map: row j is a permutation of the final
    space's vertex positions whose entry i is the position of the image of
    vertex i under the extension of phis[j].  Each map is read as by
    `extend_isometry`, and its names are looked up once (`_input_pairs`):
    the rest of the replay runs on input positions.

    On B0, whose vertices must be the ids of the set assignment's Johnson
    table (checked once per witness), a row is the permutation of B0's
    vertex positions that the token permutation completing its map induces
    (`setrep.extend_by_permutation`, which refuses a map that is no partial
    isometry); the rows of the batch come from one `subset_automorphism`
    call on their token positions, with no token named.
    When the final space is all of B0 a row applies to it as it is, an
    automorphism by construction (see above); otherwise each becomes a map
    on B0's ids, lifted through the stored levels only (a level that is
    not stored is the one below renamed, and the lift there is the same
    map), restricted to the final space and checked as an isometry of it.
    Without levels every row is the identity.  Raises InvalidMap when a row
    does not send the copy along its map, compared on the final positions
    of the copy (`Witness._copy_positions`); a batch raises when any of its
    maps would alone.
    """
    pairs = [_input_pairs(w, phi) for phi in phis]
    copy = w._copy_positions
    if w.levels:
        perms = _replay(w, pairs)
    else:
        perms = np.tile(np.arange(len(w.final)), (len(pairs), 1))
    for j, row in enumerate(pairs):
        for x, fx in row:
            u, v = copy[x], copy[fx]
            if u < 0 or v < 0 or perms.item(j, u) != v:
                raise InvalidMap("extension does not agree with the requested map")
    return perms


def _permutation_map(verts: tuple[str, ...], perm: np.ndarray) -> PartialMap:
    """The map sending verts[i] to verts[perm[i]], for a permutation perm."""
    if len(verts) == 1:  # itemgetter of one index gives the item, not a tuple
        return PartialMap._trusted(zip(verts, verts))
    return PartialMap._trusted(zip(verts, itemgetter(*perm.tolist())(verts)))


def _replay(w: Witness, pairs: list[list[tuple[int, int]]]) -> np.ndarray:
    """The automorphisms of the final space that the stored levels give for
    partial isometries of the input, each given as its pairs of input
    positions, one row of final positions per map."""
    sa = w.set_assignment
    if sa is None:
        raise InvalidMap("witness carries no set assignment; cannot replay extensions")
    direct = w._replays_on_final
    m = len(sa.universe)
    # the kernel's rows, end to end, with no list of lists for numpy to walk
    dest = np.fromiter(chain.from_iterable(extend_by_permutation(sa, row) for row in pairs),
                       dtype=np.intp, count=len(pairs) * m)
    perms = subset_automorphism(sa, dest.reshape(len(pairs), m))  # (M, V), M = 0 too
    if direct:
        # automorphisms, as pi keeps the shared-token counts that code the final space
        return perms
    names = w.input.vertices
    lifted = [_lift(w, PartialMap._trusted((names[x], names[fx]) for x, fx in row), perm)
              for row, perm in zip(pairs, perms)]
    return np.array(lifted, dtype=np.intp).reshape(len(lifted), len(w.final))


def _lift(w: Witness, phi_a: PartialMap, perm: np.ndarray) -> np.ndarray:
    """A permutation of B0's positions that extends `phi_a`, lifted through
    the stored levels and restricted to the final space's positions."""
    hat = _permutation_map(w.levels[0].graph.vertices, perm)
    prev = w.levels[0]
    for lvl in w.levels[1:]:
        phi_lvl = PartialMap(
            {lvl.base_embedding[x]: lvl.base_embedding[phi_a[x]] for x in phi_a.domain()}
        )
        flips = compute_flip_set(prev, lvl, phi_lvl, hat)
        hat = lift_automorphism(prev, lvl, hat, flips)
        if not hat.extends(phi_lvl):
            raise InvalidMap("lift failed to extend the requested map")
        prev = lvl
    verts = w.final.vertices
    where = {u: i for i, u in enumerate(verts)}
    perm = np.fromiter((where.get(hat[u], -1) for u in verts), dtype=np.intp, count=len(verts))
    if (perm < 0).any():
        raise InvalidMap("extension does not preserve the final space")
    # a lift is injective, so perm permutes the positions
    if not check_map(_permutation_map(verts, perm), w.final, w.final):
        raise InvalidMap("restriction to the final space is not an isometry")
    return perm


def witness_stats(w: Witness) -> dict:
    """Human-oriented summary of a witness (sizes, spectrum, tower shape)."""
    stats = {
        "input_vertices": len(w.input),
        "input_edges": w.input.edge_count,
        "spectrum": [str(s) for s in w.input.spectrum()],
        "tower_height": w.n,
        "levels": [
            {
                "level": lvl.level,
                "vertices": len(lvl.graph),
                "edges": lvl.graph.edge_count,
                "bad_sets_below": len(lvl.bad_sets),
                "max_bad_sets_per_vertex": max(
                    (len(js) for js in lvl.membership().values()), default=0
                ),
            }
            for lvl in w.levels
        ],
        "final_vertices": len(w.final),
        "final_edges": w.final.edge_count,
    }
    if w.set_assignment is not None:
        stats["token_universe"] = len(w.set_assignment.universe)
        stats["subset_size"] = w.set_assignment.k
    return stats
