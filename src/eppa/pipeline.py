"""End-to-end construction: metric space in, extension witness out.

`build_witness` turns a finite metric space A with rational distances into a
finite metric space B containing an isometric copy of A such that every
partial isometry of the copy extends to a full isometry of B, and keeps
every intermediate object needed to replay those extensions explicitly
(`extend_isometry`).

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .completion import reach, shortest_path_completion
from .errors import GraphFormatError, InvalidMap, NotAMetricSpace, VertexCapExceeded
from .graphs import (
    EdgeLabelledGraph,
    PartialMap,
    check_vertex_name,
    induced_subgraph,
    is_metric_space,
    is_partial_automorphism,
)
from .levels import LevelGraph, _automorphism_ok, build_next_level, compute_flip_set, lift_automorphism
from .setrep import (
    SetAssignment, build_eppa_graph, build_set_assignment, extend_by_permutation,
    first_bad_level, subset_automorphism, subset_graph_size,
)


@dataclass(frozen=True)
class Config:
    """Resource limits and extension-mode switches."""

    vertex_cap: int = 200_000
    coherent: bool = True


@dataclass(frozen=True)
class Witness:
    """Everything produced by one run of the construction.

    `levels` holds the stored levels of the expansion tower bottom-up: the
    subset graph, then each level built with bad sets (any other level is
    the stored level below it renamed).  `component` is the vertex set of
    the top stored level that was completed, and `final` the resulting
    metric space with `final_embedding` placing the input inside it.  `n`
    is the tower height: one above the floor of the largest-to-smallest
    distance ratio.  `set_assignment` is None only for witnesses that cannot
    replay extensions token-by-token (single-point inputs and hand-built
    test witnesses).
    """

    input: EdgeLabelledGraph
    set_assignment: SetAssignment | None
    levels: tuple[LevelGraph, ...]
    component: tuple[str, ...]
    final: EdgeLabelledGraph
    final_embedding: PartialMap
    n: int
    config: Config = field(default_factory=Config)


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


def build_witness(a: EdgeLabelledGraph, config: Config | None = None) -> Witness:
    """Run the full construction on a finite rational metric space."""
    config = config or Config()
    if len(a) == 0:
        raise GraphFormatError("need at least one vertex")
    for x in a.vertices:
        check_vertex_name(x)
    if not is_metric_space(a):
        raise NotAMetricSpace("input is not a finite metric space")

    if len(a) == 1:
        only = a.vertices[0]
        return Witness(
            input=a,
            set_assignment=None,
            levels=(),
            component=a.vertices,
            final=a,
            final_embedding=PartialMap({only: only}),
            n=compute_N(a),
            config=config,
        )

    sa = build_set_assignment(a)
    n = compute_N(a)
    cap = config.vertex_cap
    vertices = subset_graph_size(sa, cap)
    bad_from = n + 1  # the first level with bad sets, past n when there is none
    first = first_bad_level(sa, n)
    if first is not None:
        bad_from, per_vertex = first
        # every vertex gets at least 2**per_vertex copies: refuse before B0 exists
        if per_vertex >= cap.bit_length() or vertices << per_vertex > cap:
            raise VertexCapExceeded(
                f"level {bad_from} (valuation expansion)", vertices, cap,
                exponent=per_vertex, at_least=True,
            )
    base_graph, base_embedding = build_eppa_graph(a, sa, vertex_cap=cap)
    levels = [
        LevelGraph(
            graph=base_graph,
            level=2,
            base_embedding=base_embedding,
            projection={},
            bad_sets=(),
        )
    ]
    for size in range(bad_from, n + 1):
        prev = levels[-1]
        nxt = build_next_level(prev, size, prev.base_embedding.image(), vertex_cap=cap)
        if nxt.bad_sets:
            levels.append(nxt)

    top = levels[-1]
    reached, _ = reach(top.graph, map(top.graph.position, top.base_embedding.image()))
    component = tuple(map(top.graph.vertices.__getitem__, reached.tolist()))
    final = shortest_path_completion(induced_subgraph(top.graph, component))
    final_embedding = PartialMap(dict(top.base_embedding.items()))

    for x, y, d in a.edges():
        got = final.label(final_embedding[x], final_embedding[y])
        if got != d:
            raise NotAMetricSpace(
                f"construction broke the copy: d({x},{y}) became {got}, expected {d}"
            )
    if not is_metric_space(final):
        raise NotAMetricSpace("completion failed to produce a metric space")
    return Witness(
        input=a,
        set_assignment=sa,
        levels=tuple(levels),
        component=component,
        final=final,
        final_embedding=final_embedding,
        n=n,
        config=config,
    )


def _as_input_map(w: Witness, phi: PartialMap) -> PartialMap:
    """Accept a partial map either on input names or on final vertex ids."""
    a = w.input
    names = set(phi.domain()) | set(phi.image())
    if all(v in a for v in names):
        return phi
    final_ids = {w.final_embedding[x]: x for x in a.vertices}
    if all(v in final_ids for v in names):
        return PartialMap({final_ids[u]: final_ids[v] for u, v in phi.items()})
    raise InvalidMap(
        "map must live on the input vertices or on the embedded copy in the result"
    )


def extend_isometry(w: Witness, phi: PartialMap) -> PartialMap:
    """Extend a partial isometry of the embedded copy to an isometry of the
    final space, replaying the stored construction.

    `phi` may be written on input vertex names or on their images under
    `final_embedding`; the result is a total automorphism of `w.final`
    (always on final vertex ids) extending the image form of `phi`.  On
    B0 it is the automorphism induced by the token permutation that
    completes `phi` (`subset_automorphism`, on token positions parsed once
    per graph).  It is lifted through the stored levels only: a level that
    is not stored is the one below renamed, and the lift there is the same
    map.  The restriction to the component is checked as an isometry of
    the final space as a permutation of its vertex positions.
    """
    phi_a = _as_input_map(w, phi)
    if not is_partial_automorphism(phi_a, w.input):
        raise InvalidMap("map does not preserve distances on its domain")

    emb = w.final_embedding
    phi_final = PartialMap({emb[x]: emb[phi_a[x]] for x in phi_a.domain()})
    if not w.levels:
        return PartialMap.identity(w.final.vertices)
    if w.set_assignment is None:
        raise InvalidMap("witness carries no set assignment; cannot replay extensions")

    pi = extend_by_permutation(w.input, w.set_assignment, phi_a, coherent=w.config.coherent)
    hat = subset_automorphism(pi, w.levels[0].graph)
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

    component = w.component
    where = {u: i for i, u in enumerate(component)}
    perm = np.fromiter(
        (where.get(hat[u], -1) for u in component), dtype=np.intp, count=len(component)
    )
    if (perm < 0).any():
        raise InvalidMap(
            "extension does not preserve the completed component "
            "(can happen for the empty map in non-coherent mode)"
        )
    # when the component lists the final vertices in order, theta permutes
    # them (nothing to validate) and perm is on the final space's positions
    in_order = component == w.final.vertices
    pairs = zip(component, map(component.__getitem__, perm.tolist()))
    theta = PartialMap._trusted(pairs) if in_order else PartialMap(pairs)
    if not _automorphism_ok(w.final, perm if in_order else theta):
        raise InvalidMap("restriction to the component is not an isometry")
    if not theta.extends(phi_final):
        raise InvalidMap("extension does not agree with the requested map")
    return theta


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
        "component_vertices": len(w.component),
        "final_vertices": len(w.final),
        "final_edges": w.final.edge_count,
        "coherent": w.config.coherent,
    }
    if w.set_assignment is not None:
        stats["token_universe"] = len(w.set_assignment.universe)
        stats["subset_size"] = w.set_assignment.k
    return stats
