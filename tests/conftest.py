"""Shared fixtures, strategies, and the small-graph corpus.

Fixture spaces reappear across the suite: the 2-point space, the metric
triangles (1,1,2) and (1,2,3), the non-metric triangle (1,1,3), and a
4-point space with spectrum {1,2}.  Hypothesis strategies generate small
edge-labelled graphs directly; random metric spaces are produced by
completing a random connected graph, which is justified independently by
the completion oracles in test_completion.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from eppa import (
    EdgeLabelledGraph,
    PartialMap,
    build_set_assignment,
    build_witness,
    complete_graph,
    compute_N,
    graph_from_triples,
    is_metric_space,
    shortest_path_completion,
    subset_automorphism,
)
from eppa.fileio import format_label, graph_to_codes, graph_to_json, map_to_json, witness_to_json
from eppa.levels import LevelGraph, level_vertex_id
from eppa.pipeline import final_space
from eppa.setrep import ClassTable, extend_by_permutation, first_bad_level

hypothesis.settings.register_profile("fast", max_examples=10)
hypothesis.settings.register_profile("deep", max_examples=300)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

LABEL_POOL = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2))


# -- fixed spaces ------------------------------------------------------------


def make_k2() -> EdgeLabelledGraph:
    return complete_graph({("a", "b"): 1})


def make_t112() -> EdgeLabelledGraph:
    return complete_graph({("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 2})


def make_t113() -> EdgeLabelledGraph:
    return complete_graph({("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 3})


def make_t123() -> EdgeLabelledGraph:
    return complete_graph({("x", "y"): 1, ("x", "z"): 2, ("y", "z"): 3})


def make_four_point() -> EdgeLabelledGraph:
    # 4-cycle with unit sides and diagonal 2; spectrum {1, 2}
    return complete_graph(
        {
            ("p", "q"): 1,
            ("q", "r"): 1,
            ("r", "s"): 1,
            ("p", "s"): 1,
            ("p", "r"): 2,
            ("q", "s"): 2,
        }
    )


def make_path2() -> EdgeLabelledGraph:
    return graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("y", "z", 2)])


def make_sixcycle() -> EdgeLabelledGraph:
    # the cycle the valuation expansion makes of the (1,1,3) triangle
    labels = [1, 1, 3, 1, 1, 3]
    names = [f"m{i}" for i in range(6)]
    return graph_from_triples(
        names, [(names[i], names[(i + 1) % 6], labels[i]) for i in range(6)]
    )


@pytest.fixture
def k2():
    return make_k2()


@pytest.fixture
def t112():
    return make_t112()


@pytest.fixture
def t113():
    return make_t113()


@pytest.fixture
def t123():
    return make_t123()


@pytest.fixture
def four_point():
    return make_four_point()


@pytest.fixture
def path2():
    return make_path2()


@pytest.fixture(scope="session")
def k2_witness():
    return build_witness(make_k2())


@pytest.fixture(scope="session")
def t112_witness():
    return build_witness(make_t112())


@pytest.fixture(scope="session")
def probe():
    """scripts/mutation_probe.py, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "mutation_probe.py"
    spec = importlib.util.spec_from_file_location("mutation_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def demo_witness(probe):
    """One expansion level over two non-metric triangles sharing their long
    edge."""
    return probe.demo_witness()


def stacked_level(demo_witness):
    """The demonstration witness's level 3 with a copy of the triangle
    (x, y, z) in the component of its own copy of z."""
    top = demo_witness.levels[1]
    copy = PartialMap({"x": "p;00", "y": "q;00", "z": top.base_embedding["z"]})
    return dataclasses.replace(top, base_embedding=copy)


def every_label_on_a_pair(g: EdgeLabelledGraph) -> bool:
    """Is each label of g's spectrum the code of some pair of g?  B0 and
    the levels are built without a pass that drops unused labels, so this
    holds for them by construction."""
    return bool(np.bincount(g.codes.ravel(), minlength=len(g.spectrum()) + 1)[1:].all())


def witness_graphs(w) -> list[EdgeLabelledGraph]:
    """The input, every stored level's graph and the final space of w."""
    return [w.input, *(lvl.graph for lvl in w.levels), w.final]


def graph_digest(w) -> str:
    """sha256 of a witness's built graphs and tower height, whatever the
    file format around them: compact JSON of [the input as `graph_to_json`
    writes it, every stored level's graph as `graph_to_codes` writes it,
    the final space likewise, n]."""
    facts = [graph_to_json(w.input), [graph_to_codes(lvl.graph) for lvl in w.levels],
             graph_to_codes(w.final), w.n]
    return hashlib.sha256(json.dumps(facts, separators=(",", ":")).encode()).hexdigest()


def stacked_witness(t112_witness, demo_witness):
    """The triangle-112 witness with the demonstration witness's level 3
    stored above its B0 (`stacked_level`), and the final space that level
    gives.  No build makes such a witness (the demo level does not expand
    B0); it stands in for a tower with a level above B0 and bad sets, which
    lives in memory only."""
    levels = (t112_witness.levels[0], stacked_level(demo_witness))
    return dataclasses.replace(t112_witness, levels=levels,
                               final=final_space(t112_witness.input,
                                                 t112_witness.set_assignment, levels))


def copied_level_tower(w):
    """w, a witness of B0 alone, with level 3 stored above B0 by hand as a
    copy of it without bad sets: each vertex is its B0 vertex with no bits
    (the id gains a ";").  No build stores such a level, which is B0
    renamed; its final space is the completion of that copy."""
    base = w.levels[0]
    copy = {v: level_vertex_id(v, ()) for v in base.graph.vertices}
    top = LevelGraph(
        graph=EdgeLabelledGraph(copy.values(),
                                [(copy[u], copy[v], d) for u, v, d in base.graph.edges()]),
        level=3,
        base_embedding=PartialMap({x: copy[u] for x, u in base.base_embedding.items()}),
        bad_sets=(),
    )
    return dataclasses.replace(w, levels=(base, top), final=shortest_path_completion(top.graph))


def recoded(g: EdgeLabelledGraph, code: int) -> EdgeLabelledGraph:
    """g with the pair of its first two vertices given the code `code`."""
    codes = g.codes.copy()
    codes[0, 1] = codes[1, 0] = code
    return EdgeLabelledGraph._trusted(g.vertices, g.spectrum(), codes)


def renamed_off_the_copy(w):
    """(old, bent): the last B0 vertex of w off the copy, and w with that
    vertex renamed in B0 and in the final space alike.  The graphs keep
    their shape, but B0 is no longer the set assignment's."""
    base = w.levels[0]
    old = next(v for v in reversed(base.graph.vertices) if v not in base.base_embedding.image())
    rename = {old: old[:-1] + "'}"}

    def renamed(g):
        return EdgeLabelledGraph([rename.get(v, v) for v in g.vertices],
                                 [(rename.get(u, u), rename.get(v, v), d) for u, v, d in g.edges()])

    return old, dataclasses.replace(
        w, levels=(dataclasses.replace(base, graph=renamed(base.graph)),), final=renamed(w.final))


def stacked_witness_json(t112_witness, demo_witness) -> dict:
    """The triangle-112 witness file carrying an extra "levels" list with
    the stacked level (`stacked_level`) written as the older formats wrote
    a level above B0.  A witness file stores B0 alone, so every command
    refuses it."""
    top = stacked_level(demo_witness)
    level = {"level": top.level, "graph": graph_to_codes(top.graph),
             "base_embedding": map_to_json(top.base_embedding),
             "bad_sets": [{"vertices": list(m.vertices), "long_edge": list(m.long_edge),
                           "deficit": format_label(m.deficit)} for m in top.bad_sets]}
    return {**witness_to_json(t112_witness), "levels": [level]}


def bent_classes(a: EdgeLabelledGraph, c: int, value: int | None) -> ClassTable:
    """The class table of a's set assignment with the distance of class c,
    in scaled units, set to `value`; tests inject it through
    `SetAssignment.classes`, which every step of a build reads."""
    table = build_set_assignment(a).classes
    last = list(table.walks[-1])
    last[c] = value
    return dataclasses.replace(table, walks=(*table.walks[:-1], tuple(last)))


# -- corpus of small graphs for oracle-agreement tests -----------------------

def _star3() -> EdgeLabelledGraph:
    return graph_from_triples(
        ["c", "l1", "l2", "l3"], [("c", "l1", 1), ("c", "l2", 1), ("c", "l3", 1)]
    )


def _two_components() -> EdgeLabelledGraph:
    return graph_from_triples(
        ["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 2)]
    )


def _path7() -> EdgeLabelledGraph:
    names = [f"p{i}" for i in range(7)]
    return graph_from_triples(
        names, [(names[i], names[i + 1], i + 1) for i in range(6)]
    )


def _path8() -> EdgeLabelledGraph:
    names = [f"p{i}" for i in range(8)]
    labels = [1, 1, 2, 1, 1, 3, 1]
    return graph_from_triples(
        names, [(names[i], names[i + 1], labels[i]) for i in range(7)]
    )


def small_corpus() -> list[tuple[str, EdgeLabelledGraph]]:
    """Named graphs with at most 8 vertices, mixing metric spaces,
    non-metric graphs, incomplete and disconnected ones."""
    return [
        ("single", graph_from_triples(["o"], [])),
        ("k2", make_k2()),
        ("t112", make_t112()),
        ("t113", make_t113()),
        ("t123", make_t123()),
        ("four-point", make_four_point()),
        ("path2", make_path2()),
        ("star3", _star3()),
        ("two-components", _two_components()),
        ("six-cycle", make_sixcycle()),
        ("path7", _path7()),
        ("path8", _path8()),
    ]


# -- random generation -------------------------------------------------------


def random_connected_graph(
    rng: random.Random,
    max_vertices: int = 7,
    labels: tuple[Fraction, ...] = LABEL_POOL,
    extra_edge_p: float = 0.35,
) -> EdgeLabelledGraph:
    """Random spanning tree plus random extra edges; always connected."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[(j, i)] = rng.choice(labels)
    for i, j in combinations(range(n), 2):
        if (i, j) not in edges and rng.random() < extra_edge_p:
            edges[(i, j)] = rng.choice(labels)
    return graph_from_triples(
        names, [(names[i], names[j], d) for (i, j), d in edges.items()]
    )


def random_graph(
    rng: random.Random,
    max_vertices: int = 4,
    labels: tuple[Fraction, ...] = (Fraction(1), Fraction(3, 2), Fraction(2)),
    edge_p: float = 0.6,
) -> EdgeLabelledGraph:
    """Random edge-labelled graph, possibly disconnected or edgeless."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    triples = [
        (names[i], names[j], rng.choice(labels))
        for i, j in combinations(range(n), 2)
        if rng.random() < edge_p
    ]
    return graph_from_triples(names, triples)


@st.composite
def edge_labelled_graphs(
    draw, min_vertices=2, max_vertices=5, labels=LABEL_POOL, connected=False
):
    n = draw(st.integers(min_vertices, max_vertices))
    names = [f"v{i}" for i in range(n)]
    chosen = {}
    if connected and n > 1:
        for i in range(1, n):
            j = draw(st.integers(0, i - 1))
            chosen[(j, i)] = draw(st.sampled_from(labels))
    for i, j in combinations(range(n), 2):
        if (i, j) not in chosen and draw(st.integers(0, 2)) == 0:
            chosen[(i, j)] = draw(st.sampled_from(labels))
    return graph_from_triples(
        names, [(names[i], names[j], d) for (i, j), d in chosen.items()]
    )


@st.composite
def connected_graphs(draw, max_vertices=6, labels=LABEL_POOL):
    return draw(
        edge_labelled_graphs(
            min_vertices=2, max_vertices=max_vertices, labels=labels, connected=True
        )
    )


@st.composite
def metric_spaces(draw, max_vertices=5, labels=LABEL_POOL):
    g = draw(connected_graphs(max_vertices=max_vertices, labels=labels))
    return shortest_path_completion(g)


# a side of a random triangle, relative to its other two
RATIOS = (Fraction(1), Fraction(9, 8), Fraction(5, 4), Fraction(4, 3), Fraction(3, 2),
          Fraction(5, 3), Fraction(2), Fraction(9, 4), Fraction(8, 3), Fraction(3))


@st.composite
def small_tower_free_spaces(draw):
    """Metric triangles with one side apart and equilateral four-point
    spaces, at a random rational unit, whose B0 has at most 300 vertices
    and no bad set (with three distinct labels, or four points and two, B0
    has more)."""
    unit = draw(st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12))
    if draw(st.booleans()):
        names, labels = ("a", "b", "c", "d"), [unit] * 6
    else:
        odd = unit * draw(st.sampled_from(RATIOS))
        names = ("x", "y", "z")
        labels = draw(st.permutations([unit, unit, odd] if draw(st.booleans()) else [unit, odd, odd]))
    pairs = combinations(names, 2)
    a = graph_from_triples(names, [(u, v, d) for (u, v), d in zip(pairs, labels)])
    assume(is_metric_space(a))
    sa = build_set_assignment(a)
    assume(math.comb(len(sa.universe), sa.k) <= 300 and first_bad_level(sa, compute_N(a)) is None)
    return sa


# -- independent checkers used by several test files -------------------------


def triangle_ok(g: EdgeLabelledGraph) -> bool:
    """Completeness plus the triangle inequality, written out plainly."""
    for u, v in combinations(g.vertices, 2):
        if g.label(u, v) is None:
            return False
    for u, v, w in combinations(g.vertices, 3):
        duv, duw, dvw = g.label(u, v), g.label(u, w), g.label(v, w)
        if duv > duw + dvw or duw > duv + dvw or dvw > duv + duw:
            return False
    return True


def induced_nonmetric_sets(g: EdgeLabelledGraph, size: int) -> set[frozenset]:
    """Subset-scan oracle: all vertex sets of the given size whose induced
    subgraph is a cycle with one edge longer than the rest combined."""
    out = set()
    for subset in combinations(g.vertices, size):
        inside = set(subset)
        degs = []
        labels = []
        for u in subset:
            row = [v for v in g.adjacency(u) if v in inside]
            degs.append(len(row))
        if any(d != 2 for d in degs):
            continue
        # connected 2-regular graph on `size` vertices = one cycle
        seen = {subset[0]}
        frontier = [subset[0]]
        while frontier:
            u = frontier.pop()
            for v in g.adjacency(u):
                if v in inside and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) != size:
            continue
        for u, v in combinations(subset, 2):
            d = g.label(u, v)
            if d is not None:
                labels.append(d)
        top = max(labels)
        if labels.count(top) == 1 and top > sum(labels) - top:
            out.add(frozenset(subset))
    return out


def all_automorphisms(g: EdgeLabelledGraph) -> list[PartialMap]:
    """Every total automorphism, by plain backtracking with label pruning."""
    verts = list(g.vertices)
    sig = {
        v: tuple(sorted(g.adjacency(v).values())) for v in verts
    }
    found: list[PartialMap] = []
    assigned: dict[str, str] = {}
    used: set[str] = set()

    def place(pos: int) -> None:
        if pos == len(verts):
            found.append(PartialMap(dict(assigned)))
            return
        u = verts[pos]
        for w in verts:
            if w in used or sig[w] != sig[u]:
                continue
            if any(g.label(u, v) != g.label(w, fv) for v, fv in assigned.items()):
                continue
            assigned[u] = w
            used.add(w)
            place(pos + 1)
            del assigned[u]
            used.discard(w)

    place(0)
    return found


def composable_pairs(maps: list[PartialMap]) -> list[tuple[PartialMap, PartialMap]]:
    """(phi, psi) for every two maps where psi starts on phi's image."""
    return [
        (phi, psi)
        for phi in maps
        for psi in maps
        if sorted(psi.domain()) == sorted(phi.image())
    ]


def broken_compositions(extend, maps: list[PartialMap]) -> list[tuple[PartialMap, PartialMap]]:
    """Criterion 6's composition check: the composable pairs (phi, psi) of
    `maps` (closed under composition) whose extensions do not compose, that
    is extend(psi after phi) != extend(psi) after extend(phi)."""
    ext = {phi.items(): extend(phi) for phi in maps}
    return [
        (phi, psi)
        for phi, psi in composable_pairs(maps)
        if ext[psi.compose(phi).items()] != ext[psi.items()].compose(ext[phi.items()])
    ]


def tau_on_empty_positions(sa, pairs):
    """`setrep.extend_by_permutation`, except on the empty map, which gets the
    fixed transposition tau of the first two token positions instead of the
    identity.  Any token permutation induces an automorphism of the subset
    graph, so each result is still an extension; but ext(empty) after
    ext(empty) is the identity, not tau. The negative control of criterion
    6's composition check, on the kernel's (x, phi(x)) pairs of point
    positions."""
    if len(pairs):
        return extend_by_permutation(sa, pairs)
    return [1, 0, *range(2, len(sa.universe))]


def point_pairs(sa, phi):
    """A map on the point names of sa's graph as the (x, phi(x)) pairs of
    point positions, ascending in x, that `extend_by_permutation` takes."""
    at = sa.graph.position
    return [(at(x), at(y)) for x, y in phi.items()]


def token_map(sa, dest):
    """A row of token destinations, as the map on token names it stands
    for: the form of the string references."""
    universe = sa.universe
    return PartialMap(zip(universe, map(universe.__getitem__, dest)))


def extend_tokens(sa, phi, kernel=extend_by_permutation):
    """The token permutation that `kernel` (`extend_by_permutation` or a
    stand-in for it) gives a map on point names, as a token map."""
    return token_map(sa, kernel(sa, point_pairs(sa, phi)))


def b0_automorphisms(sa, dests, b):
    """`subset_automorphism` of a batch of rows of token destinations, as
    one map on the vertex ids of b, the subset graph of sa, per row."""
    verts = b.vertices
    rows = np.array(dests, dtype=np.intp).reshape(len(dests), len(sa.universe))
    return [PartialMap(zip(verts, map(verts.__getitem__, row)))
            for row in subset_automorphism(sa, rows).tolist()]


def b0_automorphism(sa, dest, b):
    """`b0_automorphisms` of the batch of one."""
    return b0_automorphisms(sa, [dest], b)[0]
