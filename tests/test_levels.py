"""Valuation levels: bad sets, anchors, lifting, and flip sets.

The running example expands the non-metric triangle (1,1,3) into a 6-cycle
labelled (1,1,3,1,1,3): the single bad set forces unequal bits across the
long edge and equal bits elsewhere, so the two triangle sheets glue into one
long cycle and the short non-metric cycle disappears.
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction

import pytest

from eppa import (
    CycleWitness,
    InvalidMap,
    NotAMetricSpace,
    PartialMap,
    VertexCapExceeded,
    anchor_valuations,
    bad_sets,
    build_next_level,
    check_map,
    find_induced_nonmetric_cycles,
    graph_from_triples,
    has_nonmetric_cycle_up_to,
    compute_flip_set,
    lift_automorphism,
)
from eppa.levels import LevelGraph, level_vertex_id, parse_level_vertex

from conftest import every_label_on_a_pair, stacked_level, stacked_witness, witness_graphs


def make_prev(t113):
    """The (1,1,3) triangle as a level-2 graph with the long edge embedded."""
    return LevelGraph(
        graph=t113,
        level=2,
        base_embedding=PartialMap({"y": "y", "z": "z"}),
        bad_sets=(),
    )


@pytest.fixture
def prev(t113):
    return make_prev(t113)


@pytest.fixture
def lifted(prev):
    return build_next_level(prev, 3)


# -- vertex ids ----------------------------------------------------------------


def test_level_vertex_id_round_trip():
    vid = level_vertex_id("x", (0, 1, 1))
    assert vid == "x;011"
    assert parse_level_vertex(vid) == ("x", "011")
    assert parse_level_vertex("x;") == ("x", "")
    assert parse_level_vertex("a;01;10") == ("a;01", "10")  # ids nest

    from eppa.errors import GraphFormatError

    for junk in ("x", ";01", "x;02"):
        with pytest.raises(GraphFormatError):
            parse_level_vertex(junk)


# -- bad sets ------------------------------------------------------------------


def test_bad_sets_of_the_nonmetric_triangle(t113, t112):
    bad = bad_sets(t113, 3)
    assert len(bad) == 1
    assert bad[0].members == frozenset({"x", "y", "z"})
    assert bad[0].long_edge == ("y", "z")
    assert bad[0].check(t113)
    assert bad_sets(t112, 3) == ()


# -- the Moebius expansion ------------------------------------------------------


def test_expansion_is_a_six_cycle(lifted):
    g = lifted.graph
    assert len(g) == 6
    assert len(g.edges()) == 6
    assert set(g.vertices) == {"x;0", "x;1", "y;0", "y;1", "z;0", "z;1"}
    # every vertex lies on exactly two edges
    assert all(len(g.adjacency(v)) == 2 for v in g.vertices)
    # short edges glue equal bits, the long edge flips them
    assert g.label("x;0", "y;0") == 1
    assert g.label("x;1", "y;1") == 1
    assert g.label("x;0", "z;0") == 1
    assert g.label("x;1", "z;1") == 1
    assert g.label("y;0", "z;1") == 3
    assert g.label("y;1", "z;0") == 3
    # walking the cycle reads (1, 1, 3, 1, 1, 3)
    walk = ["x;0", "y;0", "z;1", "x;1", "y;1", "z;0"]
    labels = [g.label(walk[i], walk[(i + 1) % 6]) for i in range(6)]
    assert labels == [1, 3, 1, 1, 3, 1]


def test_expansion_kills_short_nonmetric_cycles(lifted):
    assert has_nonmetric_cycle_up_to(lifted.graph, 3) is None
    for size in range(3, 7):
        assert find_induced_nonmetric_cycles(lifted.graph, size) == []


def test_expansion_metadata(lifted, t113):
    assert lifted.level == 3
    assert lifted.bad_sets == bad_sets(t113, 3)
    assert lifted.membership() == {"x": (0,), "y": (0,), "z": (0,)}
    assert [m.members for m in lifted.bad_sets] == [frozenset({"x", "y", "z"})]
    # the long-edge copy is anchored at (0, 1), smaller name first
    assert dict(lifted.base_embedding.items()) == {"y": "y;0", "z": "z;1"}


def test_embedded_copy_keeps_its_distances(lifted, t113):
    emb = lifted.base_embedding
    assert lifted.graph.label(emb["y"], emb["z"]) == t113.label("y", "z")


def test_embedded_copy_must_be_metric(t113):
    whole = LevelGraph(
        graph=t113,
        level=2,
        base_embedding=PartialMap.identity(t113.vertices),
        bad_sets=(),
    )
    with pytest.raises(NotAMetricSpace):
        build_next_level(whole, 3)


def test_vertex_cap_counts_valuation_copies(prev):
    # 3 vertices, one bad set each: 6 copies needed
    with pytest.raises(VertexCapExceeded) as exc:
        build_next_level(prev, 3, vertex_cap=5)
    assert "valuation expansion" in str(exc.value)
    assert "needs 6" in str(exc.value)


def test_trivial_expansion_when_metric(t112):
    base = LevelGraph(
        graph=t112,
        level=2,
        base_embedding=PartialMap.identity(t112.vertices),
        bad_sets=(),
    )
    nxt = build_next_level(base, 3)
    assert nxt.bad_sets == ()
    assert len(nxt.graph) == 3  # one copy per vertex, empty valuations
    assert set(nxt.graph.vertices) == {"x;", "y;", "z;"}
    assert nxt.graph.label("x;", "y;") == 1


# -- anchors ---------------------------------------------------------------------


def test_anchor_rules(t113):
    bad = bad_sets(t113, 3)
    m = bad[0]
    # long-edge contact: smaller name 0, larger 1
    assert anchor_valuations(t113, ["y", "z"], bad) == {(m, "y"): 0, (m, "z"): 1}
    # short-edge contact: both ends 0
    assert anchor_valuations(t113, ["x", "y"], bad) == {(m, "x"): 0, (m, "y"): 0}
    # single-vertex contact: 0
    assert anchor_valuations(t113, ["x"], bad) == {(m, "x"): 0}


def test_anchor_rejects_copies_that_swallow_a_bad_set(t113):
    with pytest.raises(NotAMetricSpace):
        anchor_valuations(t113, ["x", "y", "z"], bad_sets(t113, 3))


def test_anchor_rejects_non_edge_contact():
    g = graph_from_triples(
        ["a", "b", "c", "d"], [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)]
    )
    fake = CycleWitness(("a", "c", "d"), ("a", "d"), Fraction(1))
    with pytest.raises(NotAMetricSpace):
        anchor_valuations(g, ["a", "c"], (fake,))


# -- lifting automorphisms --------------------------------------------------------


def all_copy_maps(lifted):
    """Partial isometries of the embedded copy, written on level ids."""
    y, z = lifted.base_embedding["y"], lifted.base_embedding["z"]
    return [
        PartialMap({}),
        PartialMap({y: y}),
        PartialMap({z: z}),
        PartialMap({y: z}),
        PartialMap({z: y}),
        PartialMap({y: y, z: z}),
        PartialMap({y: z, z: y}),
    ]


def hat_for(prev, phi_below):
    """A total automorphism of the level below extending the projection."""
    swap = PartialMap({"x": "x", "y": "z", "z": "y"})
    ident = PartialMap.identity(prev.graph.vertices)
    for cand in (ident, swap):
        if all(cand[u] == v for u, v in phi_below.items()):
            return cand
    raise AssertionError("no automorphism extends the projected map")


def below(vid):
    """The vertex of the level below that a level vertex projects to."""
    return parse_level_vertex(vid)[0]


def test_every_copy_map_lifts(prev, lifted):
    for phi in all_copy_maps(lifted):
        hat = hat_for(prev, PartialMap({below(u): below(v) for u, v in phi.items()}))
        flips = compute_flip_set(prev, lifted, phi, hat)
        theta = lift_automorphism(prev, lifted, hat, flips)
        assert check_map(theta, lifted.graph, lifted.graph)
        assert theta.extends(phi)
        # the lift always commutes with the projection
        for u in lifted.graph.vertices:
            assert below(theta[u]) == hat[below(u)]


def test_long_edge_swap_needs_the_flip(prev, lifted):
    y, z = lifted.base_embedding["y"], lifted.base_embedding["z"]
    phi = PartialMap({y: z, z: y})
    hat = PartialMap({"x": "x", "y": "z", "z": "y"})
    m = lifted.bad_sets[0]
    assert compute_flip_set(prev, lifted, phi, hat) == frozenset({m})
    # without the flip, the lift is a fine automorphism but misses phi
    plain = lift_automorphism(prev, lifted, hat)
    assert check_map(plain, lifted.graph, lifted.graph)
    assert not plain.extends(phi)
    assert lift_automorphism(prev, lifted, hat, frozenset({m})).extends(phi)


def test_identity_needs_no_flip(prev, lifted):
    ident = PartialMap.identity(prev.graph.vertices)
    full = PartialMap(
        {v: v for v in lifted.base_embedding.image()}
    )
    assert compute_flip_set(prev, lifted, full, ident) == frozenset()
    assert lift_automorphism(prev, lifted, ident).is_identity()


def test_lift_rejects_partial_or_broken_bottom_maps(prev, lifted):
    with pytest.raises(InvalidMap):
        lift_automorphism(prev, lifted, PartialMap({"x": "x"}))
    crooked = PartialMap({"x": "y", "y": "x", "z": "z"})  # not an automorphism
    with pytest.raises(InvalidMap):
        lift_automorphism(prev, lifted, crooked)
    with pytest.raises(InvalidMap):
        compute_flip_set(prev, lifted, PartialMap({}), PartialMap({"x": "x"}))


def test_flip_set_rejects_mismatched_pairs(prev, lifted):
    # hat must extend the projection of phi
    y, z = lifted.base_embedding["y"], lifted.base_embedding["z"]
    phi = PartialMap({y: z, z: y})
    ident = PartialMap.identity(prev.graph.vertices)
    with pytest.raises(InvalidMap):
        compute_flip_set(prev, lifted, phi, ident)


def test_both_lift_steps_refuse_a_map_that_breaks_a_bad_set(demo_witness):
    # the demonstration level with only its first bad set stored: swapping r
    # and s is an automorphism of the core, but it maps {p, q, r} to {p, q, s}
    core, lvl = demo_witness.levels
    first = lvl.bad_sets[0]
    assert sorted(first.members) == ["p", "q", "r"]
    lvl = dataclasses.replace(lvl, bad_sets=(first,))
    swap = PartialMap({"p": "p", "q": "q", "r": "s", "s": "r"})
    assert check_map(swap, core.graph, core.graph)
    message = re.escape("does not map bad set ['p', 'q', 'r'] to a bad set")
    with pytest.raises(InvalidMap, match=message):
        compute_flip_set(core, lvl, PartialMap({}), swap)
    with pytest.raises(InvalidMap, match=message):
        lift_automorphism(core, lvl, swap)


# -- two stacked expansions --------------------------------------------------------


def test_double_lift_composes(prev, lifted):
    # expanding once more is trivial (no bad 4-sets), and lifting commutes
    top = build_next_level(lifted, 4)
    assert top.bad_sets == ()
    assert len(top.graph) == 6
    hat = PartialMap({"x": "x", "y": "z", "z": "y"})
    theta = lift_automorphism(prev, lifted, hat,
                              compute_flip_set(prev, lifted,
                                               PartialMap({"y;0": "z;1", "z;1": "y;0"}),
                                               hat))
    theta_top = lift_automorphism(lifted, top, theta)
    assert check_map(theta_top, top.graph, top.graph)
    for vid in top.graph.vertices:
        assert below(theta_top[vid]) == theta[below(vid)]


def test_every_label_of_an_expansion_is_on_a_pair(lifted, demo_witness, t112_witness):
    # each edge below joins a copy of x to a copy of y that agrees with it
    # on every bad set through both, so no label of the level below is lost
    stacked = stacked_witness(t112_witness, demo_witness)
    graphs = [lifted.graph, build_next_level(lifted, 4).graph, stacked_level(demo_witness).graph,
              *witness_graphs(demo_witness), *witness_graphs(stacked)]
    for g in graphs:
        assert every_label_on_a_pair(g), g


# -- the cap message -------------------------------------------------------------------


def test_cap_message_writes_huge_sizes_as_a_power_of_two():
    exc = VertexCapExceeded("level 4 (valuation expansion)", 252, 200_000, exponent=16_000)
    assert str(exc) == "level 4 (valuation expansion): needs 252 * 2^16000 vertices, cap is 200000"
    assert "needs 63 * 2^16002 vertices" in str(VertexCapExceeded("s", 252 << 16_000, 5))
    assert "needs at least 2^20000 vertices" in str(VertexCapExceeded("s", (1 << 20_000) + 1, 5))
    assert "needs 6 vertices" in str(VertexCapExceeded("s", 6, 5))
    # a lower bound says so, once
    assert "needs at least 252 * 2^100 vertices" in str(
        VertexCapExceeded("s", 252, 5, exponent=100, at_least=True))
    assert "needs at least 2^20000 vertices" in str(
        VertexCapExceeded("s", (1 << 20_000) + 1, 5, at_least=True))
    # a bare power of two has no factor 1
    assert "needs 2^70 vertices" in str(VertexCapExceeded("s", 1, 5, exponent=70))
    assert "needs at least 2^1185293 vertices" in str(
        VertexCapExceeded("s", 1, 5, exponent=1_185_293, at_least=True))
