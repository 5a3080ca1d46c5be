"""Shortest-path completion and non-metric cycle detection.

The cycle finder is checked against a plain subset-scan oracle, and the
completion against hand-computed distances, a closed-form oracle on a large
cycle, and the metric/label-preservation/automorphism properties.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppa import (
    BudgetExhausted,
    CycleWitness,
    DisconnectedGraph,
    build_eppa_graph,
    build_set_assignment,
    find_induced_nonmetric_cycles,
    graph_from_triples,
    has_nonmetric_cycle_up_to,
    is_connected,
    is_metric_space,
    shortest_path_completion,
)
from conftest import (
    all_automorphisms,
    connected_graphs,
    edge_labelled_graphs,
    induced_nonmetric_sets,
    make_sixcycle,
    triangle_ok,
)


# -- completion ---------------------------------------------------------------


def test_completion_of_unit_path_is_112():
    path = graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("y", "z", 1)])
    done = shortest_path_completion(path)
    assert done.label("x", "z") == 2
    assert done.label("x", "y") == 1
    assert done.is_complete()


def test_completion_shrinks_the_long_edge(t113):
    done = shortest_path_completion(t113)
    assert done.label("y", "z") == 2  # was 3, rerouted through x
    assert done.label("x", "y") == 1
    assert is_metric_space(done)


def test_completion_requires_connected(path2):
    lonely = graph_from_triples(["a", "b", "c"], [("a", "b", 1)])
    assert not is_connected(lonely)
    with pytest.raises(DisconnectedGraph):
        shortest_path_completion(lonely)
    assert is_connected(path2)


def test_connectivity_of_empty_graph_is_undefined():
    with pytest.raises(ValueError):
        is_connected(graph_from_triples([], []))


def test_completion_large_cycle_closed_form():
    # 70 unit edges in a ring: distance is the shorter way around;
    # exercises the dense all-pairs path (the graph is above 64 vertices)
    n = 70
    names = [f"c{i:02d}" for i in range(n)]
    ring = graph_from_triples(
        names, [(names[i], names[(i + 1) % n], 1) for i in range(n)]
    )
    done = shortest_path_completion(ring)
    for i in range(0, n, 7):
        for j in range(i + 1, n, 11):
            want = min(j - i, n - (j - i))
            assert done.label(names[i], names[j]) == want


def floyd_warshall(g) -> dict[tuple[str, str], Fraction]:
    """Exact all-pairs distances in Fraction arithmetic, the plain way."""
    verts = g.vertices
    dist = {(u, v): (Fraction(0) if u == v else g.label(u, v)) for u in verts for v in verts}
    for z in verts:
        for x in verts:
            dxz = dist[(x, z)]
            if dxz is None:
                continue
            for y in verts:
                dzy = dist[(z, y)]
                if dzy is not None and (dist[(x, y)] is None or dxz + dzy < dist[(x, y)]):
                    dist[(x, y)] = dxz + dzy
    return dist


def assert_completion_matches_oracle(g):
    done = shortest_path_completion(g)
    want = floyd_warshall(g)
    assert done.vertices == g.vertices
    assert done.is_complete()
    for u, v, d in done.edges():
        assert d == want[(u, v)]
        assert type(d) is Fraction
    assert done.spectrum() == tuple(sorted({want[(u, v)] for u, v, _ in done.edges()}))
    return done


FRACTION_POOL = tuple(
    Fraction(p, q) for p, q in ((1, 3), (2, 7), (5, 4), (9, 11), (3, 1), (7, 2), (13, 6))
)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=7, labels=FRACTION_POOL))
def test_completion_matches_fraction_floyd_warshall(g):
    assert_completion_matches_oracle(g)


def test_completion_matches_oracle_on_70_vertices():
    # past the size where completion once switched algorithms: a ring of
    # fractional labels with seeded chords, some long enough to shrink
    rng = random.Random(70)
    names = [f"w{i:02d}" for i in range(70)]
    edges = {(i, (i + 1) % 70): rng.choice(FRACTION_POOL) for i in range(70)}
    for _ in range(40):
        i, j = sorted(rng.sample(range(70), 2))
        edges.setdefault((i, j), rng.choice(FRACTION_POOL) * 4)
    g = graph_from_triples(names, [(names[i], names[j], d) for (i, j), d in edges.items()])
    done = assert_completion_matches_oracle(g)
    assert any(done.label(names[i], names[j]) < d for (i, j), d in edges.items())


@pytest.mark.parametrize(
    "labels",
    [
        # labels past int64: the matrix must hold Python ints
        (10**19, 10**19 + Fraction(1, 3), 3 * 10**19),
        # labels and the no-path sentinel (4 * max + 1) fit a type, but the
        # sum of two sentinels does not: it would wrap around in int64 ...
        (3 * 10**18 // 2, 3 * 10**18 // 2 + 1, 10**18),
        # ... in int16, and in int8
        (5000, 5001, 3000),
        (20, 21, 12),
    ],
)
def test_completion_is_exact_for_huge_labels(labels):
    a, b, c = labels
    g = graph_from_triples(["p", "q", "r", "s"], [("p", "q", a), ("q", "r", b), ("r", "s", c)])
    done = assert_completion_matches_oracle(g)
    assert done.label("p", "s") == a + b + c


def test_completion_exact_with_fraction_labels():
    g = graph_from_triples(
        ["a", "b", "c"],
        [("a", "b", Fraction(1, 3)), ("b", "c", Fraction(1, 7))],
    )
    done = shortest_path_completion(g)
    assert done.label("a", "c") == Fraction(10, 21)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=6))
def test_completion_is_metric(g):
    assert triangle_ok(shortest_path_completion(g))


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=6))
def test_completion_is_idempotent(g):
    done = shortest_path_completion(g)
    assert shortest_path_completion(done) == done


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=6))
def test_completion_preserves_labels_iff_no_induced_nonmetric_cycle(g):
    done = shortest_path_completion(g)
    preserved = all(done.label(u, v) == d for u, v, d in g.edges())
    has_bad = any(
        induced_nonmetric_sets(g, size) for size in range(3, len(g) + 1)
    )
    assert preserved == (not has_bad)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=6))
def test_completion_keeps_automorphisms(g):
    done = shortest_path_completion(g)
    autos = all_automorphisms(g)
    assert autos  # at least the identity
    for f in autos:
        pairs = f.items()
        for i, (u, fu) in enumerate(pairs):
            for v, fv in pairs[i + 1 :]:
                assert done.label(u, v) == done.label(fu, fv)


# -- induced non-metric cycles -------------------------------------------------


def test_find_cycles_on_the_nonmetric_triangle(t113):
    found = find_induced_nonmetric_cycles(t113, 3)
    assert len(found) == 1
    w = found[0]
    assert sorted(w.vertices) == ["x", "y", "z"]
    assert w.long_edge == ("y", "z")
    assert w.deficit == 1  # 3 - (1 + 1)
    assert w.check(t113)


def test_find_cycles_metric_triangle_has_none(t112):
    assert find_induced_nonmetric_cycles(t112, 3) == []


def test_find_cycles_size_four():
    # square with one heavy side: 5 > 1+1+1
    g = graph_from_triples(
        ["a", "b", "c", "d"],
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 5)],
    )
    found = find_induced_nonmetric_cycles(g, 4)
    assert len(found) == 1
    assert found[0].long_edge == ("a", "d")
    assert found[0].deficit == 2
    # a chord splits the square; the 4-set is then no longer induced
    chorded = graph_from_triples(
        ["a", "b", "c", "d"],
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 5), ("a", "c", 1)],
    )
    assert find_induced_nonmetric_cycles(chorded, 4) == []
    assert len(find_induced_nonmetric_cycles(chorded, 3)) == 1  # (a,c,d) is bad


def test_find_cycles_skip_a_path_with_a_chord_to_the_far_end():
    # u-a-b-v is a non-metric 4-cycle (1+1+1 < 10) but a-v is a chord, so
    # the 4-set is not induced; the DFS grows from u and must refuse a, which
    # touches v before the last step.  The triangle u-a-v is the bad set.
    g = graph_from_triples(
        ["a", "b", "u", "v"],
        [("u", "a", 1), ("a", "b", 1), ("b", "v", 1), ("u", "v", 10), ("a", "v", 1)],
    )
    assert find_induced_nonmetric_cycles(g, 4) == []
    found = find_induced_nonmetric_cycles(g, 3)
    assert [sorted(w.vertices) for w in found] == [["a", "u", "v"]]
    assert found[0].long_edge == ("u", "v")


def test_find_cycles_rejects_tiny_sizes(t113):
    with pytest.raises(ValueError):
        find_induced_nonmetric_cycles(t113, 2)


def test_sixcycle_has_no_induced_nonmetric_cycles():
    c6 = make_sixcycle()
    for size in range(3, 7):
        assert find_induced_nonmetric_cycles(c6, size) == []


@settings(max_examples=60, deadline=None)
@given(edge_labelled_graphs(max_vertices=6))
def test_find_cycles_agrees_with_subset_scan(g):
    for size in range(3, len(g) + 1):
        found = find_induced_nonmetric_cycles(g, size)
        got = {frozenset(w.vertices) for w in found}
        assert got == induced_nonmetric_sets(g, size)
        assert len(got) == len(found)  # one witness per vertex set
        for w in found:
            assert w.check(g)


# -- bounded cycle search -----------------------------------------------------


def test_cycle_witness_check_rejects_corruption(t113):
    w = find_induced_nonmetric_cycles(t113, 3)[0]
    assert not CycleWitness(w.vertices, w.long_edge, w.deficit + 1).check(t113)
    assert not CycleWitness(w.vertices, ("z", "y"), w.deficit).check(t113)
    assert not CycleWitness(("x", "y"), w.long_edge, w.deficit).check(t113)
    assert not CycleWitness(("x", "y", "y"), w.long_edge, w.deficit).check(t113)


def test_has_nonmetric_cycle_up_to_finds_and_bounds(t113, t112):
    got = has_nonmetric_cycle_up_to(t113, 3)
    assert got is not None and got.check(t113)
    assert has_nonmetric_cycle_up_to(t112, 3) is None
    with pytest.raises(ValueError):
        has_nonmetric_cycle_up_to(t113, 2)


def test_has_nonmetric_cycle_respects_the_size_bound():
    # the only bad cycle needs 4 vertices, so a bound of 3 sees nothing
    g = graph_from_triples(
        ["a", "b", "c", "d"],
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 5)],
    )
    assert has_nonmetric_cycle_up_to(g, 3) is None
    assert has_nonmetric_cycle_up_to(g, 4) is not None


def test_has_nonmetric_cycle_budget_is_loud(t113):
    with pytest.raises(BudgetExhausted):
        has_nonmetric_cycle_up_to(t113, 3, budget=1)


@settings(max_examples=60, deadline=None)
@given(edge_labelled_graphs(max_vertices=6))
def test_bounded_search_agrees_with_induced_scan(g):
    # non-induced bad cycles always contain an induced one no larger, so the
    # bounded search is empty exactly when the induced scan is
    top = max(3, len(g))
    got = has_nonmetric_cycle_up_to(g, top)
    induced = any(induced_nonmetric_sets(g, s) for s in range(3, top + 1))
    assert (got is not None) == induced
    if got is not None:
        assert got.check(g)


@settings(max_examples=60, deadline=None)
@given(edge_labelled_graphs(max_vertices=7, labels=(
    Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2), Fraction(5))))
def test_hop_check_agrees_with_induced_scan_at_every_size(g):
    # at every bound L, a non-metric cycle on at most L vertices exists iff
    # some induced one does; the witness names at most L vertices
    for size in range(3, len(g) + 1):
        got = has_nonmetric_cycle_up_to(g, size)
        induced = any(induced_nonmetric_sets(g, s) for s in range(3, size + 1))
        assert (got is not None) == induced, size
        if got is not None:
            assert got.check(g)
            assert len(got.vertices) <= size


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=7), st.data())
def test_hop_check_from_some_sources_finds_cycles_at_them(g, data):
    n = len(g)
    top = max(3, n)
    default = has_nonmetric_cycle_up_to(g, top)
    assert has_nonmetric_cycle_up_to(g, top, sources=range(n)) == default
    sources = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="sources")
    got = has_nonmetric_cycle_up_to(g, top, sources=sources)
    if got is not None:
        assert got.check(g)
        assert {g.vertices[p] for p in sources} & set(got.long_edge)
    if default is None:
        assert got is None


@pytest.fixture(scope="module")
def b0_144():
    """The B0 of the (1,4,4) triangle, 252 vertices: vertex-transitive, with
    bad 4-sets and no bad triangle."""
    a = graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("x", "z", 4), ("y", "z", 4)])
    return build_eppa_graph(build_set_assignment(a))[0]


def test_hop_check_from_vertex_0_of_a_vertex_transitive_graph_matches_every_vertex(b0_144):
    # the first shorter walk is at the second product, three edges long
    got = has_nonmetric_cycle_up_to(b0_144, 5, sources=[0])
    assert got is not None and len(got.vertices) == 4 and got.check(b0_144)
    assert got == has_nonmetric_cycle_up_to(b0_144, 5)


@pytest.mark.parametrize("budget", [1, 251, 252, 503, 504])
def test_hop_check_budget_charges_n_sweeps_a_product_whatever_the_sources(b0_144, budget):
    # a product is 252 row sweeps from any sources, and every row meets its
    # shorter walk at the second: 504 sweeps find it, and any fewer run out
    for sources in (None, [0], [17, 200], range(252)):
        if budget < 504:
            with pytest.raises(BudgetExhausted, match=f"after {budget} row sweeps"):
                has_nonmetric_cycle_up_to(b0_144, 5, budget=budget, sources=sources)
        else:
            assert has_nonmetric_cycle_up_to(b0_144, 5, budget=budget, sources=sources)


def test_hop_check_rebuilds_the_path_under_a_long_closing_edge():
    # a 4-vertex path a-b-c-d closed by a long edge: only a 4-cycle is bad
    g = graph_from_triples(
        ["a", "b", "c", "d"],
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 5)],
    )
    assert has_nonmetric_cycle_up_to(g, 3) is None
    got = has_nonmetric_cycle_up_to(g, 4)
    assert got == CycleWitness(("a", "b", "c", "d"), ("a", "d"), Fraction(2))
    assert got.check(g)
