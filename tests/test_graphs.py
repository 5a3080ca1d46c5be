"""Graphs, partial maps, and the structure-preservation checks."""

from __future__ import annotations

import ast
import itertools
import pathlib
import re
from fractions import Fraction
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eppa
from eppa import (
    EdgeLabelledGraph,
    GraphFormatError,
    InvalidMap,
    PartialMap,
    UnknownVertex,
    check_map,
    complete_graph,
    enumerate_partial_automorphisms,
    graph_from_triples,
    induced_subgraph,
    is_metric_space,
    is_partial_automorphism,
)
from eppa.fileio import graph_from_json
from eppa.graphs import metric_violation, scaled_matrix, scaled_spectrum
from conftest import edge_labelled_graphs, small_corpus


# -- construction and basic queries ------------------------------------------


def test_vertices_sorted_and_edges_symmetric(t112):
    assert t112.vertices == ("x", "y", "z")
    assert t112.label("y", "z") == 2
    assert t112.label("z", "y") == 2
    assert t112.edge_count == 3
    assert t112.edges() == (
        ("x", "y", Fraction(1)),
        ("x", "z", Fraction(1)),
        ("y", "z", Fraction(2)),
    )


def test_spectrum_is_ascending_distinct():
    g = graph_from_triples(["a", "b", "c"], [("a", "b", 3), ("b", "c", Fraction(1, 2))])
    assert g.spectrum() == (Fraction(1, 2), Fraction(3))


def test_label_of_non_edge_is_none(path2):
    assert path2.label("x", "z") is None
    assert not path2.is_complete()


@pytest.mark.parametrize(
    "vertices, edges",
    [
        (["a", "a"], []),  # duplicate vertex
        (["a", "b"], [("a", "a", 1)]),  # loop
        (["a", "b"], [("a", "b", 1), ("b", "a", 1)]),  # duplicate edge, both orders
        (["a"], [("a", "b", 1)]),  # unknown endpoint
    ],
)
def test_bad_construction_rejected(vertices, edges):
    with pytest.raises(GraphFormatError):
        graph_from_triples(vertices, edges)


@pytest.mark.parametrize("label", [0, -1, Fraction(-2, 3), 1.5, True, "2"])
def test_bad_labels_rejected(label):
    with pytest.raises(GraphFormatError):
        graph_from_triples(["a", "b"], [("a", "b", label)])


@pytest.mark.parametrize(
    "name", ["a b", "", "a;b", "x#1", "{y}", "a|b", "a,b", "a!", "~x", "(v)"]
)
def test_reserved_characters_rejected_at_the_boundary(name):
    with pytest.raises(GraphFormatError):
        graph_from_triples([name], [])


def test_derived_ids_allowed_in_core_constructor():
    # machine-made ids reuse the reserved characters; only whitespace is out
    g = EdgeLabelledGraph(["x;01", "{a!1|b!1}"], [("x;01", "{a!1|b!1}", 1)])
    assert len(g) == 2
    with pytest.raises(GraphFormatError):
        EdgeLabelledGraph(["a b"], [])


@pytest.mark.parametrize("name", ["a\n", "a b"])
def test_a_name_with_whitespace_is_refused_everywhere(name):
    # the rules match whole names: "$" alone would pass a final newline
    with pytest.raises(GraphFormatError) as exc:
        graph_from_json({"vertices": ["0", name], "edges": [["0", name, "1"]]})
    assert str(exc.value) == (f"bad vertex name {name!r}: names are nonempty strings without "
                              "whitespace or any of ( ) { } # ! | , ; ~")
    core = f"bad vertex name {name!r}: names are nonempty, no whitespace"
    with pytest.raises(GraphFormatError, match=re.escape(core)):
        EdgeLabelledGraph(["0", name], [])


def test_structural_equality(t112):
    twin = complete_graph({("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 2})
    assert t112 == twin
    assert t112 != complete_graph({("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 3})


# -- code matrix --------------------------------------------------------------


def test_code_matrix_holds_ranks_and_scales_exactly():
    g = graph_from_triples(
        ["c", "b", "a"], [("a", "b", Fraction(1, 2)), ("b", "c", Fraction(3, 2))]
    )
    assert g.spectrum() == (Fraction(1, 2), Fraction(3, 2))
    assert g.codes.dtype == np.uint8
    assert g.codes.tolist() == [[0, 1, 0], [1, 0, 2], [0, 2, 0]]  # 0: no edge
    scale, values = scaled_spectrum(g)
    assert (scale, values) == (2, [1, 3])
    mat = scaled_matrix(g, values, -1, 6)
    assert mat.dtype == np.int8
    assert mat.tolist() == [[0, 1, -1], [1, 0, 3], [-1, 3, 0]]


def test_labels_past_int64_are_exact_python_ints():
    big = 10**19
    g = graph_from_triples(["x", "y", "z"], [("x", "y", big), ("x", "z", big), ("y", "z", 2 * big)])
    _, values = scaled_spectrum(g)
    assert scaled_matrix(g, values, -1, 2 * values[-1]).dtype == object
    assert is_metric_space(g)
    bent = graph_from_triples(["x", "y", "z"], [("x", "y", big), ("x", "z", big), ("y", "z", 2 * big + 1)])
    assert metric_violation(bent) == ("x", "y", "z")


def test_unused_labels_leave_the_spectrum(t123):
    sub = induced_subgraph(t123, ["x", "z"])
    assert sub.spectrum() == (Fraction(2),)
    assert sub.codes.tolist() == [[0, 1], [1, 0]]
    assert sub == graph_from_triples(["x", "z"], [("x", "z", 2)])


# -- partial maps -------------------------------------------------------------


def test_partial_map_sorted_views():
    f = PartialMap({"b": "c", "a": "b"})
    assert f.domain() == ("a", "b")
    assert f.image() == ("b", "c")
    assert f.items() == (("a", "b"), ("b", "c"))
    assert f["a"] == "b"
    assert "a" in f and "c" not in f
    with pytest.raises(UnknownVertex):
        f["z"]


def test_partial_map_rejects_conflicts_and_non_injective():
    with pytest.raises(InvalidMap):
        PartialMap([("a", "b"), ("a", "c")])
    with pytest.raises(InvalidMap):
        PartialMap([("a", "c"), ("b", "c")])
    # a repeated consistent pair is fine
    assert len(PartialMap([("a", "b"), ("a", "b")])) == 1


def test_partial_map_compose_inverse_extends():
    f = PartialMap({"a": "b", "b": "c"})
    g = PartialMap({"b": "a", "c": "b"})
    assert g.compose(f) == PartialMap({"a": "a", "b": "b"})
    assert f.extends(PartialMap({"a": "b"}))
    assert not f.extends(PartialMap({"a": "c"}))
    assert PartialMap.identity(["u", "v"]).is_identity()
    with pytest.raises(InvalidMap):
        PartialMap({"a": "x"}).compose(f)  # image of f not inside the domain


# -- metric predicate ---------------------------------------------------------


def test_is_metric_space_on_fixtures(t112, t113, path2):
    assert is_metric_space(t112)
    assert not is_metric_space(t113)  # 3 > 1 + 1
    assert not is_metric_space(path2)  # incomplete


def test_metric_violation_names_the_broken_triple(t112, t113):
    assert metric_violation(t112) is None
    assert metric_violation(t113) == ("x", "y", "z")
    names = [f"v{i:02d}" for i in range(70)]
    table = {(names[i], names[j]): 2 for i in range(70) for j in range(i + 1, 70)}
    table[("v31", "v62")] = 5
    bad = metric_violation(complete_graph(table))
    assert bad is not None and {"v31", "v62"} <= set(bad)
    # labels past int64 take the Fraction loop and give the same answer
    big = {pair: 10**19 * d for pair, d in table.items()}
    assert metric_violation(complete_graph(big)) == bad


@pytest.mark.parametrize("top", [100, 20_000, 2 * 10**9, 2**60 // 4])
def test_is_metric_space_where_a_label_fits_a_type_that_twice_it_does_not(top):
    # d(x, z) + d(z, y) must not wrap around in the dense matrix's type
    assert is_metric_space(complete_graph({("x", "y"): top, ("x", "z"): top, ("y", "z"): top}))
    third = top // 3
    bad = complete_graph({("x", "y"): 2 * third + 1, ("x", "z"): third, ("y", "z"): third})
    assert metric_violation(bad) == ("x", "y", "z")


def test_is_metric_space_large_fast_path():
    names = [f"v{i}" for i in range(70)]
    ones = complete_graph(
        {(names[i], names[j]): 1 for i in range(70) for j in range(i + 1, 70)}
    )
    assert is_metric_space(ones)
    table = {(names[i], names[j]): 1 for i in range(70) for j in range(i + 1, 70)}
    table[("v0", "v1")] = 3
    assert not is_metric_space(complete_graph(table))


# -- induced subgraphs --------------------------------------------------------


def test_induced_subgraph_keeps_inner_edges(four_point):
    sub = induced_subgraph(four_point, ["p", "q", "r"])
    assert sub.vertices == ("p", "q", "r")
    assert sub.label("p", "q") == 1
    assert sub.label("p", "r") == 2
    assert sub.edge_count == 3
    with pytest.raises(UnknownVertex):
        induced_subgraph(four_point, ["p", "nope"])


@settings(max_examples=60, deadline=None)
@given(edge_labelled_graphs(max_vertices=6), st.data())
def test_induced_subgraph_equals_the_validated_constructor(g, data):
    keep = data.draw(st.sets(st.sampled_from(g.vertices)))
    if data.draw(st.booleans()):
        keep = set(g.vertices)  # the whole graph shares its rows
    sub = induced_subgraph(g, keep)
    fresh = EdgeLabelledGraph(
        sorted(keep), [(u, v, d) for u, v, d in g.edges() if u in keep and v in keep]
    )
    assert sub == fresh
    assert sub.vertices == fresh.vertices
    assert sub.edges() == fresh.edges()
    assert sub.edge_count == fresh.edge_count
    assert sub.spectrum() == fresh.spectrum()


# -- check_map ----------------------------------------------------------------


def test_check_map_modes_differ_on_reflection(path2):
    target = complete_graph({("a", "b"): 1, ("b", "c"): 2, ("a", "c"): 3})
    f = PartialMap({"x": "a", "y": "b", "z": "c"})
    # x~z is a non-edge in the path but an edge in the target
    assert not check_map(f, path2, target)


def test_check_map_automorphism_mode(t112):
    swap = PartialMap({"x": "x", "y": "z", "z": "y"})
    assert check_map(swap, t112, t112)
    rotate = PartialMap({"x": "y", "y": "z", "z": "x"})
    assert not check_map(rotate, t112, t112)


def test_check_map_preconditions_raise(t112, t113):
    partial = PartialMap({"x": "x"})
    with pytest.raises(InvalidMap):
        check_map(partial, t112, t112)
    # a total map into another graph is a verdict, not a misuse
    assert not check_map(PartialMap.identity(t112.vertices), t112, t113)


def test_is_partial_automorphism_respects_non_edges(path2):
    assert is_partial_automorphism(PartialMap({"x": "z"}), path2)
    # d(x,y)=1 but d(z,y)=2
    assert not is_partial_automorphism(PartialMap({"x": "z", "y": "y"}), path2)
    # non-edge (x,z) against edge (x,y)
    assert not is_partial_automorphism(PartialMap({"x": "x", "z": "y"}), path2)


def test_no_module_changes_a_graph_after_it_is_set():
    # a graph is immutable, so graphs may share their id tuples and code
    # matrices: only EdgeLabelledGraph._set writes these attributes
    held = {"vertices", "codes", "edge_count", "_spectrum", "_index"}
    writes = []
    for path in sorted(pathlib.Path(eppa.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "graphs.py":
            cls = next(n for n in tree.body
                       if isinstance(n, ast.ClassDef) and n.name == "EdgeLabelledGraph")
            setter = next(n for n in cls.body
                          if isinstance(n, ast.FunctionDef) and n.name == "_set")
            allowed = {id(n) for n in ast.walk(setter)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in held
                    and isinstance(node.ctx, (ast.Store, ast.Del)) and id(node) not in allowed):
                writes.append(f"{path.name}:{node.lineno}")
    assert writes == []


# -- enumeration --------------------------------------------------------------


def test_enumerate_partial_automorphisms_k2(k2):
    maps = list(enumerate_partial_automorphisms(k2, 2))
    assert maps[0] == PartialMap({})
    assert len(maps) == 7
    assert PartialMap({"a": "b", "b": "a"}) in maps
    assert len(list(enumerate_partial_automorphisms(k2, 0))) == 1
    with pytest.raises(ValueError):
        list(enumerate_partial_automorphisms(k2, -1))


def test_enumerate_partial_automorphisms_counts(t112, t123, four_point):
    assert len(list(enumerate_partial_automorphisms(t112, 3))) == 22
    assert len(list(enumerate_partial_automorphisms(t123, 3))) == 17
    assert len(list(enumerate_partial_automorphisms(four_point, 4))) == 97


@settings(max_examples=40, deadline=None)
@given(edge_labelled_graphs(max_vertices=4))
def test_enumerated_maps_are_partial_automorphisms(g):
    maps = list(enumerate_partial_automorphisms(g, 2))
    assert maps[0] == PartialMap({})
    for f in maps:
        assert is_partial_automorphism(f, g)
    # and the enumeration is complete for singleton domains
    singles = {f.items() for f in maps if len(f) == 1}
    assert len(singles) == len(g) ** 2


def reference_enumerate_partial_automorphisms(
    g: EdgeLabelledGraph, max_domain_size: int
) -> Iterator[PartialMap]:
    """A depth-first enumerator, independent of the package's: by domain
    size, then domain tuple, then image tuple, all lexicographic, the empty
    map first.  Each image is tried only where it keeps the labels to the
    points placed before it."""
    if max_domain_size < 0:
        raise ValueError("max_domain_size must be >= 0")
    yield PartialMap(())
    verts = g.vertices
    rows = g.codes.tolist()
    top = min(max_domain_size, len(verts))
    for m in range(1, top + 1):
        for dom in itertools.combinations(range(len(verts)), m):
            assigned: list[int] = []

            def extend(pos: int) -> Iterator[PartialMap]:
                if pos == m:
                    yield PartialMap((verts[u], verts[v]) for u, v in zip(dom, assigned))
                    return
                row = rows[dom[pos]]
                for cand in range(len(verts)):
                    if cand in assigned:
                        continue
                    cand_row = rows[cand]
                    if all(row[dom[j]] == cand_row[assigned[j]] for j in range(pos)):
                        assigned.append(cand)
                        yield from extend(pos + 1)
                        assigned.pop()

            yield from extend(0)


def same_maps(got, want) -> bool:
    return [f.items() for f in got] == [f.items() for f in want]


@pytest.mark.parametrize("name,g", small_corpus(), ids=[name for name, _ in small_corpus()])
def test_the_enumerator_matches_the_reference(name, g):
    # the corpus holds the four fixture inputs; the random graphs below also
    # take bounds under and over their size
    assert same_maps(enumerate_partial_automorphisms(g, len(g)),
                     reference_enumerate_partial_automorphisms(g, len(g)))


@settings(max_examples=40, deadline=None)
@given(edge_labelled_graphs(max_vertices=5), st.integers(0, 6))
def test_the_enumerator_matches_the_reference_on_random_graphs(g, bound):
    assert same_maps(enumerate_partial_automorphisms(g, bound),
                     reference_enumerate_partial_automorphisms(g, bound))


def test_the_enumerator_with_a_pool_matches_the_reference(t112_witness):
    # the maps of the copy in the final space, as criterion 1 extends them,
    # are the maps of the subgraph the copy induces
    w = t112_witness
    copy = w.final_embedding.image()
    got = list(enumerate_partial_automorphisms(w.final, len(copy), copy))
    assert len(got) == 22
    assert same_maps(got, reference_enumerate_partial_automorphisms(
        induced_subgraph(w.final, copy), len(copy)))


def test_the_enumerator_refuses_a_negative_bound_and_an_unknown_pool_vertex(t112):
    with pytest.raises(ValueError, match="max_domain_size must be >= 0"):
        list(enumerate_partial_automorphisms(t112, -1))
    with pytest.raises(UnknownVertex, match="unknown vertex 'w'"):
        list(enumerate_partial_automorphisms(t112, 2, ["x", "w"]))
