"""End-to-end construction and extension replay."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import importlib.util
import itertools
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from eppa import (
    GraphFormatError,
    InvalidMap,
    NotAMetricSpace,
    PartialMap,
    VertexCapExceeded,
    Witness,
    build_eppa_graph,
    build_set_assignment,
    build_witness,
    check_map,
    compute_N,
    cross_check,
    enumerate_partial_automorphisms,
    extend_by_permutation,
    extend_isometry,
    graph_from_triples,
    shortest_path_completion,
    witness_stats,
)
from eppa import pipeline, setrep
from eppa.fileio import dump_json, witness_from_json, witness_to_json
from eppa.graphs import EdgeLabelledGraph, induced_subgraph
from eppa.levels import LevelGraph, level_vertex_id
from eppa.setrep import SetAssignment

from conftest import (
    bent_classes, make_k2, make_t112, make_t123, make_four_point, point_pairs,
    tau_on_empty_positions,
)


SINGLE = graph_from_triples(["only"], [])
T133 = graph_from_triples(
    ["x", "y", "z"], [("x", "y", 1), ("x", "z", 3), ("y", "z", 3)]
)


# -- tower height ----------------------------------------------------------------


@pytest.mark.parametrize(
    "g,expected",
    [
        (SINGLE, 2),
        (make_k2(), 2),
        (make_t112(), 3),
        (make_t123(), 4),
        (make_four_point(), 3),
        (T133, 4),
    ],
)
def test_tower_height_is_distance_ratio_plus_one(g, expected):
    assert compute_N(g) == expected


# -- small witnesses --------------------------------------------------------------


def test_two_point_witness_is_a_unit_triangle(k2_witness):
    w = k2_witness
    assert w.n == 2
    assert len(w.levels) == 1
    assert w.levels[0].level == 2
    assert len(w.final) == 3
    assert w.final.is_complete()
    assert w.final.spectrum() == (1,)
    assert w.final.vertices == w.levels[0].graph.vertices
    # the copy keeps its distance
    emb = w.final_embedding
    assert w.final.label(emb["a"], emb["b"]) == 1


def test_single_point_witness_is_itself():
    w = build_witness(SINGLE)
    assert w.levels == ()
    assert w.set_assignment is None
    assert w.final == SINGLE
    assert w.n == 2
    theta = extend_isometry(w, PartialMap({}))
    assert theta.is_identity()
    assert extend_isometry(w, PartialMap({"only": "only"})) == theta


def test_three_point_witness_shape(t112_witness):
    w = t112_witness
    assert w.n == 3
    # no bad 3-set in the subset graph, so level 3 is B0 renamed and not stored
    assert [lvl.level for lvl in w.levels] == [2]
    assert len(w.levels[0].graph) == 70
    assert w.final.vertices == w.levels[0].graph.vertices
    assert len(w.final) == 70
    assert w.final.is_complete()
    emb = w.final_embedding
    for u, v, d in w.input.edges():
        assert w.final.label(emb[u], emb[v]) == d


# -- the tower decided on B0 -----------------------------------------------------------

# sha256 of the witness file as `dump_json` writes it, in the eppa-witness/7
# format, which stores the input and B0's code string alone
TOWER_DIGESTS = {
    (1, 3, 3): "c2897b3086ef492b4d86e625aed11deb729c9583ff7379813f9eceb7e12ade5b",
    (2, 5, 5): "f8f8054a0c350a1561c696c7608c2a8d19d8ba85b64bd9b1d6463d2be203aed3",
}


def witness_digest(w, tmp_path) -> str:
    path = tmp_path / "w.json"
    dump_json(str(path), witness_to_json(w))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("labels", sorted(TOWER_DIGESTS), ids=str)
def test_clean_tower_levels_are_copies_of_b0(labels, tmp_path, monkeypatch):
    # B0 has no bad set of any size, so no level runs the general expansion,
    # and every level above B0 is B0 renamed: none is stored
    def refuse(*args, **kwargs):
        raise AssertionError("a clean level went through build_next_level")

    monkeypatch.setattr(pipeline, "build_next_level", refuse)
    a = graph_from_triples(
        ["x", "y", "z"], [("x", "y", labels[0]), ("x", "z", labels[1]), ("y", "z", labels[2])]
    )
    w = build_witness(a)
    assert compute_N(a) == w.n >= 3
    assert [(lvl.level, len(lvl.graph), lvl.bad_sets) for lvl in w.levels] == [(2, 252, ())]
    assert w.final.vertices == w.levels[0].graph.vertices
    assert witness_digest(w, tmp_path) == TOWER_DIGESTS[labels]


def test_unbuildable_tower_is_refused_before_any_level_is_listed(monkeypatch):
    # (1,4,4): level 3 is a copy; at level 4 each of the 252 vertices lies
    # in at least the 100 bad sets whose long edge it carries
    def refuse(*args, **kwargs):
        raise AssertionError("B0 was built before the cap check")

    monkeypatch.setattr(pipeline, "build_eppa_graph", refuse)
    monkeypatch.setattr(pipeline, "build_next_level", refuse)
    a = graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("x", "z", 4), ("y", "z", 4)])
    with pytest.raises(VertexCapExceeded) as exc:
        build_witness(a)
    assert (exc.value.needed, exc.value.exponent, exc.value.cap) == (252, 100, 200_000)
    assert exc.value.at_least
    assert "level 4 (valuation expansion): needs at least 252 * 2^100 vertices" in str(exc.value)


def test_a_wrong_clean_verdict_cannot_pass(monkeypatch):
    # told that (1,4,4) has no bad level, the build stores B0 alone; its
    # completion shortens the copy's label-4 edges to three unit steps
    monkeypatch.setattr(pipeline, "first_bad_level", lambda sa, n: None)
    a = graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("x", "z", 4), ("y", "z", 4)])
    with pytest.raises(NotAMetricSpace, match="construction broke the copy"):
        build_witness(a)
    # and the witness it would have returned fails the verifier's own check
    b0, emb = build_eppa_graph(build_set_assignment(a))
    base = LevelGraph(graph=b0, level=2, base_embedding=emb, bad_sets=())
    w = Witness(input=a, set_assignment=build_set_assignment(a), levels=(base,),
                final=shortest_path_completion(b0), n=compute_N(a))
    report = cross_check(w, search_limit=0)
    assert any(r.name == "top-level-no-bad-cycles" and not r.passed and not r.skipped
               for r in report.results)


# -- the extension property --------------------------------------------------------


def assert_extension(w, phi):
    theta = extend_isometry(w, phi)
    assert sorted(theta.domain()) == sorted(w.final.vertices)
    assert check_map(theta, w.final, w.final)
    emb = w.final_embedding
    assert all(theta[emb[x]] == emb[phi[x]] for x in phi.domain())
    return theta


def test_every_partial_isometry_extends_two_point(k2_witness):
    maps = list(enumerate_partial_automorphisms(k2_witness.input, 2))
    assert len(maps) == 7
    for phi in maps:
        assert_extension(k2_witness, phi)


def test_every_partial_isometry_extends_three_point(t112_witness):
    maps = list(enumerate_partial_automorphisms(t112_witness.input, 3))
    assert len(maps) == 22
    for phi in maps:
        assert_extension(t112_witness, phi)


def test_non_coherent_extensions_are_still_isometries(k2_witness, monkeypatch):
    # the incoherent control operator breaks composition, not the extensions
    w = k2_witness
    empty = PartialMap({})
    monkeypatch.setattr(pipeline, "extend_by_permutation", tau_on_empty_positions)
    for phi in enumerate_partial_automorphisms(w.input, 2):
        theta = assert_extension(w, phi)
        assert theta.is_identity() == (phi != empty and phi.is_identity())


def test_input_and_final_forms_agree(k2_witness):
    w = k2_witness
    emb = w.final_embedding
    swap = PartialMap({"a": "b", "b": "a"})
    swap_final = PartialMap({emb["a"]: emb["b"], emb["b"]: emb["a"]})
    assert extend_isometry(w, swap) == extend_isometry(w, swap_final)


def test_extend_isometry_names_the_replayed_positions(k2_witness, t112_witness):
    # replay_positions is the operator; extend_isometry only names its result
    for w in (k2_witness, t112_witness):
        verts = w.final.vertices
        maps = list(enumerate_partial_automorphisms(w.input, len(w.input)))
        perms = pipeline.replay_positions(w, maps)
        assert perms.shape == (len(maps), len(verts))
        for phi, perm in zip(maps, perms):
            assert sorted(perm.tolist()) == list(range(len(verts)))
            named = PartialMap(zip(verts, map(verts.__getitem__, perm.tolist())))
            assert extend_isometry(w, phi) == named


# -- rejected inputs ----------------------------------------------------------------


def test_rejects_non_metric_input(t113):
    with pytest.raises(NotAMetricSpace):
        build_witness(t113)


def test_final_metric_check_reads_the_completed_labels(monkeypatch):
    # class distances that keep every distance of the copy but break the
    # triangle inequality elsewhere must be caught by the final check: on
    # J(8, 4), subsets sharing 3 tokens are joined by no label of (1,1,2)
    a = make_t112()
    bent = bent_classes(a, 3, 100 * build_set_assignment(a).classes.scale)
    monkeypatch.setattr(SetAssignment, "classes", property(lambda sa: bent))
    with pytest.raises(NotAMetricSpace, match="completion failed"):
        build_witness(a)


@pytest.mark.parametrize("make", [make_k2, make_t112, make_t123, make_four_point],
                         ids=["k2", "t112", "t123", "four-point"])
def test_the_class_walks_run_once_per_build_and_per_load(make, monkeypatch):
    # the tower decision, the final space and its metric check read one
    # class table per set assignment
    calls = []
    real = setrep._class_walks
    monkeypatch.setattr(setrep, "_class_walks", lambda *args: calls.append(args) or real(*args))
    w = build_witness(make())
    assert len(calls) == 1
    witness_from_json(witness_to_json(w))
    assert len(calls) == 2


def test_a_tower_level_without_bad_sets_is_not_stored(monkeypatch):
    # the tower loop on (1,1,2), n = 3, told that level 3 has bad sets: it
    # expands B0 once, at size 3, finds none, and stores nothing
    a = make_t112()
    want = witness_to_json(build_witness(a))
    sizes = []
    real = pipeline.build_next_level
    monkeypatch.setattr(pipeline, "first_bad_level", lambda sa, n: (3, 0))
    monkeypatch.setattr(pipeline, "build_next_level",
                        lambda prev, size, **kw: sizes.append(size) or real(prev, size, **kw))
    assert witness_to_json(build_witness(a)) == want
    assert sizes == [3]


def test_rejects_empty_and_reserved_names():
    with pytest.raises(GraphFormatError):
        build_witness(EdgeLabelledGraph([], []))
    sneaky = EdgeLabelledGraph(["a;1", "b"], [("a;1", "b", 1)])
    with pytest.raises(GraphFormatError):
        build_witness(sneaky)


def test_rejects_foreign_and_non_preserving_maps(k2_witness, t112_witness):
    with pytest.raises(InvalidMap):
        extend_isometry(k2_witness, PartialMap({"q": "q"}))
    # d(y, z) = 2 but d(x, y) = 1, so y -> x, z -> y shrinks a distance
    with pytest.raises(InvalidMap):
        extend_isometry(t112_witness, PartialMap({"y": "x", "z": "y"}))


def refused(error, message):
    """pytest.raises for exactly this type and this whole message."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")


def test_every_refusal_of_the_replay_keeps_its_type_and_message(k2_witness, t112_witness):
    w = t112_witness
    emb = w.final_embedding
    # a map on final ids is read as the map on input names it images
    swap = PartialMap({"y": "z", "z": "y"})
    on_final = PartialMap({emb["y"]: emb["z"], emb["z"]: emb["y"]})
    assert extend_isometry(w, on_final) == extend_isometry(w, swap)
    assert np.array_equal(pipeline.replay_positions(w, [on_final, swap]),
                          pipeline.replay_positions(w, [swap, swap]))
    # a level-free witness whose final space lacks the copy of b
    cut = dataclasses.replace(k2_witness, levels=(), final=EdgeLabelledGraph(["a"]))
    neither = "map must live on the input vertices or on the embedded copy in the result"
    cases = [
        (w, PartialMap({"y": emb["z"]}), neither),  # mixed names
        (w, PartialMap({"q": "q"}), neither),
        # d(y, z) = 2 but d(x, y) = 1
        (w, PartialMap({"y": "x", "z": "y"}), "map does not preserve distances on its domain"),
        (w, PartialMap({emb["y"]: emb["x"], emb["z"]: emb["y"]}),
         "map does not preserve distances on its domain"),
        (cut, PartialMap({"b": "b"}), "extension does not agree with the requested map"),
        (dataclasses.replace(w, set_assignment=None), PartialMap({}),
         "witness carries no set assignment; cannot replay extensions"),
    ]
    for witness, phi, message in cases:
        with refused(InvalidMap, message):
            extend_isometry(witness, phi)
        # a batch raises what its failing map raises alone
        with refused(InvalidMap, message):
            pipeline.replay_positions(witness, [PartialMap({}), phi])


def test_extend_by_permutation_refuses_a_non_isometry(t112):
    # d(y, z) = 2 but d(x, y) = 1; names are looked up before the kernel,
    # and `test_every_refusal_of_the_replay_keeps_its_type_and_message` pins those
    sa = build_set_assignment(t112)
    with refused(InvalidMap, "map does not preserve distances on its domain"):
        extend_by_permutation(sa, point_pairs(sa, PartialMap({"y": "x", "z": "y"})))


def test_extend_checks_the_identity_of_a_level_free_witness(k2_witness):
    # a two-point witness without levels (no file holds one): its final
    # space is the input, with the identity as the copy, so the swap of a
    # and b has no extension there (the identity does not extend it)
    w = dataclasses.replace(k2_witness, levels=(), final=make_k2())
    with pytest.raises(InvalidMap, match="does not agree with the requested map"):
        extend_isometry(w, PartialMap({"a": "b", "b": "a"}))
    assert extend_isometry(w, PartialMap({"a": "a"})) == PartialMap({"a": "a", "b": "b"})


def test_a_b0_with_renamed_ids_is_refused(t112_witness):
    # one subset off the copy renamed, in B0 and in the final space alike:
    # the graphs keep their shape, but B0 is no longer the set assignment's
    w = t112_witness
    base = w.levels[0]
    old = next(v for v in reversed(base.graph.vertices) if v not in base.base_embedding.image())
    rename = {old: old[:-1] + "'}"}

    def renamed(g):
        return EdgeLabelledGraph([rename.get(v, v) for v in g.vertices],
                                 [(rename.get(u, u), rename.get(v, v), d) for u, v, d in g.edges()])

    bent = dataclasses.replace(
        w, levels=(dataclasses.replace(base, graph=renamed(base.graph)),), final=renamed(w.final)
    )
    with pytest.raises(InvalidMap, match="not the k-subsets of the set assignment's tokens"):
        extend_isometry(bent, PartialMap({"y": "z", "z": "y"}))
    failed = {r.name for r in cross_check(bent, search_limit=0).results if not r.passed}
    assert {"subset-vertices", "extension-replay"} <= failed
    # a file stores B0's codes alone, and its loader derives the set
    # assignment's ids, so the writer refuses other ones
    with pytest.raises(GraphFormatError, match="B0's vertices must be the k-subsets"):
        witness_to_json(bent)
    # and with that subset missing from B0, which is then smaller than the table
    short = dataclasses.replace(w, levels=(dataclasses.replace(
        base, graph=induced_subgraph(base.graph, set(base.graph.vertices) - {old})),))
    with pytest.raises(InvalidMap, match="not the k-subsets of the set assignment's tokens"):
        extend_isometry(short, PartialMap({"y": "z", "z": "y"}))


def test_a_stored_level_is_replayed_through_the_lift(monkeypatch):
    # T133's B0 is clean, so the build stores no level above it.  Level 3
    # stored by hand has no bad set: each vertex is its B0 vertex with no
    # bits (the id gains a ";"), so the lift must move the copies as the subset permutation
    # moves B0, and every extension goes through compute_flip_set and
    # lift_automorphism instead of acting on the final space directly.
    w = build_witness(T133)
    base = w.levels[0]
    copy = {v: level_vertex_id(v, ()) for v in base.graph.vertices}
    top = LevelGraph(
        graph=EdgeLabelledGraph(copy.values(), [(copy[u], copy[v], d) for u, v, d in base.graph.edges()]),
        level=3,
        base_embedding=PartialMap({x: copy[u] for x, u in base.base_embedding.items()}),
        bad_sets=(),
    )
    tower = dataclasses.replace(w, levels=(base, top), final=shortest_path_completion(top.graph))
    calls = {"compute_flip_set": 0, "lift_automorphism": 0}

    def counted(name):
        real = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counted(name))
    maps = list(enumerate_partial_automorphisms(T133, len(T133)))
    for phi in maps:
        lifted, direct = extend_isometry(tower, phi), extend_isometry(w, phi)
        assert {u: lifted[u + ";"] for u in base.graph.vertices} == {
            u: direct[u] + ";" for u in base.graph.vertices}
    assert calls == {"compute_flip_set": len(maps), "lift_automorphism": len(maps)}
    # a batch is lifted map by map, each row as in the batch of one
    batch = pipeline.replay_positions(tower, maps)
    assert [row.tolist() for row in batch] == [
        pipeline.replay_positions(tower, [phi])[0].tolist() for phi in maps]

    # a witness file stores B0 alone, so the writer refuses such a tower
    with pytest.raises(GraphFormatError, match="stores B0 alone, not 2 levels"):
        witness_to_json(tower)


# -- stats ---------------------------------------------------------------------------


def test_witness_stats_shape(t112_witness):
    stats = witness_stats(t112_witness)
    assert stats["input_vertices"] == 3
    assert stats["input_edges"] == 3
    assert stats["spectrum"] == ["1", "2"]
    assert stats["tower_height"] == 3
    assert stats["token_universe"] == 8
    assert stats["subset_size"] == 4
    assert stats["final_vertices"] == 70
    assert stats["final_edges"] == 70 * 69 // 2
    assert [(lvl["level"], lvl["vertices"]) for lvl in stats["levels"]] == [(2, 70)]  # B0 alone
    assert stats["levels"][0]["edges"] == 1820
    assert all(lvl["max_bad_sets_per_vertex"] == 0 for lvl in stats["levels"])


def test_witness_stats_without_assignment():
    stats = witness_stats(build_witness(SINGLE))
    assert "token_universe" not in stats
    assert stats["levels"] == []
    assert stats["tower_height"] == 2


# -- exhaustive tiny spaces -----------------------------------------------------------


def tiny_spaces():
    """Every metric space on at most 3 points with distances in {1, 2}."""
    out = [SINGLE]
    for d in (1, 2):
        out.append(graph_from_triples(["a", "b"], [("a", "b", d)]))
    for d1, d2, d3 in itertools.product((1, 2), repeat=3):
        if max(d1, d2, d3) <= min(d1, d2, d3) * 2:
            out.append(
                graph_from_triples(
                    ["a", "b", "c"],
                    [("a", "b", d1), ("a", "c", d2), ("b", "c", d3)],
                )
            )
    return out


def test_every_tiny_space_gets_full_extension_property():
    spaces = tiny_spaces()
    assert len(spaces) == 11  # 1 single + 2 pairs + all 8 triangles
    for g in spaces:
        w = build_witness(g)
        for phi in enumerate_partial_automorphisms(g, len(g)):
            assert_extension(w, phi)


# -- the names the benchmark traces ---------------------------------------------------


def test_every_traced_name_resolves(monkeypatch):
    # perfbench wraps these functions by name, and only its traced runs look
    # them up: a rename or a deletion here would break nothing else
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{mod}.{name}" for mod, name in tracing.TRACED
               if not hasattr(importlib.import_module(f"eppa.{mod}"), name)]
    assert missing == []
