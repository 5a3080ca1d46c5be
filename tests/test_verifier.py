"""Brute-force verifier: search, oracle agreement, and witness cross-checks."""

from __future__ import annotations

import ast
import dataclasses
import math
import re
from fractions import Fraction
from itertools import chain, combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppa import verifier
from eppa import (
    BudgetExhausted,
    CycleWitness,
    LevelGraph,
    PartialMap,
    UnknownVertex,
    Witness,
    build_eppa_graph,
    build_next_level,
    build_set_assignment,
    build_witness,
    cross_check,
    enumerate_partial_automorphisms,
    extend_isometry,
    graph_from_triples,
    induced_subgraph,
    naive_extension_exists,
    search_extension,
    shortest_path_completion,
    verify_eppa,
)
from eppa.errors import InvalidMap
from eppa.fileio import report_to_json
from eppa.graphs import EdgeLabelledGraph
from eppa.pipeline import final_space
from eppa.setrep import parse_subset_id, token_sort_key
from eppa.verifier import _label_matrix
from conftest import connected_graphs, make_four_point, small_corpus, small_tower_free_spaces


# -- extension search -----------------------------------------------------------


def test_search_finds_lexicographically_least(t112):
    assert search_extension(t112, PartialMap({})).is_identity()
    got = search_extension(t112, PartialMap({"y": "z"}))
    assert got == PartialMap({"x": "x", "y": "z", "z": "y"})


def test_search_respects_impossible_targets(path2):
    # x has a distance-1 neighbour, z only a distance-2 one
    assert search_extension(path2, PartialMap({"x": "z"})) is None
    assert not naive_extension_exists(path2, PartialMap({"x": "z"}))


def test_search_rejects_non_preserving_seed(t112):
    assert search_extension(t112, PartialMap({"y": "x", "z": "y"})) is None


def test_search_rejects_unknown_vertices(t112):
    with pytest.raises(UnknownVertex):
        search_extension(t112, PartialMap({"q": "x"}))
    with pytest.raises(UnknownVertex):
        search_extension(t112, PartialMap({"x": "q"}))


def test_search_budget_is_enforced(t112):
    with pytest.raises(BudgetExhausted):
        search_extension(t112, PartialMap({}), budget=1)


@pytest.mark.parametrize("fixture", ["t112", "t113", "t112_witness"])
def test_the_budget_runs_out_one_assignment_before_the_count(request, fixture):
    # a search that attempts `spent` assignments returns under a budget of
    # `spent` and raises under one less
    g = request.getfixturevalue(fixture)
    if fixture == "t112_witness":  # the maps cross_check searches
        g, pool = g.final, g.final_embedding.image()
    else:
        pool = g.vertices
    rows = verifier._label_rows(g)
    masks = verifier._label_masks(rows)
    total = 0
    for phi in enumerate_partial_automorphisms(g, len(pool), pool):
        found, spent = verifier._search_extension(g, rows, masks, phi, 10_000_000)
        assert search_extension(g, phi, budget=spent) == found
        if spent:
            with pytest.raises(BudgetExhausted):
                search_extension(g, phi, budget=spent - 1)
        total += spent
    assert total == {"t112": 19, "t113": 19, "t112_witness": 1505}[fixture]


def test_cross_check_counts_the_search_assignments(k2_witness, t112_witness):
    # pinned: these counts move with the search order or the budget rule;
    # cross_check searches none of these witnesses, whose replay passes
    t111 = build_witness(graph_from_triples(
        ["x", "y", "z"], [("x", "y", 1), ("x", "z", 1), ("y", "z", 1)]))
    witnesses = (k2_witness, t111, t112_witness)
    got = [verify_eppa(w.final, w.final_embedding.image()).totals["search_assignments"]
           for w in witnesses]
    assert got == [13, 617, 1505]
    for w in witnesses:
        totals = cross_check(w).totals
        assert "search_assignments" not in totals and "partial_maps_searched" not in totals


def test_search_agrees_with_naive_oracle(t113):
    maps = list(enumerate_partial_automorphisms(t113, 3))
    assert len(maps) == 22
    for phi in maps:
        found = search_extension(t113, phi)
        assert (found is not None) == naive_extension_exists(t113, phi)
        if found is not None:
            assert found.extends(phi)


def least_extension(b, phi):
    """The first total isometry of b extending phi among all vertex
    permutations in lexicographic order (factorial; tiny graphs only)."""
    verts = b.vertices
    for perm in permutations(verts):
        f = dict(zip(verts, perm))
        if any(f[u] != img for u, img in phi.items()):
            continue
        if all(b.label(u, v) == b.label(f[u], f[v]) for u, v in combinations(verts, 2)):
            return PartialMap(f)
    return None


SMALL = [(name, g) for name, g in small_corpus() if 1 < len(g) <= 6]


@pytest.mark.parametrize("name,g", SMALL, ids=[name for name, _ in SMALL])
def test_search_returns_the_least_extension(name, g):
    sizes = set()
    for phi in enumerate_partial_automorphisms(g, len(g)):
        assert search_extension(g, phi) == least_extension(g, phi), dict(phi.items())
        sizes.add(len(phi))
    assert sizes == set(range(len(g) + 1))


@pytest.mark.parametrize("name,g", SMALL, ids=[name for name, _ in SMALL])
def test_candidate_sets_match_the_plain_filter(name, g):
    # the candidate bit masks, decoded, against a plain filter that compares
    # every pair of vertices at every assigned vertex
    rows = _label_matrix(g)[1].tolist()
    signature = [sorted(row) for row in rows]
    index = {v: i for i, v in enumerate(g.vertices)}
    masks = verifier._label_masks(rows)
    for phi in list(enumerate_partial_automorphisms(g, 3))[:60]:
        assigned = {index[u]: index[w] for u, w in phi.items()}
        want = {
            v: {w for w in range(len(rows))
                if w not in assigned.values() and signature[w] == signature[v]
                and all(rows[v][u] == rows[w][img] for u, img in assigned.items())}
            for v in range(len(rows)) if v not in assigned
        }
        got = verifier._candidate_sets(rows, masks, assigned)
        if got is not None:
            got = {v: {w for w in range(len(rows)) if opts >> w & 1} for v, opts in got.items()}
        assert got == (None if set() in want.values() else want), dict(phi.items())


def test_naive_oracle_refuses_big_graphs():
    big = EdgeLabelledGraph(
        [f"v{i}" for i in range(9)],
        [(f"v{i}", f"v{j}", 1) for i in range(9) for j in range(i + 1, 9)],
    )
    with pytest.raises(ValueError):
        naive_extension_exists(big, PartialMap({}))


# -- verify_eppa -----------------------------------------------------------------


def test_verify_eppa_reports_missing_extensions(t113):
    report = verify_eppa(t113, t113.vertices)
    assert not report.ok
    assert len(report.results) == 22
    assert report.totals["partial_maps"] == 22
    by_name = {r.name: r for r in report.results}
    # the empty map and the identity extend
    assert by_name["extends-0"].passed
    assert by_name["extends-1"].passed  # x -> x
    # x -> y cannot extend: x sits on two short edges, y on a long one
    assert not by_name["extends-2"].passed
    assert by_name["extends-2"].counterexample == PartialMap({"x": "y"})
    failed = [r for r in report.results if not r.passed]
    assert report.totals["extensions_found"] == 22 - len(failed)
    assert "overall: FAIL" in report.summary()


def test_verify_eppa_passes_on_homogeneous_space(k2_witness):
    w = k2_witness
    copy = [w.final_embedding[x] for x in w.input.vertices]
    report = verify_eppa(w.final, copy)
    assert report.ok
    assert report.totals["partial_maps"] == 7
    assert "overall: PASS" in report.summary()


def test_verify_eppa_budget_exhaustion_is_a_skip_not_a_failure(t112):
    report = verify_eppa(t112, t112.vertices, budget=1)
    assert report.budget_exhausted
    assert report.totals["search_assignments"] == 1  # the budget of the map it stopped on
    assert report.ok  # nothing failed, the work just stopped
    assert any(r.skipped for r in report.results)
    assert "search budget exhausted" in report.summary()


def test_verify_eppa_rejects_unknown_copy(t112):
    with pytest.raises(UnknownVertex):
        verify_eppa(t112, ["x", "nope"])


# -- cross_check on honest witnesses ------------------------------------------------


def test_cross_check_two_point(k2_witness):
    report = cross_check(k2_witness)
    assert report.ok
    assert "partial_maps_searched" not in report.totals
    assert report.totals["partial_maps_replayed"] == 7
    assert report.totals.get("level_transitions_checked", 0) == 0
    names = {r.name for r in report.results}
    assert "input-metric" in names
    assert "subset-edge-rule" in names
    assert "final-completion" in names
    assert "extension-replay" in names


def test_cross_check_three_point(t112_witness, demo_witness):
    # the (1,1,2) witness is B0 alone: no level transition to check
    report = cross_check(t112_witness)
    assert report.ok
    assert report.totals.get("level_transitions_checked", 0) == 0
    assert "partial_maps_searched" not in report.totals
    assert report.totals["partial_maps_replayed"] == 22
    assert "top-level-no-bad-cycles" in {r.name for r in report.results}

    report = cross_check(demo_witness)
    assert report.ok
    assert report.totals["level_transitions_checked"] == 1
    names = [r.name for r in report.results]
    assert names[names.index("level-2-no-short-bad-cycles"):names.index("component")] == [
        "level-2-no-short-bad-cycles", "level-3-bad-sets", "level-3-vertices",
        "level-3-edge-rule", "level-3-anchors", "top-level-no-bad-cycles",
    ]


def record_searches(monkeypatch):
    """Patch the verifier's short-cycle search to log (vertices, size)."""
    calls = []
    search = verifier.has_nonmetric_cycle_up_to
    monkeypatch.setattr(verifier, "has_nonmetric_cycle_up_to",
                        lambda g, size, budget, sources: calls.append((len(g), size))
                        or search(g, size, budget=budget, sources=sources))
    return calls


def test_cross_check_searches_each_level_once(t112_witness, demo_witness, monkeypatch):
    # one short-cycle search per stored level proves the levels that are not
    # stored; the construction's bad-set scan is never run
    from eppa import levels

    calls = record_searches(monkeypatch)
    monkeypatch.setattr(levels, "bad_sets", lambda g, size: calls.append(("scan", len(g), size)))
    report = cross_check(t112_witness)
    assert report.ok
    assert calls == [(70, 3)]
    passed = {r.name for r in report.results if r.passed and not r.skipped}
    assert "top-level-no-bad-cycles" in passed
    calls.clear()
    assert cross_check(t112_witness, budget=5_000_000, search_limit=0).ok
    assert calls == [(70, 3)]
    # the demo base needs no search below level 3, which is stored
    calls.clear()
    assert cross_check(demo_witness).ok
    assert calls == [(12, 3)]


def test_exhausted_shared_search_fails_both_checks_as_skipped(demo_witness, cycle4_witness,
                                                              monkeypatch):
    calls = []

    def exhausted(g, size, budget, sources):
        calls.append(size)
        raise BudgetExhausted(f"cycle search budget {budget} exhausted")

    monkeypatch.setattr(verifier, "has_nonmetric_cycle_up_to", exhausted)
    report = cross_check(demo_witness)
    skipped = {r.name: r.detail for r in report.results if r.skipped}
    assert calls == [3]
    assert report.budget_exhausted
    assert list(skipped) == ["top-level-no-bad-cycles"]
    assert "budget 10000000 exhausted" in skipped["top-level-no-bad-cycles"]
    # the bad-set scan does not lean on the search
    assert not failing(report, "level-3-bad-sets")

    calls.clear()
    report = cross_check(cycle4_witness)
    skipped = {r.name: r.detail for r in report.results if r.skipped}
    assert calls == [3, 4]
    assert report.budget_exhausted
    assert list(skipped) == ["level-2-no-short-bad-cycles", "top-level-no-bad-cycles"]
    assert all("budget 10000000 exhausted" in detail for detail in skipped.values())


def test_budget_governs_every_stored_level(cycle4_witness):
    report = cross_check(cycle4_witness, budget=1)
    skipped = {r.name for r in report.results if r.skipped}
    assert report.budget_exhausted
    assert {"level-2-no-short-bad-cycles", "top-level-no-bad-cycles"} <= skipped


def test_cross_check_single_point():
    w = build_witness(graph_from_triples(["p"], []))
    report = cross_check(w)
    assert report.ok
    assert any(r.name == "trivial-tower" and r.passed for r in report.results)


def test_cross_check_skips_search_above_limit(t112_witness):
    report = cross_check(t112_witness, search_limit=10)
    assert report.ok  # skipped checks do not fail the report
    search = next(r for r in report.results if r.name == "extension-property-search")
    assert search.skipped


# -- cross_check catches tampering ---------------------------------------------------


def failing(report, name):
    return [r for r in report.results if r.name == name and not r.passed and not r.skipped]


def test_tampered_final_label_is_caught(k2_witness):
    w = k2_witness
    emb = w.final_embedding
    outside = next(v for v in w.final.vertices if v not in set(emb.image()))
    edges = []
    for u, v, d in w.final.edges():
        if {u, v} == {emb["a"], outside}:
            edges.append((u, v, d + 1))
        else:
            edges.append((u, v, d))
    tampered = dataclasses.replace(w, final=EdgeLabelledGraph(w.final.vertices, edges))
    report = cross_check(tampered)
    assert not report.ok
    pair = tuple(sorted((emb["a"], outside)))
    offenders = failing(report, "final-completion")
    assert offenders and offenders[0].counterexample == pair
    assert not failing(report, "final-metric")

    # one more unit breaks the triangle inequality through the third vertex
    edges = [(u, v, d + 1 if (u, v) == pair else d) for u, v, d in edges]
    report = cross_check(dataclasses.replace(w, final=EdgeLabelledGraph(w.final.vertices, edges)))
    offenders = failing(report, "final-metric")
    assert offenders and set(offenders[0].counterexample[:2]) == set(pair)


def test_a_bent_final_label_on_b0_alone_is_judged_by_the_verifier(t112_witness):
    # the replay checks no isometry on a final space that is all of B0 (its
    # codes are a function of shared-token counts by construction), so a
    # final space bent in memory, on the same vertices, is the verifier's to
    # catch: its own completion check and its own judgement of every map
    w = t112_witness
    copy = set(w.final_embedding.image())
    theta = extend_isometry(w, PartialMap({"y": "z", "z": "y"}))
    u, v = next((u, v) for u, v, _ in w.final.edges()
                if not {u, v} & copy and {theta[u], theta[v]} != {u, v})
    edges = [(x, y, e + 1 if (x, y) == (u, v) else e) for x, y, e in w.final.edges()]
    report = cross_check(dataclasses.replace(w, final=EdgeLabelledGraph(w.final.vertices, edges)))
    assert not report.ok
    for name in ("final-completion", "extension-replay"):
        offenders = failing(report, name)
        assert offenders and offenders[0].counterexample is not None, name


# -- the final checks through one vertex ------------------------------------------------


def explicit_cross_check(w, **kwargs):
    """`cross_check` with every check sweeping from every vertex."""
    with mock.patch.object(verifier, "_sweep_sources", return_value=None):
        return cross_check(w, **kwargs)


def verdicts(report):
    """Each check's name, verdict and counterexample, and its detail without
    the note of the path it took."""
    return [(r.name, r.passed, r.skipped, r.counterexample,
             r.detail.removesuffix(verifier.THROUGH_ONE_VERTEX).removesuffix(", "))
            for r in report.results]


def bend_final(w, pairs, delta):
    """w with `delta` added to the final label of each pair (u, v), u < v."""
    edges = [(u, v, d + delta if (u, v) in pairs else d) for u, v, d in w.final.edges()]
    return dataclasses.replace(w, final=EdgeLabelledGraph(w.final.vertices, edges))


def share_classes(g):
    """g's vertex pairs (u, v), u < v, by the number of tokens their subset
    ids share."""
    tokens = {v: parse_subset_id(v) for v in g.vertices}
    classes = {}
    for u, v in combinations(g.vertices, 2):
        classes.setdefault(len(tokens[u] & tokens[v]), set()).add((u, v))
    return classes


@settings(max_examples=15, deadline=None)
@given(small_tower_free_spaces(), st.data())
def test_the_checks_through_one_vertex_agree_with_the_explicit_ones(sa, data):
    w = build_witness(sa.graph)
    fast = cross_check(w, search_limit=0)
    assert fast.ok and fast.path == verifier.THROUGH_ONE_VERTEX
    assert verdicts(fast) == verdicts(explicit_cross_check(w, search_limit=0))

    # a final space bent at one pair, or across a whole shared-token class,
    # is no completion: both paths fail it alike.  A bent class keeps the
    # final labels a function of the shared-token counts, and so the sweep
    # from vertex 0
    classes = share_classes(w.final)
    whole = data.draw(st.booleans(), label="whole class")
    if whole:
        pairs = classes[data.draw(st.sampled_from(sorted(classes)), label="shared tokens")]
    else:
        pairs = {data.draw(st.sampled_from(sorted(chain.from_iterable(classes.values()))),
                           label="pair")}
    delta = data.draw(st.sampled_from((1, -1)), label="sign") * w.input.spectrum()[0] / 2
    bent = bend_final(w, pairs, delta)
    fast = cross_check(bent, search_limit=0)
    assert fast.path == (verifier.THROUGH_ONE_VERTEX if whole else "explicit")
    assert verdicts(fast) == verdicts(explicit_cross_check(bent, search_limit=0))
    offenders = failing(fast, "final-completion")
    assert offenders and offenders[0].counterexample is not None


@pytest.mark.parametrize("fixture", ["t123", "four_point"])
def test_the_fixtures_pass_through_one_vertex_as_they_pass_explicitly(request, fixture):
    w = build_witness(request.getfixturevalue(fixture))
    fast = cross_check(w, search_limit=0)
    assert fast.ok and fast.path == verifier.THROUGH_ONE_VERTEX
    through = {r.name for r in fast.results if r.detail.endswith(verifier.THROUGH_ONE_VERTEX)}
    assert through == {"final-completion", "final-metric", "top-level-no-bad-cycles"}
    assert verdicts(fast) == verdicts(explicit_cross_check(w, search_limit=0))


def b0_alone(labels, n):
    """A witness storing the B0 of the triangle with these sides alone, with
    tower height n, whether or not B0 has bad sets."""
    a = graph_from_triples(["x", "y", "z"], list(zip("xxy", "yzz", labels)))
    sa = build_set_assignment(a)
    b0, copy = build_eppa_graph(sa)
    level = LevelGraph(graph=b0, level=2, base_embedding=copy, bad_sets=())
    return Witness(input=a, set_assignment=sa, levels=(level,),
                   final=shortest_path_completion(b0), n=n)


@pytest.mark.parametrize("labels,budget,cycle", [
    ((1, 4, 4), 10_000_000, True),   # a bad 4-set: a shorter walk at the second product
    ((1, 4, 4), 300, False),         # the second product passes the budget
    ((1, 3, 3), 200, False),         # no bad set, but the first product passes the budget
], ids=["bad-cycle", "budget-at-the-cycle", "budget-without-a-cycle"])
def test_the_short_cycle_check_hands_a_find_or_the_budget_to_the_explicit_search(
        labels, budget, cycle):
    # each B0 has 252 vertices, so each product costs 252 row sweeps, from
    # vertex 0 as from every vertex; the B0 of (1,4,4) has bad 4-sets, so no
    # build stores it alone
    w = b0_alone(labels, labels[2] + 1)
    fast = cross_check(w, budget=budget, search_limit=0)
    assert fast.path == verifier.THROUGH_ONE_VERTEX
    assert verdicts(fast) == verdicts(explicit_cross_check(w, budget=budget, search_limit=0))
    top = next(r for r in fast.results if r.name == "top-level-no-bad-cycles")
    assert not top.passed and top.skipped != cycle
    assert isinstance(top.counterexample, CycleWitness) == cycle


def test_a_class_consistent_bend_is_caught_by_final_completion(t112_witness):
    # lowering every pair that shares no token by half a unit keeps the
    # final labels a function of the shared-token counts, and a metric:
    # only Bellman's condition at vertex 0 fails, on the class's first pair,
    # as it does from every vertex
    w = t112_witness
    pairs = share_classes(w.final)[0]
    bent = bend_final(w, pairs, Fraction(-1, 2))
    report = cross_check(bent, search_limit=0)
    offenders = failing(report, "final-completion")
    assert offenders and offenders[0].counterexample == min(pairs)
    assert not failing(report, "final-metric")
    assert report.path == verifier.THROUGH_ONE_VERTEX
    assert verdicts(report) == verdicts(explicit_cross_check(bent, search_limit=0))


def test_non_metric_input_is_caught(t112_witness, t113):
    report = cross_check(dataclasses.replace(t112_witness, input=t113), search_limit=0)
    offenders = failing(report, "input-metric")
    assert offenders and offenders[0].counterexample == ("y", "z", "x")


def test_tampered_component_is_caught(t112_witness):
    # the final vertices must be the copy's component in the top level
    w = t112_witness
    emb_image = set(w.final_embedding.image())
    dropped = next(v for v in w.final.vertices if v not in emb_image)
    smaller = induced_subgraph(w.final, [v for v in w.final.vertices if v != dropped])
    report = cross_check(dataclasses.replace(w, final=smaller))
    assert not report.ok
    assert failing(report, "component")

    # a vertex the top level does not have is a failed check, not an exception
    foreign = EdgeLabelledGraph(w.final.vertices + ("nowhere;",), w.final.edges())
    report = cross_check(dataclasses.replace(w, final=foreign), search_limit=0)
    assert not report.ok
    for name in ("component", "final-completion", "extension-replay"):
        assert failing(report, name)


def test_the_completion_check_judges_a_disconnected_top_level():
    # the top level's two edges p-q and r-s are its two components: their
    # completion has no distance across them
    a = graph_from_triples(["a", "b"], [("a", "b", 1)])
    top = graph_from_triples(list("pqrs"), [("p", "q", 1), ("r", "s", 1)])
    level = LevelGraph(graph=top, level=2, base_embedding=PartialMap({"a": "p", "b": "q"}),
                       bad_sets=())
    w = Witness(input=a, set_assignment=None, levels=(level,), final=top, n=2)
    report = cross_check(w, search_limit=0)
    assert not failing(report, "final-completion")
    assert failing(report, "component") and failing(report, "final-metric")

    across = graph_from_triples(list("pqrs"), [("p", "q", 1), ("r", "s", 1), ("p", "r", 2)])
    offenders = failing(cross_check(dataclasses.replace(w, final=across), search_limit=0),
                        "final-completion")
    assert offenders and offenders[0].counterexample == ("p", "r")
    assert offenders[0].detail == "'p' ~ 'r': stored 2, recompleted no path"


def test_tampered_embedding_is_caught(t112_witness):
    # the copy in the final space is the top level's embedding
    w = t112_witness
    emb = dict(w.final_embedding.items())
    emb["x"], emb["y"] = emb["y"], emb["x"]  # d(x,z)=1 but d(y,z)=2
    top = dataclasses.replace(w.levels[-1], base_embedding=PartialMap(emb))
    report = cross_check(dataclasses.replace(w, levels=w.levels[:-1] + (top,)))
    assert not report.ok
    assert failing(report, "copy-distances")


# stored copies of triangle-112 in its B0 (k = 4), each breaking one part of
# the token rule, and the token-assignment detail each gets
TAMPERED_COPIES = {
    "a copy id listing k + 1 tokens": (
        {"x": "{(x,y)#1|(x,z)#1|x!1|x!2|x!3}"}, "copy of 'x' lists 5 tokens, expected 4"),
    "two copy points sharing too many tokens": (
        {"x": "{(x,y)#1|(x,z)#1|(y,z)#1|x!1}"}, "copies of 'x' and 'y' share 2 tokens, expected 1"),
    "a token in three copy sets": (
        {"x": "{(x,y)#1|x!1|x!2|x!3}", "y": "{(x,y)#1|(y,z)#1|y!1|y!2}",
         "z": "{(x,y)#1|(y,z)#1|z!1|z!2}"}, "token '(x,y)#1' lies in 3 copy sets"),
    "a copy id that is not a token subset": (
        {"x": "x"}, "copy of 'x': not a token-subset vertex id: 'x'"),
}


def test_tampered_b0_copy_fails_token_assignment(t112_witness):
    # the verifier reads the token rule off the stored copy ids; the
    # extension search is skipped, since it needs the copy in the final space
    w = t112_witness
    passed = next(r for r in cross_check(w).results if r.name == "token-assignment")
    assert passed.passed and passed.detail == ""
    base = w.levels[0]
    for case, (ids, detail) in TAMPERED_COPIES.items():
        copy = PartialMap({**dict(base.base_embedding.items()), **ids})
        tampered = dataclasses.replace(base, base_embedding=copy)
        report = cross_check(dataclasses.replace(w, levels=(tampered,)), search_limit=0)
        offenders = failing(report, "token-assignment")
        assert offenders and offenders[0].detail == detail, case
        assert failing(report, "subset-embedding"), case


def test_a_copy_outside_the_final_space_is_reported(t112_witness):
    # with the default search limit, the 70-point final space is searched
    # unless the copy fails, and then the search fails without running
    w = t112_witness
    base = w.levels[0]
    copy = PartialMap({**dict(base.base_embedding.items()), "x": "x"})
    tampered = dataclasses.replace(w, levels=(dataclasses.replace(base, base_embedding=copy),))
    report = cross_check(tampered)
    assert failing(report, "copy-distances")
    search = failing(report, "extension-property-search")
    assert search and search[0].detail == "the stored copy fails copy-distances"
    assert "partial_maps_searched" not in report.totals


def t144_witness(n: int) -> Witness:
    """(1,4,4)'s B0 under its completion, stored with tower height n; the
    build refuses (1,4,4), whose height is 5, before B0 exists."""
    a = graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("x", "z", 4), ("y", "z", 4)])
    b0, emb = build_eppa_graph(build_set_assignment(a))
    base = LevelGraph(graph=b0, level=2, base_embedding=emb, bad_sets=())
    return Witness(input=a, set_assignment=build_set_assignment(a), levels=(base,),
                   final=shortest_path_completion(b0), n=n)


def test_a_wrong_tower_height_is_caught():
    # the stored height only bounds the top-level cycle search; the verifier
    # restates it from the input, so a lowered one cannot hide B0's cycles
    for n in (5, 2):
        report = cross_check(t144_witness(n), search_limit=0)
        height = next(r for r in report.results if r.name == "tower-height")
        assert height.passed == (n == 5)
        assert height.detail == f"stored {n}, the input calls for 5"
        top = next(r for r in report.results if r.name == "top-level-no-bad-cycles")
        assert not top.passed and not top.skipped
        assert top.detail.startswith("non-metric cycle on ")


def test_tampered_subset_level_is_caught(t112_witness):
    w = t112_witness
    lvl = w.levels[0]
    u0, v0, d0 = lvl.graph.edges()[0]
    edges = [(u, v, d + 1 if (u, v) == (u0, v0) else d) for u, v, d in lvl.graph.edges()]
    bad_graph = EdgeLabelledGraph(lvl.graph.vertices, edges)
    new_levels = (dataclasses.replace(lvl, graph=bad_graph),) + w.levels[1:]
    report = cross_check(dataclasses.replace(w, levels=new_levels))
    assert not report.ok
    offenders = failing(report, "subset-edge-rule")
    assert offenders and offenders[0].counterexample is not None


def test_edge_rules_name_the_first_differing_pair(t112_witness, demo_witness):
    for w, idx, name in ((t112_witness, 0, "subset-edge-rule"),
                         (demo_witness, 1, "level-3-edge-rule")):
        lvl = w.levels[idx]
        edges = list(lvl.graph.edges())  # vertex order
        # a later bumped label and an earlier missing edge: the missing one is named
        last = len(edges) - 1
        tampered = [(u, v, d + 1 if i == last else d) for i, (u, v, d) in enumerate(edges) if i != 3]
        graph = EdgeLabelledGraph(lvl.graph.vertices, tampered)
        levels = list(w.levels)
        levels[idx] = dataclasses.replace(lvl, graph=graph)
        report = cross_check(dataclasses.replace(w, levels=tuple(levels)), search_limit=0)
        offenders = failing(report, name)
        u, v, d = edges[3]
        assert offenders and offenders[0].counterexample == (u, v)
        assert f"label None, expected {d}" in offenders[0].detail


CYCLE4 = EdgeLabelledGraph(
    ["p", "q", "r", "s"], [("p", "q", 1), ("q", "r", 1), ("r", "s", 1), ("p", "s", 4)]
)


@pytest.fixture(scope="module")
def cycle4_witness(probe):
    """The non-metric 4-cycle p-q-r-s labelled 1,1,1,4 as the base, under
    its level-4 expansion: it has no bad 3-set, so level 3 is not stored."""
    return probe.expansion_witness(CYCLE4, "q", 4, 4)


def test_an_implicit_level_is_proved_on_the_stored_level_below(cycle4_witness, monkeypatch):
    w = cycle4_witness
    base, lvl = w.levels
    assert (base.level, lvl.level, len(lvl.bad_sets), len(lvl.graph)) == (2, 4, 1, 8)
    calls = record_searches(monkeypatch)
    report = cross_check(w)
    assert report.ok
    assert calls == [(4, 3), (8, 4)]  # the base is searched up to size 3
    result = next(r for r in report.results if r.name == "level-2-no-short-bad-cycles")
    assert result.passed and result.detail == "up to 3 vertices"

    # a chord closing the non-metric triangle p, q, r: level 3 would have a
    # bad set, so it could not be left out
    chord = EdgeLabelledGraph(CYCLE4.vertices, list(CYCLE4.edges()) + [("p", "r", 3)])
    tampered = dataclasses.replace(w, levels=(dataclasses.replace(base, graph=chord), lvl))
    offenders = failing(cross_check(tampered, search_limit=0), "level-2-no-short-bad-cycles")
    assert offenders and set(offenders[0].counterexample.vertices) == {"p", "q", "r"}


def test_a_stored_level_without_bad_sets_is_refused(demo_witness):
    base, lvl = demo_witness.levels
    clean = dataclasses.replace(lvl, bad_sets=())
    report = cross_check(dataclasses.replace(demo_witness, levels=(base, clean)), search_limit=0)
    offenders = failing(report, "level-3-bad-sets")
    assert offenders and "no bad sets stored" in offenders[0].detail


def test_tampered_bad_set_list_is_caught(demo_witness):
    w = demo_witness
    base, lvl = w.levels
    assert len(lvl.bad_sets) == 2
    assert cross_check(w).ok
    # p, r, s induce a path, not a cycle
    extra = CycleWitness(("p", "r", "s"), ("p", "s"), Fraction(1))
    for stored in (lvl.bad_sets[1:], lvl.bad_sets + (extra,)):
        tampered = dataclasses.replace(w, levels=(base, dataclasses.replace(lvl, bad_sets=stored)))
        assert failing(cross_check(tampered, search_limit=0), "level-3-bad-sets")


def _renamed(g: EdgeLabelledGraph, old: str, new: str) -> EdgeLabelledGraph:
    rename = {old: new}.get
    return EdgeLabelledGraph([rename(v, v) for v in g.vertices],
                             [(rename(u, u), rename(v, v), d) for u, v, d in g.edges()])


def _with_bad_set(lvl: LevelGraph, **fields) -> LevelGraph:
    """lvl with its first stored bad set changed in the given fields."""
    first = dataclasses.replace(lvl.bad_sets[0], **fields)
    return dataclasses.replace(lvl, bad_sets=(first, *lvl.bad_sets[1:]))


# one edit of a witness per failure detail: (fixture, edit, check, detail)
TAMPERED_DETAILS = {
    "copy-off-a-point": (
        "t112_witness",
        lambda base: (dataclasses.replace(base, base_embedding=PartialMap(
            (x, v) for x, v in base.base_embedding.items() if x != "z")),),
        "token-assignment", "the copy is not defined on exactly the input's vertices"),
    "bad-set-off-the-level": (
        "demo_witness",
        lambda base, lvl: (base, _with_bad_set(
            lvl, vertices=("nowhere", *lvl.bad_sets[0].vertices[1:]))),
        "level-3-bad-sets", "a stored bad set names vertices outside the level below"),
    "deficit-off-by-one": (
        "demo_witness",
        lambda base, lvl: (base, _with_bad_set(lvl, deficit=lvl.bad_sets[0].deficit + 1)),
        "level-3-bad-sets", "stored cycle on ['p', 'q', 'r'] does not check"),
    "no-valuation-id": (
        "demo_witness",
        lambda base, lvl: (base, dataclasses.replace(
            lvl, graph=_renamed(lvl.graph, lvl.graph.vertices[-1], "zzz"))),
        "level-3-edge-rule", "'zzz' is not a valuation vertex id"),
    "valuation-of-no-vertex": (
        "demo_witness",
        lambda base, lvl: (base, dataclasses.replace(
            lvl, graph=_renamed(lvl.graph, lvl.graph.vertices[-1], "zzz;0"))),
        "level-3-edge-rule", "'zzz;0' is not a valuation of a vertex of the level below"),
}


@pytest.mark.parametrize("case", list(TAMPERED_DETAILS))
def test_each_tampered_witness_fails_with_its_detail(request, case):
    # each edit reaches a failure detail of a structural check, in a report
    fixture, edit, name, detail = TAMPERED_DETAILS[case]
    w = request.getfixturevalue(fixture)
    report = cross_check(dataclasses.replace(w, levels=edit(*w.levels)), search_limit=0)
    assert [r.detail for r in failing(report, name)] == [detail]


@pytest.mark.parametrize("below, copy", [("r", "bogus"), ("r", "r;"), ("nowhere", "nowhere;")],
                         ids=["no-valuation", "too-few-bits", "over-no-vertex"])
def test_a_level_copy_that_is_no_valuation_fails_the_anchors(demo_witness, below, copy):
    # the copy of z in level 3: an id that is no `x;bits`, one with fewer
    # bits than bad sets through r, and one over a copy below that is no
    # vertex; each fails the anchor check in a report, not an exception
    base, lvl = demo_witness.levels
    tampered = dataclasses.replace(demo_witness, levels=(
        dataclasses.replace(base, base_embedding=PartialMap({"z": below})),
        dataclasses.replace(lvl, base_embedding=PartialMap({"z": copy}))))
    report = cross_check(tampered, search_limit=0)
    assert failing(report, "level-3-anchors")
    assert not failing(report, "level-3-vertices") and not failing(report, "level-3-edge-rule")


def test_a_copy_on_a_long_edge_carries_the_anchor_bits(demo_witness):
    # two points at distance 3 copied onto the long edge p-q of both bad
    # sets of the demo base: across it p gets 0 and q gets 1, and the copy
    # with the bits swapped fails the anchors
    a = graph_from_triples(["u", "v"], [("u", "v", 3)])
    base = dataclasses.replace(demo_witness.levels[0],
                               base_embedding=PartialMap({"u": "p", "v": "q"}))
    lvl = build_next_level(base, 3)
    assert dict(lvl.base_embedding.items()) == {"u": "p;00", "v": "q;11"}
    w = Witness(input=a, set_assignment=None, levels=(base, lvl),
                final=final_space(a, None, (base, lvl)), n=3)
    swapped = dataclasses.replace(lvl, base_embedding=PartialMap({"u": "p;11", "v": "q;00"}))
    for top, fails in ((lvl, False), (swapped, True)):
        report = cross_check(dataclasses.replace(w, levels=(base, top)), search_limit=0)
        assert bool(failing(report, "level-3-anchors")) == fails


def test_a_level_short_of_a_valuation_fails_the_vertex_check(demo_witness):
    base, lvl = demo_witness.levels
    short = induced_subgraph(lvl.graph, lvl.graph.vertices[:-1])  # without s;1
    report = cross_check(dataclasses.replace(
        demo_witness, levels=(base, dataclasses.replace(lvl, graph=short))), search_limit=0)
    assert [r.detail for r in failing(report, "level-3-vertices")] == [
        "vertex set differs from expansion"]


def test_construction_mutants_are_caught(probe, capsys):
    assert probe.main(["--construction"]) == 0
    out = capsys.readouterr().out
    assert "ESCAPED" not in out
    assert "5/5 exercised construction mutants caught" in out


def test_bad_set_scan_above_its_bound_is_skipped(demo_witness, monkeypatch):
    # the level below has four vertices, so C(4, 3) = 4 vertex sets to scan
    monkeypatch.setattr(verifier, "_BAD_SET_SCAN_LIMIT", 3)
    report = cross_check(demo_witness)
    result = next(r for r in report.results if r.name == "level-3-bad-sets")
    assert result.skipped and not result.passed
    assert "4 vertex sets" in result.detail
    assert report.ok


# -- the replay check judges the operator's output itself ------------------------------


def replay_once(monkeypatch, make):
    """Patch the verifier's batched replay so that the empty map, which
    cross_check replays first, gets the row make(witness, perm) in place of
    its replayed row perm; returns the list of maps asked for, batch after
    batch.  Rows of different lengths are returned as a list, no array."""
    real = verifier.replay_positions
    asked = []

    def replay(witness, phis):
        asked.extend(phis)
        rows = [make(witness, perm) if not len(phi) else perm
                for phi, perm in zip(phis, real(witness, phis))]
        try:
            return np.stack(rows)
        except ValueError:
            return rows

    monkeypatch.setattr(verifier, "replay_positions", replay)
    return asked


def _break_one_label(w, perm):
    """Swap the images of two positions outside the copy that some third
    vertex tells apart; the result is still a permutation extending the map."""
    emb_image = set(w.final_embedding.image())
    verts = w.final.vertices
    free = [i for i, v in enumerate(verts) if v not in emb_image]
    for n, i in enumerate(free):
        for j in free[n + 1:]:
            if any(w.final.label(verts[i], z) != w.final.label(verts[j], z)
                   for z in verts if z not in (verts[i], verts[j])):
                perm = perm.copy()
                perm[[i, j]] = perm[[j, i]]
                return perm
    raise AssertionError("every pair outside the copy is a pair of twins")


def _drop_one_vertex(w, perm):
    """Drop the position of the first vertex outside the copy."""
    emb_image = set(w.final_embedding.image())
    return np.delete(perm, next(i for i, v in enumerate(w.final.vertices) if v not in emb_image))


# The two-point witness's final space is an equilateral triangle, where every
# bijection keeps every label, so only the missing vertex can be planted there.
@pytest.mark.parametrize(
    "fixture,defect",
    [
        ("k2_witness", _drop_one_vertex),
        ("t112_witness", _drop_one_vertex),
        ("t112_witness", _break_one_label),
    ],
    ids=["k2-missing-vertex", "t112-missing-vertex", "t112-broken-label"],
)
def test_replay_rejects_a_defective_extension(request, monkeypatch, fixture, defect):
    w = request.getfixturevalue(fixture)
    asked = replay_once(monkeypatch, defect)
    report = cross_check(w, search_limit=0)
    offenders = failing(report, "extension-replay")
    assert offenders and offenders[0].counterexample == asked[0] == PartialMap({})
    # the first replayed map, the empty one, already fails
    assert report.totals["partial_maps_replayed"] == 1
    assert [r.name for r in report.results if not r.passed] == ["extension-replay"]


def record_gathers(monkeypatch):
    """Patch the label gather to log each permutation it judges."""
    calls = []
    gather = verifier._permutes_labels
    monkeypatch.setattr(verifier, "_permutes_labels",
                        lambda perm, *mats: calls.append(perm) or gather(perm, *mats))
    return calls


def _complement(w, perm):
    """Each k-subset of the final space to its complement, m = 2k."""
    verts = w.final.vertices
    where = {v: i for i, v in enumerate(verts)}
    universe = set(w.set_assignment.universe)
    ids = ("{" + "|".join(sorted(universe - parse_subset_id(v), key=token_sort_key)) + "}"
           for v in verts)
    return np.fromiter(map(where.__getitem__, ids), dtype=np.intp, count=len(verts))


def test_token_induced_replays_are_accepted_without_the_gather(t112_witness, k2_witness,
                                                               monkeypatch):
    # every replayed map of these witnesses comes from a token permutation
    def no_gather(*args):
        raise AssertionError("the label gather ran")

    monkeypatch.setattr(verifier, "_permutes_labels", no_gather)
    for w in (k2_witness, t112_witness):
        report = cross_check(w)
        assert report.ok and report.path == verifier.THROUGH_ONE_VERTEX
        assert report.totals["partial_maps_replayed"] == len(
            list(enumerate_partial_automorphisms(w.input, len(w.input))))


def test_a_permutation_no_token_bijection_induces_goes_to_the_gather(t112_witness, monkeypatch):
    # m = 8 = 2k on the (1,1,2) triangle, so complementing every subset keeps
    # every shared-token count: an automorphism, and a valid extension of the
    # empty map, that no token permutation induces
    w = t112_witness
    m, k = len(w.set_assignment.universe), w.set_assignment.k
    assert m == 2 * k
    asked = replay_once(monkeypatch, _complement)
    gathered = record_gathers(monkeypatch)
    report = cross_check(w)
    assert report.ok and len(asked) == 22
    assert len(gathered) == 1 and gathered[0].tolist() == _complement(w, None).tolist()

    # a swap of two positions that a third vertex tells apart breaks a label
    asked = replay_once(monkeypatch, _break_one_label)
    gathered.clear()
    report = cross_check(w, search_limit=0)
    offenders = failing(report, "extension-replay")
    assert offenders and offenders[0].counterexample == asked[0] == PartialMap({})
    assert offenders[0].detail == "replay failed for {}"
    assert report.totals["partial_maps_replayed"] == 1 and len(gathered) == 1


@pytest.mark.parametrize("defect", [
    lambda perm: perm[:-1],
    lambda perm: np.concatenate([perm, perm[:1]]),
    lambda perm: np.concatenate([perm[:1], perm[:-1]]),
    lambda perm: np.where(perm == perm.max(), len(perm), perm),
    lambda perm: np.where(perm == perm.max(), -1, perm),
    lambda perm: perm.astype(float),
], ids=["short", "long", "repeated", "out-of-range", "negative", "float"])
def test_a_replay_that_is_no_permutation_fails_without_a_traceback(t112_witness, monkeypatch,
                                                                   defect):
    w = t112_witness
    asked = replay_once(monkeypatch, lambda witness, perm: defect(perm))
    report = cross_check(w, search_limit=0)
    offenders = failing(report, "extension-replay")
    assert offenders and offenders[0].counterexample == asked[0] == PartialMap({})
    assert report.totals["partial_maps_replayed"] == 1
    assert [r.name for r in report.results if not r.passed] == ["extension-replay"]


def test_the_search_runs_only_where_the_replay_proves_nothing(t112_witness, demo_witness,
                                                              monkeypatch):
    # a replay that fails one map: the 70-point final space is searched, and
    # the search finds an extension of every partial isometry of the copy
    w = t112_witness
    real = verifier.replay_positions
    maps = list(enumerate_partial_automorphisms(w.input, len(w.input)))
    fifth = maps[4]

    def replay(witness, phis):
        if fifth in phis:
            raise InvalidMap("a planted fault")
        return real(witness, phis)

    monkeypatch.setattr(verifier, "replay_positions", replay)
    report = cross_check(w)
    assert report.totals["partial_maps_searched"] == 22
    assert report.totals["partial_maps_replayed"] == 4
    assert [r.name for r in report.results if not r.passed] == ["extension-replay"]
    replay_result = failing(report, "extension-replay")[0]
    assert replay_result.counterexample == fifth
    assert replay_result.detail.endswith(": a planted fault")
    monkeypatch.undo()

    # the replay passes: the search is proved, not run, and keeps its place
    names = [r.name for r in cross_check(w).results]
    assert names[-3:] == ["copy-distances", "extension-property-search", "extension-replay"]
    search = next(r for r in cross_check(w).results if r.name == "extension-property-search")
    assert search.passed and not search.skipped
    assert search.detail == "every partial isometry replayed"

    # without a set assignment nothing is replayed, and the search runs
    report = cross_check(demo_witness)
    assert report.ok and "partial_maps_replayed" not in report.totals
    assert report.totals["partial_maps_searched"] > 0
    assert report.totals["search_assignments"] > 0



def record_batches(monkeypatch):
    """Patch the verifier's replay to log the size of each batch it asks for."""
    sizes = []
    real = verifier.replay_positions
    monkeypatch.setattr(verifier, "replay_positions",
                        lambda w, phis: sizes.append(len(phis)) or real(w, phis))
    return sizes


def test_one_map_chunks_give_the_same_reports(t112_witness, monkeypatch):
    # triangle-112's 22 maps fit one chunk and four-point's 97 take two;
    # a budget below one map's bytes makes every chunk a batch of one
    four_point = build_witness(make_four_point())
    sizes = record_batches(monkeypatch)
    want = [report_to_json(cross_check(w)) for w in (t112_witness, four_point)]
    assert sizes == [22, 55, 42]
    assert all(r["ok"] for r in want)
    sizes.clear()
    monkeypatch.setattr(verifier, "_REPLAY_CHUNK_BYTES", 1)
    assert [report_to_json(cross_check(w)) for w in (t112_witness, four_point)] == want
    assert sizes == [1] * (22 + 97)


@pytest.mark.parametrize("budget", [None, 1, 3 * 8 * 70 * 8],
                         ids=["one-chunk", "one-map-chunks", "three-map-chunks"])
def test_a_failing_map_is_named_alike_in_any_chunking(t112_witness, monkeypatch, budget):
    # triangle-112 has m = 8 tokens on 70 points
    w = t112_witness
    if budget is not None:
        monkeypatch.setattr(verifier, "_REPLAY_CHUNK_BYTES", budget)
    real = verifier.replay_positions
    maps = list(enumerate_partial_automorphisms(w.input, len(w.input)))
    fifth, seventh = maps[4], maps[6]

    def raising(witness, phis):
        if fifth in phis:
            raise InvalidMap("a planted fault")
        return real(witness, phis)

    def swapping(witness, phis):
        perms = real(witness, phis).copy()
        for j, phi in enumerate(phis):
            if phi == seventh:
                perms[j] = _break_one_label(witness, perms[j])
        return perms

    for replay, bad, replayed, detail in [
        (raising, fifth, 4, f"replay raised for {dict(fifth.items())}: a planted fault"),
        (swapping, seventh, 7, f"replay failed for {dict(seventh.items())}"),
    ]:
        monkeypatch.setattr(verifier, "replay_positions", replay)
        report = cross_check(w, search_limit=0)
        offender = failing(report, "extension-replay")[0]
        assert offender.counterexample == bad and offender.detail == detail
        assert report.totals["partial_maps_replayed"] == replayed


@settings(max_examples=15, deadline=None)
@given(small_tower_free_spaces(), st.data())
def test_a_batched_replay_is_the_stacked_batches_of_one(sa, data):
    w = build_witness(sa.graph)
    maps = list(enumerate_partial_automorphisms(w.input, len(w.input)))
    # any batch: a subset of the maps in any order, repeats allowed
    chosen = data.draw(st.lists(st.sampled_from(maps), max_size=2 * len(maps)), label="batch")
    batch = verifier.replay_positions(w, chosen)
    assert batch.shape == (len(chosen), len(w.final))
    for phi, row in zip(chosen, batch):
        assert np.array_equal(row, verifier.replay_positions(w, [phi])[0])


# -- labels past int64 -----------------------------------------------------------------


def completion_check(top, final):
    """The `final-completion` result of a witness whose one level is `top`
    and whose final space is `final`."""
    level = LevelGraph(graph=top, level=2, base_embedding=PartialMap({}), bad_sets=())
    w = Witness(input=top, set_assignment=None, levels=(level,), final=final, n=2)
    scale = math.lcm(*(d.denominator for g in (top, final) for d in g.spectrum()))
    report = verifier.VerificationReport()
    verifier._check_completion(report, w, scale, _label_matrix(top, scale),
                               _label_matrix(final, scale), None)
    return report.results[0]


def narrowest_type(top: int) -> np.dtype:
    """The narrowest of int8 to int64 that holds `top`, else object."""
    for t in (np.int8, np.int16, np.int32, np.int64):
        if top <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(object)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=6), st.data())
def test_the_completion_check_passes_the_completion_and_names_a_bent_pair(g, data):
    # the factor pushes the labels past int64, onto Python ints; the label
    # matrix holds the sum of two of its entries in the narrowest type
    for factor in (1, 10**19):
        scaled = EdgeLabelledGraph(g.vertices, [(u, v, d * factor) for u, v, d in g.edges()])
        scale = math.lcm(*(d.denominator for d in scaled.spectrum()))
        top = 2 * max(d * scale for d in scaled.spectrum())
        assert _label_matrix(scaled)[1].dtype == narrowest_type(top)
        assert (narrowest_type(top) == object) == (factor > 1)
        final = shortest_path_completion(scaled)
        assert completion_check(scaled, final).passed
        u, v, d = data.draw(st.sampled_from(final.edges()), label="bent pair")
        delta = data.draw(st.sampled_from((Fraction(1, 3), -d / 2)), label="bend")
        edges = [(p, q, e + delta if (p, q) == (u, v) else e) for p, q, e in final.edges()]
        result = completion_check(scaled, EdgeLabelledGraph(final.vertices, edges))
        assert not result.passed and result.counterexample == (u, v)
        assert result.detail == f"{u!r} ~ {v!r}: stored {d + delta}, recompleted {d}"



@pytest.mark.parametrize("bound", [np.iinfo(t).max for t in (np.int8, np.int16, np.int32, np.int64)])
@pytest.mark.parametrize("denominator", [1, 3])
def test_label_matrices_are_exact_at_each_type_boundary(bound, denominator):
    # the largest label whose doubled value the type holds, and one above it,
    # which takes the next type (Python ints past int64)
    for top, wanted in ((bound // 2, narrowest_type(bound)), (bound // 2 + 1, narrowest_type(bound + 1))):
        one, big = Fraction(1, denominator), Fraction(top, denominator)
        g = graph_from_triples(["a", "b", "c", "d"], [("a", "b", big), ("c", "d", one),
                                                      ("a", "c", one)])
        index, mat = _label_matrix(g)
        assert mat.dtype == wanted
        # scaled by the denominator: top and 1, -1 on the three non-edges
        assert index == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert mat.tolist() == [[0, top, 1, -1], [top, 0, -1, -1], [1, -1, 0, 1], [-1, -1, 1, 0]]
        assert all(type(x) is int for x in mat.ravel().tolist())


@pytest.mark.parametrize("m,k", [(3, 1), (6, 3), (8, 4), (10, 5), (17, 3), (300, 299)])
def test_subset_level_counts_are_the_shared_tokens(m, k):
    # (17, 3) packs its tokens into three bytes; at (300, 299) counts pass 255
    sets = [frozenset(f"t{p}" for p in combo) for combo in combinations(range(m), k)]
    shared = verifier._shared_token_counts(verifier._token_incidence(sets))
    assert shared.dtype == np.min_scalar_type(k)
    assert shared.tolist() == [[len(x & y) for y in sets] for x in sets]


@pytest.mark.parametrize("denominator", [1, 3])
def test_labels_past_int64_build_and_verify_exactly(denominator):
    big = Fraction(10**19, denominator)
    a = graph_from_triples(
        ["x", "y", "z"], [("x", "y", big), ("x", "z", big), ("y", "z", 2 * big)]
    )
    w = build_witness(a)
    assert _label_matrix(w.final)[1].dtype == object
    # the extension search compares these labels as Python ints, row by
    # row, and is not what this test is about, so it is skipped to keep the
    # test quick; the final checks sweep from one vertex, and those of the
    # bumped final below, no longer a function of the shared-token counts,
    # from every vertex
    report = cross_check(w, search_limit=0)
    assert report.ok and report.path == verifier.THROUGH_ONE_VERTEX
    assert not failing(report, "final-completion")

    u, v, d = w.final.edges()[0]
    bumped = EdgeLabelledGraph(
        w.final.vertices,
        [(p, q, e + Fraction(1, 10**19) if (p, q) == (u, v) else e)
         for p, q, e in w.final.edges()],
    )
    report = cross_check(dataclasses.replace(w, final=bumped), search_limit=0)
    offenders = failing(report, "final-completion")
    assert offenders and offenders[0].counterexample == (u, v)


def test_the_short_cycle_sweep_through_one_vertex_runs_on_python_ints():
    # (c, 3c, 3c) has a label above twice the smallest, so its sweep runs a
    # product, here on labels past int64
    c = Fraction(10**19, 3)
    w = build_witness(graph_from_triples(["x", "y", "z"], [("x", "y", c), ("x", "z", 3 * c),
                                                           ("y", "z", 3 * c)]))
    assert _label_matrix(w.final)[1].dtype == object
    report = cross_check(w, search_limit=0)
    assert report.ok and report.path == verifier.THROUGH_ONE_VERTEX
    top = next(r for r in report.results if r.name == "top-level-no-bad-cycles")
    assert top.detail == f"up to 4 vertices, {verifier.THROUGH_ONE_VERTEX}"


def test_verifier_imports_only_the_construction_names_it_lists():
    # the module docstring names everything the verifier takes from the
    # construction; any other import would let the construction vouch for itself
    with open(verifier.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").startswith("eppa"))
        and (node.module or "").rpartition(".")[2] != "errors"
        for alias in node.names
    }
    assert not any(isinstance(node, ast.Import) and any(a.name.startswith("eppa") for a in node.names)
                   for node in ast.walk(tree))
    listed = ast.get_docstring(tree).partition("only these names:")[2]
    assert listed, "the module docstring no longer lists the names"
    assert imported == set(re.findall(r"`(\w+)`", listed))
