"""Token sets, the k-subset graph, and one-step extension of partial maps."""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eppa.setrep as setrep
from eppa import pipeline

from eppa import (
    EppaError,
    GraphFormatError,
    InvalidMap,
    NotAMetricSpace,
    PartialMap,
    VertexCapExceeded,
    bad_sets,
    build_eppa_graph,
    build_set_assignment,
    build_witness,
    check_map,
    complete_graph,
    compute_N,
    enumerate_partial_automorphisms,
    extend_by_permutation,
    extend_isometry,
    graph_from_triples,
    has_nonmetric_cycle_up_to,
    is_metric_space,
    is_partial_automorphism,
    shortest_path_completion,
    subset_automorphism,
)
from eppa.setrep import (
    _class_walks,
    _third_sides,
    ClassTable,
    JohnsonTable,
    SetAssignment,
    class_completion,
    first_bad_level,
    is_class_metric,
    pair_token,
    padding_token,
    parse_subset_id,
    parse_token,
    subset_id,
    token_sort_key,
)
from eppa.fileio import witness_from_json, witness_to_json
from eppa.verifier import _copy_token_fault
from conftest import (
    b0_automorphism, b0_automorphisms, bent_classes, broken_compositions, composable_pairs,
    edge_labelled_graphs, every_label_on_a_pair, extend_tokens, make_four_point, make_k2,
    make_path2, make_t112, make_t113, make_t123, point_pairs, small_tower_free_spaces,
    tau_on_empty_positions, token_map, witness_graphs,
)


# -- token syntax --------------------------------------------------------------


def test_pair_token_is_order_free():
    assert pair_token("b", "a", 2) == "(a,b)#2"
    assert parse_token("(a,b)#2") == ("a", "b", 2)


def test_padding_tokens_number_slots_from_one():
    assert padding_token("x", 1) == "x!1"
    assert parse_token("x!3") == ("x", 3)


@pytest.mark.parametrize("junk", ["", "x", "(a,b)", "(a,)#1", "(,b)#1", "x!", "!1", "(a,b)#x"])
def test_malformed_tokens_rejected(junk):
    with pytest.raises(GraphFormatError):
        parse_token(junk)


def test_token_order_pairs_before_padding():
    tokens = ["b!1", "(a,b)#2", "a!2", "(a,b)#1", "a!1", "(a,c)#1"]
    ordered = sorted(tokens, key=token_sort_key)
    assert ordered == ["(a,b)#1", "(a,b)#2", "(a,c)#1", "a!1", "a!2", "b!1"]


def test_subset_id_round_trip():
    tokens = frozenset(["b!1", "(a,b)#1"])
    vid = subset_id(tokens)
    assert vid == "{(a,b)#1|b!1}"
    assert parse_subset_id(vid) == tokens
    with pytest.raises(GraphFormatError):
        parse_subset_id("(a,b)#1|b!1")
    with pytest.raises(GraphFormatError):
        parse_subset_id("{}")


# -- assignments ---------------------------------------------------------------


def token_fault(sa):
    """The verifier's token rule on the copy that the assignment gives."""
    copy = PartialMap({x: subset_id(tokens) for x, tokens in sa.psi.items()})
    return _copy_token_fault(sa.graph, copy, sa.k)


def test_token_load(t112):
    # a point's pair-token load is its row sum of codes, the ranks of its
    # labels, and the pair tokens it shares with the other points
    loads = dict(zip(t112.vertices, t112.codes.sum(axis=1).tolist()))
    assert loads["x"] == 2  # two distance-1 neighbours
    assert loads["z"] == 3  # 1 + 2
    sa = build_set_assignment(t112)
    assert dict(zip(t112.vertices, (sum(map(len, row)) for row in sa.shared))) == loads


def test_canonical_assignment_two_point(k2):
    sa = build_set_assignment(k2)
    assert sa.k == 2
    assert sa.universe == ("(a,b)#1", "a!1", "b!1")
    assert sa.psi["a"] == frozenset({"(a,b)#1", "a!1"})
    assert sa.psi["b"] == frozenset({"(a,b)#1", "b!1"})
    assert token_fault(sa) == ""


def test_canonical_assignment_sizes(t112, t123, four_point):
    # |U| = n*k - sum of pair-token counts
    for a in (t112, t123, four_point):
        sa = build_set_assignment(a)
        pair_total = sum(a.spectrum().index(d) + 1 for _, _, d in a.edges())
        assert sa.k == 1 + int(a.codes.sum(axis=1).max())
        assert len(sa.universe) == len(a) * sa.k - pair_total
        assert token_fault(sa) == ""
    assert build_set_assignment(t112).k == 4
    assert len(build_set_assignment(t112).universe) == 8
    assert build_set_assignment(t123).k == 6
    assert len(build_set_assignment(t123).universe) == 12


def test_assignment_works_for_incomplete_graphs(path2):
    sa = build_set_assignment(path2)
    assert token_fault(sa) == ""
    assert sa.psi["x"] & sa.psi["z"] == frozenset()


# -- the subset graph ----------------------------------------------------------


def test_two_point_graph_is_unit_triangle(k2):
    b, emb = build_eppa_graph(build_set_assignment(k2))
    assert b.vertices == ("{(a,b)#1|a!1}", "{(a,b)#1|b!1}", "{a!1|b!1}")
    assert b.edge_count == 3
    assert set(b.spectrum()) == {Fraction(1)}
    assert emb["a"] == "{(a,b)#1|a!1}"
    assert emb["b"] == "{(a,b)#1|b!1}"


def test_triangle_112_graph_size(t112):
    b, emb = build_eppa_graph(build_set_assignment(t112))
    assert len(b) == 70  # C(8, 4)
    assert b.edge_count == 1820
    for x, y, d in t112.edges():
        assert b.label(emb[x], emb[y]) == d


def test_shared_tokens_decide_labels(t112):
    b, _ = build_eppa_graph(build_set_assignment(t112))
    spectrum = t112.spectrum()
    for u, v, d in b.edges()[:200]:
        shared = len(parse_subset_id(u) & parse_subset_id(v))
        assert d == spectrum[shared - 1]


@pytest.mark.parametrize("m,k", [(3, 1), (6, 3), (8, 4), (10, 5), (17, 3), (300, 299)])
def test_johnson_shares_are_the_shared_tokens(m, k):
    # (17, 3) packs its tokens into three bytes; at (300, 299) counts pass 255
    universe = tuple(sorted((padding_token("p", t) for t in range(1, m + 1)), key=token_sort_key))
    table = setrep.JohnsonTable(universe, k)
    sets = [parse_subset_id(v) for v in table.ids]
    assert table.shares.dtype == np.min_scalar_type(k)
    assert table.shares.tolist() == [[len(x & y) for y in sets] for x in sets]


def test_vertex_cap_is_respected(t112):
    with pytest.raises(VertexCapExceeded) as exc:
        build_eppa_graph(build_set_assignment(t112), vertex_cap=10)
    assert "level 2 (set representation)" in str(exc.value)
    assert "needs 70" in str(exc.value)


# eight points with the labels 1 to 28: m = 722 and k = 141, a count of 510 bits
EIGHT_POINTS = graph_from_triples("abcdefgh", [
    (x, y, d) for d, (x, y) in enumerate(itertools.combinations("abcdefgh", 2), start=1)])


@settings(max_examples=25, deadline=None)
@given(edge_labelled_graphs(min_vertices=1, max_vertices=6,
                            labels=tuple(map(Fraction, range(1, 5)))),
       st.sampled_from([1, 70, 200_000, 1 << 70]))
@example(EIGHT_POINTS, 200_000)
@example(EIGHT_POINTS, 1 << 70)
def test_subset_graph_size_is_read_off_the_codes(a, cap):
    # C(m, k) of the assignment, from the codes alone: exact up to the cap,
    # and refused past it with the exact count or, past 2^64, a lower bound
    # within a few bits of it
    sa = build_set_assignment(a)
    count = math.comb(len(sa.universe), sa.k)
    if count <= cap:
        assert setrep.subset_graph_size(a, cap) == count
        return
    with pytest.raises(VertexCapExceeded) as exc:
        setrep.subset_graph_size(a, cap)
    if count.bit_length() <= 64:
        assert exc.value.needed == count and exc.value.size == str(count)
    else:
        assert (exc.value.needed, exc.value.at_least) == (1, True)
        assert cap < 1 << exc.value.exponent <= count < 1 << exc.value.exponent + 4
        assert exc.value.size == f"at least 2^{exc.value.exponent}"


@pytest.mark.parametrize("m", [2, 3, 10, 65, 200, 1000, 4099])
def test_log_gamma_bound_is_a_close_lower_bound(m):
    # 2^N <= C(m, k) < 2^(N + 4) wherever the exact count is cheap
    for k in sorted({1, 2, m // 7, m // 3, m // 2, m - 1} - {0, m}):
        count = math.comb(m, k)
        bits = setrep._log2_binomial_floor(m, k)
        assert count.bit_length() - 4 <= bits <= count.bit_length() - 1, (m, k)


# -- one-step extension --------------------------------------------------------


def _extends_embedded(theta, emb, phi):
    return all(theta[emb[x]] == emb[phi[x]] for x in phi.domain())


def test_every_partial_automorphism_extends(t112):
    sa = build_set_assignment(t112)
    b, emb = build_eppa_graph(sa)
    count = 0
    for phi in enumerate_partial_automorphisms(t112, len(t112)):
        dest = extend_by_permutation(sa, point_pairs(sa, phi))
        theta = b0_automorphism(sa, dest, b)
        assert check_map(theta, b, b)
        assert _extends_embedded(theta, emb, phi)
        count += 1
    assert count == 22


def test_extension_works_on_nonmetric_graphs(t113, path2):
    # the one-step construction needs no triangle inequality
    for a in (t113, path2):
        sa = build_set_assignment(a)
        b, emb = build_eppa_graph(sa)
        assert every_label_on_a_pair(b)
        for phi in enumerate_partial_automorphisms(a, len(a)):
            theta = b0_automorphism(sa, extend_by_permutation(sa, point_pairs(sa, phi)), b)
            assert check_map(theta, b, b)
            assert _extends_embedded(theta, emb, phi)


def test_extension_rejects_non_isometries(t123):
    sa = build_set_assignment(t123)
    with pytest.raises(InvalidMap):
        extend_by_permutation(sa, point_pairs(sa, PartialMap({"x": "x", "y": "z"})))


def test_identity_extends_to_identity(t112):
    sa = build_set_assignment(t112)
    dest = extend_by_permutation(sa, point_pairs(sa, PartialMap.identity(t112.vertices)))
    assert dest == list(range(len(sa.universe)))


def test_one_step_coherence_on_two_point(k2):
    sa = build_set_assignment(k2)
    maps = list(enumerate_partial_automorphisms(k2, len(k2)))
    assert len(composable_pairs(maps)) == 13
    assert broken_compositions(lambda phi: extend_tokens(sa, phi), maps) == []


def test_empty_map_coherent_vs_not(k2):
    sa = build_set_assignment(k2)
    identity = list(range(len(sa.universe)))
    assert extend_by_permutation(sa, []) == identity
    reverse = tau_on_empty_positions(sa, [])
    assert reverse != identity
    # still a valid automorphism of the subset graph
    b, _ = build_eppa_graph(sa)
    assert check_map(b0_automorphism(sa, reverse, b), b, b)


def test_non_coherent_mode_breaks_composition(k2):
    sa = build_set_assignment(k2)
    maps = list(enumerate_partial_automorphisms(k2, len(k2)))
    empty = PartialMap({})
    broken = broken_compositions(lambda phi: extend_tokens(sa, phi, tau_on_empty_positions), maps)
    assert broken == [(empty, empty)]


def test_composition_check_catches_an_incoherent_operator(k2_witness, monkeypatch):
    w = k2_witness
    maps = list(enumerate_partial_automorphisms(w.input, len(w.input)))
    empty = PartialMap({})
    monkeypatch.setattr(pipeline, "extend_by_permutation", tau_on_empty_positions)
    assert broken_compositions(lambda phi: extend_isometry(w, phi), maps) == [(empty, empty)]


@settings(max_examples=25, deadline=None)
@given(edge_labelled_graphs(max_vertices=3, labels=(Fraction(1), Fraction(2))))
def test_one_step_extension_property(a):
    sa = build_set_assignment(a)
    if math.comb(len(sa.universe), sa.k) > 2000:
        return
    b, emb = build_eppa_graph(sa)
    assert _copy_token_fault(a, emb, sa.k) == ""
    for phi in enumerate_partial_automorphisms(a, len(a)):
        theta = b0_automorphism(sa, extend_by_permutation(sa, point_pairs(sa, phi)), b)
        assert check_map(theta, b, b)
        assert _extends_embedded(theta, emb, phi)


# -- the token operators against their string references -----------------------


def reference_extend_by_permutation(sa, phi):
    """The string form of `extend_by_permutation`, for a map on point names:
    pair tokens are written for each mapped pair, and leftovers sorted by a
    position dict of the universe; the token map is validated on
    construction."""
    a = sa.graph
    if not is_partial_automorphism(phi, a):
        raise InvalidMap("map does not preserve distances on its domain")
    pi, hit = {}, set()
    position = {t: p for p, t in enumerate(sa.universe)}
    dom = phi.domain()
    for x, y in itertools.combinations(dom, 2):
        for i in range(1, a.codes.item(a.position(x), a.position(y)) + 1):
            src, dst = pair_token(x, y, i), pair_token(phi[x], phi[y], i)
            pi[src] = dst
            hit.add(dst)

    def match(sources, targets):
        if len(sources) != len(targets):
            raise InvalidMap(f"leftover token counts differ ({len(sources)} vs {len(targets)})")
        for src, dst in zip(sources, targets):
            pi[src] = dst
            hit.add(dst)

    for x in dom:
        match(sorted((t for t in sa.psi[x] if t not in pi), key=position.__getitem__),
              sorted((t for t in sa.psi[phi[x]] if t not in hit), key=position.__getitem__))
    match([t for t in sa.universe if t not in pi], [t for t in sa.universe if t not in hit])
    return PartialMap(pi)


def assert_extension_matches_the_reference(a):
    sa = build_set_assignment(a)
    for phi in enumerate_partial_automorphisms(a, len(a)):
        assert extend_tokens(sa, phi) == reference_extend_by_permutation(sa, phi)


def make_ten_labels():
    """Five points with the labels 1 to 10: pair tokens up to "#10" and
    padding tokens past "!9", so the token strings are not in token order."""
    pairs = itertools.combinations("abcde", 2)
    return graph_from_triples("abcde", [(x, y, d) for (x, y), d in zip(pairs, range(1, 11))])


@pytest.mark.parametrize("factory", [make_k2, make_t112, make_t123, make_four_point,
                                     make_t113, make_path2, make_ten_labels],
                         ids=["two-point", "triangle-112", "triangle-123", "four-point",
                              "triangle-113", "path2", "ten-labels"])
def test_extend_by_permutation_matches_the_reference(factory):
    assert_extension_matches_the_reference(factory())


def test_token_strings_are_not_in_token_order_with_ten_labels():
    universe = build_set_assignment(make_ten_labels()).universe
    assert list(universe) != sorted(universe)


@settings(max_examples=25, deadline=None)
@given(edge_labelled_graphs(max_vertices=4, labels=(Fraction(1), Fraction(2), Fraction(3))))
def test_extend_by_permutation_matches_the_reference_on_any_graph(a):
    assert_extension_matches_the_reference(a)


def test_extend_by_permutation_fails_as_the_reference_does(t123):
    sa = build_set_assignment(t123)
    for phi in (PartialMap({"x": "x", "y": "z"}), PartialMap({"x": "y", "z": "z"})):
        with pytest.raises(EppaError) as got:
            extend_by_permutation(sa, point_pairs(sa, phi))
        with pytest.raises(type(got.value), match=re.escape(str(got.value))):
            reference_extend_by_permutation(sa, phi)


def reference_subset_automorphism(pi, b):
    """The string form of `subset_automorphism`, for one token map: each
    vertex id is parsed, its tokens mapped, and the image id written out
    and looked up."""
    table = {}
    for vertex in b.vertices:
        image = subset_id(pi[t] for t in parse_subset_id(vertex))
        if image not in b:
            raise InvalidMap(f"token permutation leaves the graph at {vertex!r}")
        table[vertex] = image
    return PartialMap(table)


@pytest.mark.parametrize("factory", [make_k2, make_t112, make_t123, make_four_point],
                         ids=["two-point", "triangle-112", "triangle-123", "four-point"])
def test_subset_automorphism_matches_the_reference_on_fixture_b0s(factory):
    a = factory()
    sa = build_set_assignment(a)
    b, _ = build_eppa_graph(sa)
    maps = list(enumerate_partial_automorphisms(a, len(a)))
    for kernel in (extend_by_permutation, tau_on_empty_positions):
        dests = [kernel(sa, point_pairs(sa, phi)) for phi in maps]
        # the whole batch in one call, row by row as the reference
        assert b0_automorphisms(sa, dests, b) == [
            reference_subset_automorphism(token_map(sa, dest), b) for dest in dests]


def reference_image(johnson, dest):
    """The sort-based form of `subset_automorphism`: each row's image
    subsets are sorted and ranked in colex order by the weights C(p, j + 1)
    at token position p and column j, and each rank looked up."""
    count, k = johnson.members.shape
    weights = np.array([[math.comb(p, j + 1) for j in range(k)] for p in range(johnson.m)],
                       dtype=np.intp).reshape(johnson.m, k)
    slots = np.empty(count, dtype=np.intp)
    slots[weights[johnson.members, np.arange(k)].sum(axis=1)] = np.arange(count)
    rows = dest.take(johnson.members, axis=1)  # (M, V, k)
    rows.sort(axis=2)
    return slots.take(weights[rows, np.arange(k)].sum(axis=2))


@pytest.mark.parametrize("factory", [make_k2, make_t112, make_t123, make_four_point,
                                     make_t113, make_path2],
                         ids=["two-point", "triangle-112", "triangle-123", "four-point",
                              "triangle-113", "path2"])
def test_image_matches_the_sorting_reference(factory):
    sa = build_set_assignment(factory())
    johnson = sa.johnson
    m, count = johnson.m, len(johnson.ids)
    rng = np.random.default_rng(m * 1000 + count)
    for size in (1, 38):
        dest = np.array([rng.permutation(m) for _ in range(size)], dtype=np.intp)
        got = subset_automorphism(sa, dest)
        assert got.shape == (size, count)
        assert np.array_equal(got, reference_image(johnson, dest))
    assert np.array_equal(subset_automorphism(sa, np.arange(m)[None]), np.arange(count)[None])
    # an empty batch has no row
    assert subset_automorphism(sa, np.empty((0, m), dtype=np.intp)).shape == (0, count)


def test_image_refuses_more_than_64_tokens():
    # an edgeless input of n points has k = 1 and one padding token per
    # point; 2**64 is 0 in uint64, so a 65th token would add nothing to a mask
    points = [f"p{i:02d}" for i in range(65)]
    sa = build_set_assignment(graph_from_triples(points, []))
    assert (sa.k, len(sa.universe)) == (1, 65)
    with pytest.raises(EppaError, match="at most 64 tokens, not 65"):
        subset_automorphism(sa, np.arange(65)[None])
    # 64 tokens still fit: the top token's bit is 2**63
    sa = build_set_assignment(graph_from_triples(points[:64], []))
    swap = np.arange(64)
    swap[[0, 63]] = swap[[63, 0]]
    perm, = subset_automorphism(sa, swap[None]).tolist()
    ids = sa.johnson.ids
    assert {ids[i]: ids[j] for i, j in enumerate(perm) if i != j} == {"{p00!1}": "{p63!1}",
                                                                      "{p63!1}": "{p00!1}"}


def assert_token_layout_matches_the_strings(a):
    """The one-pass layout of `build_set_assignment` against the token
    strings: the universe is in id order (`token_sort_key`), and `psi`,
    `own` and `shared` are the sets of pair and padding tokens written
    point by point, and their positions, by point position (a point shares
    no token with itself)."""
    sa = build_set_assignment(a)
    assert sa.universe == tuple(sorted(sa.universe, key=token_sort_key))
    position = {t: p for p, t in enumerate(sa.universe)}
    codes = a.codes.tolist()
    psi = {
        x: frozenset([pair_token(x, y, i) for q, y in enumerate(a.vertices)
                      for i in range(1, codes[p][q] + 1)]
                     + [padding_token(x, t) for t in range(1, sa.k - sum(codes[p]) + 1)])
        for p, x in enumerate(a.vertices)
    }
    assert sa.psi == psi
    assert len(position) == len(sa.universe) and set(position) == set().union(*psi.values())
    assert sa.own == tuple(tuple(sorted(map(position.__getitem__, psi[x]))) for x in a.vertices)
    assert [[list(block) for block in row] for row in sa.shared] == [
        [[position[pair_token(x, y, i)] for i in range(1, codes[p][q] + 1)] if x != y else []
         for q, y in enumerate(a.vertices)]
        for p, x in enumerate(a.vertices)
    ]


@pytest.mark.parametrize("factory", [make_k2, make_t112, make_t123, make_four_point,
                                     make_t113, make_path2, make_ten_labels],
                         ids=["two-point", "triangle-112", "triangle-123", "four-point",
                              "triangle-113", "path2", "ten-labels"])
def test_token_table_matches_the_token_strings(factory):
    assert_token_layout_matches_the_strings(factory())


@settings(max_examples=25, deadline=None)
@given(edge_labelled_graphs(max_vertices=4, labels=(Fraction(1), Fraction(2), Fraction(3))))
def test_token_table_matches_the_token_strings_on_any_graph(a):
    assert_token_layout_matches_the_strings(a)


def test_no_token_string_is_parsed_when_extending_again(t112, monkeypatch):
    # B0's ids are checked against the Johnson table of the set assignment,
    # and the extension moves the token positions the assignment laid out
    # from the input's codes: no token string is parsed or written, on the
    # built witness or on a loaded one, from its first extension on
    w = build_witness(t112)
    loaded = witness_from_json(json.loads(json.dumps(witness_to_json(w))))
    maps = list(enumerate_partial_automorphisms(t112, len(t112)))
    want = [extend_isometry(w, phi) for phi in maps]

    def no_parsing(*args):
        raise AssertionError("token string parsed or written on the extension path")

    for name in ("parse_token", "parse_subset_id", "pair_token", "padding_token",
                 "token_sort_key"):
        monkeypatch.setattr(setrep, name, no_parsing)
    assert [extend_isometry(loaded, phi) for phi in maps] == want
    assert [extend_isometry(w, phi) for phi in maps] == want


def test_no_token_string_is_parsed_when_building_or_loading(t112, monkeypatch):
    # the set assignment lays its tokens out in token order from the codes,
    # and the copy's ids are read off that layout: building, writing and
    # loading a witness and extending on it parse and sort no token string
    maps = list(enumerate_partial_automorphisms(t112, len(t112)))
    built = build_witness(t112)
    want_json = witness_to_json(built)
    want = [extend_isometry(built, phi) for phi in maps]

    def no_parsing(*args, **kwargs):
        raise AssertionError("token string parsed on the build or load path")

    for name in ("parse_token", "token_sort_key", "subset_id", "parse_subset_id"):
        monkeypatch.setattr(setrep, name, no_parsing)
    w = build_witness(t112)
    data = witness_to_json(w)
    assert data == want_json
    loaded = witness_from_json(json.loads(json.dumps(data)))
    assert [extend_isometry(w, phi) for phi in maps] == want
    assert [extend_isometry(loaded, phi) for phi in maps] == want


# -- the tower decided on the Johnson scheme ---------------------------------------


def scan_spaces(limit=924):
    """The metric triangles with labels 1 to 5 and the four-point spaces
    with labels 1 to 3, one per subset graph (the graph depends only on m,
    k and the spectrum), where it has at most `limit` vertices."""
    found = {}
    for names, top in ((("x", "y", "z"), 5), (("a", "b", "c", "d"), 3)):
        pairs = list(itertools.combinations(names, 2))
        for labels in itertools.product(range(1, top + 1), repeat=len(pairs)):
            a = graph_from_triples(names, [(u, v, d) for (u, v), d in zip(pairs, labels)])
            if not is_metric_space(a):
                continue
            sa = build_set_assignment(a)
            if math.comb(len(sa.universe), sa.k) <= limit:
                found.setdefault((len(sa.universe), sa.k, a.spectrum()), sa)
    return [found[key] for key in sorted(found)]


@pytest.mark.parametrize(
    "edges",
    [(1, 1, 2), (1, 2, 3), (1, 4, 4), (1, 1, 4), (1, 1, 4, 4, 1, 1)],
    ids=lambda e: "".join(map(str, e)),
)
def test_class_walks_are_the_walks_of_the_subset_graph(edges):
    # D_h by class from the recurrence, against hop-bounded min-plus walks
    # from one vertex of B0 itself (a non-metric space gives non-trivial walks)
    names = ("a", "b", "c", "d")[: 3 if len(edges) == 3 else 4]
    pairs = list(itertools.combinations(names, 2))
    a = graph_from_triples(names, [(u, v, d) for (u, v), d in zip(pairs, edges)])
    sa = build_set_assignment(a)
    b0 = build_eppa_graph(sa)[0]
    weights = np.array([np.inf, *map(float, b0.spectrum())])[b0.codes]  # small integers, exact
    np.fill_diagonal(weights, 0)
    x = parse_subset_id(b0.vertices[0])
    classes = np.array([len(x & parse_subset_id(z)) for z in b0.vertices])
    walk = weights[0]
    hops = 0
    for want in _class_walks(len(sa.universe), sa.k, [int(s) for s in a.spectrum()]):
        got = [walk[classes == c].min(initial=np.inf) for c in range(sa.k)]
        assert [None if w == np.inf else int(w) for w in got] == want
        walk = np.minimum(walk, (walk[:, None] + weights).min(axis=0))
        hops += 1
    assert np.array_equal(walk, np.minimum(walk, (walk[:, None] + weights).min(axis=0)))
    assert hops >= 2


def test_first_bad_level_agrees_with_the_cycle_check_on_b0():
    # the least size with a non-metric cycle: a fewest-vertex one is a
    # simple path closed by its long edge, and the check stops at the first
    # hop count that finds one
    spaces = scan_spaces()
    assert len(spaces) == 33
    first = []
    for sa in spaces:
        n = compute_N(sa.graph)
        b0 = build_eppa_graph(sa)[0]
        cycle = has_nonmetric_cycle_up_to(b0, n) if n >= 3 else None
        got = first_bad_level(sa, n)
        want = None if cycle is None else len(cycle.vertices)
        assert (None if got is None else got[0]) == want, sa.graph.spectrum()
        first.append(got)
    assert sorted(filter(None, first)) == [(4, 100), (4, 100), (4, 400), (4, 625)]


def test_first_bad_level_bounds_the_bad_sets_through_each_vertex():
    # B0 of the non-metric triangle (1,1,4): its bad 3-sets from a full scan
    a = graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("x", "z", 1), ("y", "z", 4)])
    sa = build_set_assignment(a)
    b0 = build_eppa_graph(sa)[0]
    level, at_least = first_bad_level(sa, compute_N(a))
    through = {x: 0 for x in b0.vertices}
    for m in bad_sets(b0, 3):
        for x in m.members:
            through[x] += 1
    per_vertex = set(through.values())
    assert level == 3 and len(per_vertex) == 1
    assert 0 < at_least <= per_vertex.pop()


@pytest.mark.parametrize("labels", [(1, 4, 4), (1, 5, 5)], ids=str)
def test_first_bad_level_of_the_unbuildable_triangles(labels):
    # an anchored search counts 16,000 bad 4-sets through each vertex; the
    # bound counts the 100 edges of the long label at a vertex
    a = graph_from_triples(
        ["x", "y", "z"], [("x", "y", labels[0]), ("x", "z", labels[1]), ("y", "z", labels[2])]
    )
    assert first_bad_level(build_set_assignment(a), compute_N(a)) == (4, 100)


# -- the tower-free completion read off the classes --------------------------------


@settings(max_examples=40, deadline=None)
@given(small_tower_free_spaces())
def test_class_completion_is_the_completion_of_b0(sa):
    b0 = build_eppa_graph(sa)[0]
    m, k = len(sa.universe), sa.k
    f = sa.classes.distances
    assert f[k] == 0 and None not in f[max(0, 2 * k - m):]  # every class that occurs is reached
    got, want = class_completion(sa.johnson, sa.classes), shortest_path_completion(b0)
    assert got.vertices == want.vertices
    assert got.spectrum() == want.spectrum()
    assert got.codes.dtype == want.codes.dtype
    assert np.array_equal(got.codes, want.codes)
    assert got.edge_count == want.edge_count
    assert is_class_metric(m, f)


@settings(max_examples=10, deadline=None)
@given(small_tower_free_spaces())
def test_a_tower_free_extension_is_an_automorphism_of_the_final_space(sa):
    # a token permutation keeps every shared-token count and the final
    # space's codes are T[shares], so the replay on B0 alone checks no
    # isometry per map: every result is still one, built and reloaded alike
    a = sa.graph
    built = build_witness(a)
    loaded = witness_from_json(witness_to_json(built))
    maps = list(enumerate_partial_automorphisms(a, len(a)))
    with mock.patch.object(pipeline, "check_map", side_effect=AssertionError("called")):
        for w in (built, loaded):
            for phi in maps:
                assert check_map(extend_isometry(w, phi), w.final, w.final)


@settings(max_examples=20, deadline=None)
@given(small_tower_free_spaces())
def test_every_label_of_a_tower_free_witness_is_on_a_pair(sa):
    # each label of A is on an edge x-y, and psi(x), psi(y) share its rank
    built = build_witness(sa.graph)
    loaded = witness_from_json(witness_to_json(built))
    for g in witness_graphs(built) + witness_graphs(loaded):
        assert every_label_on_a_pair(g)


@pytest.mark.parametrize("m, k", [(7, 3), (8, 4)])
def test_third_sides_are_the_triangles_of_the_subsets(m, k):
    # J(m, k) by brute force: around a fixed X, every Z and Y give a
    # triangle with sides |X & Z|, |Z & Y| and |X & Y|; those whose third
    # side is below k are the ones the rule lists, for every two sides
    subsets = [frozenset(c) for c in itertools.combinations(range(m), k)]
    x = subsets[0]
    counted = {(len(x & z), len(z & y), len(x & y)) for z in subsets for y in subsets}
    listed = {(i, j, c) for i in range(k + 1) for j in range(k + 1) for c in _third_sides(m, k, i, j)}
    assert listed == {(i, j, c) for i, j, c in counted if c < k}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=4, max_size=4))
def test_class_metric_check_agrees_with_the_explicit_check(distances):
    # any positive class distance on J(8, 4), the 70-vertex B0 of (1,1,2),
    # and on J(7, 4), where no two subsets are disjoint, so class 0 does not
    # occur and its distance is never read
    cases = [(build_set_assignment(make_t112()).johnson, tuple(distances)),
             (JohnsonTable(tuple("abcdefg"), 4), (None, *distances[1:]))]
    for johnson, walk in cases:
        table = ClassTable(johnson.m, 1, (walk,))
        assert (is_class_metric(johnson.m, table.distances)
                == is_metric_space(class_completion(johnson, table))), johnson.m


@pytest.mark.parametrize("make", [make_k2, make_t112, make_t123, make_four_point],
                         ids=["k2", "t112", "t123", "four-point"])
def test_a_raised_class_distance_off_the_copy_breaks_a_triangle(make, monkeypatch):
    # an unlabelled class is reached by a walk whose last edge closes a
    # triangle with equality, so raising its distance by one scaled unit
    # breaks that triangle, and the build refuses
    a = make()
    sa = build_set_assignment(a)
    m, k, labelled = len(sa.universe), sa.k, len(a.spectrum())
    f = sa.classes.distances
    unlabelled = [c for c in range(max(0, 2 * k - m), k) if not 1 <= c <= labelled]
    if make is make_k2:
        assert unlabelled == []  # J(3, 2): every two subsets share one token
    for c in unlabelled:
        bent = bent_classes(a, c, f[c] + 1)
        assert not is_class_metric(m, bent.distances)
        monkeypatch.setattr(SetAssignment, "classes", property(lambda sa, bent=bent: bent))
        with pytest.raises(NotAMetricSpace, match="completion failed"):
            build_witness(a)


def test_an_unreached_class_is_refused(monkeypatch):
    a = make_t112()
    bent = bent_classes(a, 3, None)
    monkeypatch.setattr(SetAssignment, "classes", property(lambda sa: bent))
    with pytest.raises(NotAMetricSpace, match="no walk joins two subsets sharing 3 tokens"):
        build_witness(a)
