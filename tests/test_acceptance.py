"""Acceptance suite: the eight delivery criteria.

Each criterion is one test (or one parametrized family) that prints
"[criterion n] PASS" when it holds.  The four named fixture spaces are built
once per module, timed, and shared between criteria 1, 5, 6 and 7.  Verification
here leans on checkers local to the test tree (dense-matrix isometry tests,
subset-scan cycle oracles, backtracking automorphism enumeration), not on
the library's own validation paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import time
from itertools import combinations

import numpy as np
import pytest

from eppa import (
    PartialMap,
    Witness,
    build_eppa_graph,
    build_next_level,
    build_set_assignment,
    build_witness,
    check_map,
    cross_check,
    enumerate_partial_automorphisms,
    extend_by_permutation,
    extend_isometry,
    find_induced_nonmetric_cycles,
    has_nonmetric_cycle_up_to,
    shortest_path_completion,
)
from eppa import graphs, pipeline
from eppa.cli import main as cli_main
from eppa.fileio import (
    dump_json, graph_to_codes, graph_to_json, load_json, map_to_json, report_to_json,
    witness_from_json, witness_to_json,
)
from eppa.graphs import EdgeLabelledGraph
from eppa.levels import LevelGraph, parse_level_vertex
from eppa.verifier import naive_extension_exists, search_extension

from conftest import (
    all_automorphisms,
    b0_automorphism,
    broken_compositions,
    composable_pairs,
    every_label_on_a_pair,
    induced_nonmetric_sets,
    make_four_point,
    make_k2,
    make_t112,
    make_t113,
    make_t123,
    point_pairs,
    random_connected_graph,
    random_graph,
    small_corpus,
    triangle_ok,
    witness_graphs,
)


FIXTURES = (
    ("two-point", make_k2, 60.0, 7),
    ("triangle-112", make_t112, 60.0, 22),
    ("triangle-123", make_t123, 600.0, 17),
    ("four-point", make_four_point, 60.0, 97),
)


@pytest.fixture(scope="module")
def fixture_witnesses():
    out = {}
    for name, factory, limit, n_maps in FIXTURES:
        g = factory()
        t0 = time.perf_counter()
        w = build_witness(g)
        out[name] = (g, w, time.perf_counter() - t0)
    return out


def dense_label_ids(g: EdgeLabelledGraph):
    """Independent dense encoding: labels as small ints, non-edges -1."""
    verts = list(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    code = {d: c for c, d in enumerate(g.spectrum(), start=1)}
    mat = np.full((len(verts), len(verts)), -1, dtype=np.int16)
    np.fill_diagonal(mat, 0)
    for u, v, d in g.edges():
        mat[index[u], index[v]] = mat[index[v], index[u]] = code[d]
    return verts, index, mat


def is_total_isometry(theta: PartialMap, verts, index, mat) -> bool:
    if sorted(theta.domain()) != sorted(verts):
        return False
    if sorted(theta.image()) != sorted(verts):
        return False
    perm = np.fromiter((index[theta[v]] for v in verts), dtype=np.intp, count=len(verts))
    return bool(np.array_equal(mat[perm][:, perm], mat))


# -- criterion 1: end-to-end extension property on the named fixtures ------------


# sha256 of every extension map of each fixture, in the order the maps are
# enumerated, each written as `map_to_json` gives it in compact JSON and one
# newline; the maps must stay identical.
MAP_DIGESTS = {
    "two-point": "0b24c0caf4eb01cecc6910783f964e124f7b59df6cc090989add693aafc82138",
    "triangle-112": "fce5426dccaccaa243ca3895f7cef744c2f53cd6043afc991b7330d2e070df82",
    "triangle-123": "9c79f662a4c768405e69d778ff8bc7da63221688f3d84d6cdba87b665bf51b73",
    "four-point": "e47eca47f76983d3837741304c65a90bccf22d031a2e4c316c940e527c64d6d7",
}


@pytest.mark.parametrize("name,factory,limit,n_maps", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_criterion_1_end_to_end(fixture_witnesses, name, factory, limit, n_maps):
    g, w, build_seconds = fixture_witnesses[name]
    t0 = time.perf_counter()
    copy = [w.final_embedding[x] for x in g.vertices]
    maps = list(enumerate_partial_automorphisms(w.final, len(copy), copy))
    assert len(maps) == n_maps
    verts, index, mat = dense_label_ids(w.final)
    digest = hashlib.sha256()
    for phi in maps:
        theta = extend_isometry(w, phi)
        assert theta.extends(phi)
        assert is_total_isometry(theta, verts, index, mat)
        digest.update(json.dumps(map_to_json(theta), separators=(",", ":")).encode() + b"\n")
    elapsed = build_seconds + (time.perf_counter() - t0)
    assert digest.hexdigest() == MAP_DIGESTS[name], name
    assert elapsed < limit, f"{name}: {elapsed:.1f}s over the {limit:.0f}s target"
    print(f"[criterion 1] PASS {name}: {n_maps} partial isometries extended in {elapsed:.1f}s")


# sha256 and byte count of each fixture's witness file in the
# eppa-witness/7 format, which stores the input and B0's code string alone
# (the loader derives B0's vertices, labels and copy, the tower height and
# the final space); the JSON must stay byte-identical.  The text is the one
# `dump_json` writes, made in memory.
FIXTURE_DIGESTS = {
    "two-point": "2c9b6675bb37703ef947e24c27d257b03a1200b0a34e44cb3048e5cd4d31cfc5",
    "triangle-112": "1cf8f1c141f2649f3ef9f0ff5bcb57364cd5bfe20d9b7c7a7b1f4e30dccd46fb",
    "triangle-123": "449841b3d5d89a8024779117177855d3b499949d746351bc5bef512d70fabdea",
    "four-point": "c3b6a1a62aaa7454133244be19b734f8e8a0318570c90320cda253203b69f987",
}
FIXTURE_BYTES = {"two-point": 94, "triangle-112": 2_538, "triangle-123": 426_549,
                 "four-point": 313_405}


def test_fixture_witnesses_are_byte_identical(fixture_witnesses):
    for name, (_, w, _) in fixture_witnesses.items():
        text = json.dumps(witness_to_json(w), indent=None, separators=(",", ":")) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_DIGESTS[name], name
        assert len(text.encode()) == FIXTURE_BYTES[name], name


# sha256 of each fixture's built graphs and tower height, whatever the file
# format around them: compact JSON of [the input as `graph_to_json` writes
# it, every stored level's graph as `graph_to_codes` writes it, the final
# space likewise, n].  They must stay identical, also after a file round trip.
GRAPH_DIGESTS = {
    "two-point": "35e7ff5c5c956119e11b08d9cf7b6690e8106d8c586e81f122fccabc8bca59cd",
    "triangle-112": "b93c6c4542b52f00bc23a4026152ea321701356968a9e103d5f28380531cebd8",
    "triangle-123": "5d329569e9195e240e504c19ec4f76a79ffce36f1052bfbb80a95dbc439eb783",
    "four-point": "6d45e4eaddad76ddb064365ac01f035bc96fee7be937e15d1458568f0b1d5ce5",
}


def graph_digest(w: Witness) -> str:
    facts = [graph_to_json(w.input), [graph_to_codes(lvl.graph) for lvl in w.levels],
             graph_to_codes(w.final), w.n]
    return hashlib.sha256(json.dumps(facts, separators=(",", ":")).encode()).hexdigest()


def test_fixture_graphs_are_unchanged(fixture_witnesses):
    for name, (_, w, _) in fixture_witnesses.items():
        assert graph_digest(w) == GRAPH_DIGESTS[name], name
        loaded = witness_from_json(json.loads(json.dumps(witness_to_json(w))))
        assert graph_digest(loaded) == GRAPH_DIGESTS[name], name


# sha256 of each fixture's whole cross-check report, as `report_to_json`
# gives it in compact JSON: every check name, verdict, detail, total and
# counterexample must stay identical.
REPORT_DIGESTS = {
    "two-point": "c9e41f24c6952b50cf4fc6c671be362d882bdf7f74eaf0f183cc0c8b89a3cf3a",
    "triangle-112": "fd58df484bd7904cbca8fe77d7c5a637d98c4afb516078e7c098a00ebe2c0f19",
    "triangle-123": "72c6dd8decc342589affad6c2817ac241eee5d0f3581bd85d5dc0ca8d6ffe20b",
    "four-point": "e43f4f004de908be8485f44d972dec5d1739b24fe1987c5b88f4f63161ddde34",
}


def test_fixture_reports_are_unchanged(fixture_witnesses):
    for name, (_, w, _) in fixture_witnesses.items():
        text = json.dumps(report_to_json(cross_check(w)), separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[name], name


def test_every_label_of_a_fixture_graph_is_on_a_pair(fixture_witnesses):
    for name, (_, w, _) in fixture_witnesses.items():
        loaded = witness_from_json(json.loads(json.dumps(witness_to_json(w))))
        for g in witness_graphs(w) + witness_graphs(loaded):
            assert every_label_on_a_pair(g), (name, g)


@pytest.mark.parametrize("name", [f[0] for f in FIXTURES])
def test_input_name_maps_replay_with_no_name_walk(fixture_witnesses, monkeypatch, name):
    # criterion 1's maps written on input names: each name is looked up
    # once, so neither the final-id reader nor the name-level isometry test
    # runs, and the extensions are the same maps
    g, w, _ = fixture_witnesses[name]
    copy = [w.final_embedding[x] for x in g.vertices]
    point = dict(zip(copy, g.vertices))
    maps = [PartialMap({point[u]: point[v] for u, v in phi.items()})
            for phi in enumerate_partial_automorphisms(w.final, len(copy), copy)]

    def refuse(*args):
        raise AssertionError("a map's names were walked again")

    monkeypatch.setattr(pipeline, "_as_input_map", refuse)
    monkeypatch.setattr(graphs, "is_partial_automorphism", refuse)
    digest = hashlib.sha256()
    for phi in maps:
        digest.update(json.dumps(map_to_json(extend_isometry(w, phi)),
                                 separators=(",", ":")).encode() + b"\n")
    assert digest.hexdigest() == MAP_DIGESTS[name]


# -- criterion 2: the one-step construction alone on random graphs -----------------

SUBSET_COUNT_CAP = 300  # C(|U|, k) above this is resampled, keeping check_map affordable


def test_criterion_2_one_step_on_random_graphs():
    rng = random.Random(20260819)
    accepted = 0
    attempts = 0
    while accepted < 20:
        attempts += 1
        assert attempts < 1000, "sampling cap rejected too many graphs"
        a = random_graph(rng, max_vertices=4)
        sa = build_set_assignment(a)
        if math.comb(len(sa.universe), sa.k) > SUBSET_COUNT_CAP:
            continue
        b, emb = build_eppa_graph(sa)
        assert len(b) == math.comb(len(sa.universe), sa.k)
        assert check_map(emb, a, b)
        for phi in enumerate_partial_automorphisms(a, len(a)):
            dest = extend_by_permutation(sa, point_pairs(sa, phi))
            theta = b0_automorphism(sa, dest, b)
            assert check_map(theta, b, b)
            assert all(theta[emb[x]] == emb[phi[x]] for x in phi.domain())
        accepted += 1

    b2, _ = build_eppa_graph(build_set_assignment(make_k2()))
    assert len(b2) == 3
    b112, _ = build_eppa_graph(build_set_assignment(make_t112()))
    assert len(b112) == 70
    print(f"[criterion 2] PASS: 20 random graphs ({attempts} sampled), |B| regressions 3 and 70")


# -- criterion 3: the expansion unwinds the (1,1,3) triangle into a six-cycle ------


def test_criterion_3_six_cycle_expansion():
    t113 = make_t113()
    prev = LevelGraph(
        graph=t113,
        level=2,
        base_embedding=PartialMap({"y": "y", "z": "z"}),
        bad_sets=(),
    )
    g = build_next_level(prev, 3).graph
    assert len(g) == 6
    assert len(g.edges()) == 6
    assert all(len(g.adjacency(v)) == 2 for v in g.vertices)

    # one cycle, read off by walking it
    start = g.vertices[0]
    walk = [start, next(iter(g.adjacency(start)))]
    while len(walk) < 6:
        nxt = [u for u in g.adjacency(walk[-1]) if u != walk[-2]]
        assert len(nxt) == 1
        walk.append(nxt[0])
    assert g.label(walk[-1], walk[0]) is not None  # closes up
    assert len(set(walk)) == 6

    labels = [int(g.label(walk[i], walk[(i + 1) % 6])) for i in range(6)]
    want = [1, 1, 3, 1, 1, 3]
    rotations = [want[i:] + want[:i] for i in range(6)]
    assert labels in rotations or labels[::-1] in rotations

    for size in range(3, 7):
        assert find_induced_nonmetric_cycles(g, size) == []
    print("[criterion 3] PASS: exact six-cycle labelled (1,1,3,1,1,3), no induced non-metric cycles")


# -- criterion 4: completion behaviour on random connected graphs -------------------


def test_criterion_4_completion_suite():
    rng = random.Random(48620261)
    preserved_count = 0
    for _ in range(100):
        g = random_connected_graph(rng, max_vertices=7)
        done = shortest_path_completion(g)
        assert triangle_ok(done)

        preserved = all(done.label(u, v) == d for u, v, d in g.edges())
        has_induced_bad = any(
            induced_nonmetric_sets(g, size) for size in range(3, len(g) + 1)
        )
        assert preserved == (not has_induced_bad)
        preserved_count += preserved

        for f in all_automorphisms(g):
            items = f.items()
            for i, (u, fu) in enumerate(items):
                for v, fv in items[i + 1 :]:
                    assert done.label(u, v) == done.label(fu, fv)
    # the seed must exercise both branches of the iff
    assert 0 < preserved_count < 100
    print(f"[criterion 4] PASS: 100 graphs, {preserved_count} label-preserving completions")


# -- criterion 5: no level carries a non-metric cycle its own size or smaller -------


def test_criterion_5_levels_carry_no_short_bad_cycles(fixture_witnesses):
    checked = 0
    for name, (g, w, _) in fixture_witnesses.items():
        # cycles need three vertices, nothing to check at the base; a level
        # that is not stored is the stored level below it renamed
        for size in range(3, w.n + 1):
            lvl = [lvl for lvl in w.levels if lvl.level <= size][-1]
            assert has_nonmetric_cycle_up_to(lvl.graph, size) is None, (
                f"{name}: level {size} (stored level {lvl.level}) contains a short non-metric cycle"
            )
            checked += 1
    assert checked == 4  # 112: level 3; 123: levels 3 and 4; four-point: level 3
    print(f"[criterion 5] PASS: {checked} levels clean")


# -- criterion 6: coherent extensions compose -----------------------------------------


@pytest.mark.parametrize("name,n_pairs", [("two-point", 13), ("triangle-112", 68)])
def test_criterion_6_coherence(fixture_witnesses, name, n_pairs):
    g, w, _ = fixture_witnesses[name]
    maps = list(enumerate_partial_automorphisms(g, len(g)))
    assert len(composable_pairs(maps)) == n_pairs
    broken = broken_compositions(lambda phi: extend_isometry(w, phi), maps)
    assert broken == [], "composition broke on {} then {}".format(
        *(dict(f.items()) for f in broken[0]))
    print(f"[criterion 6] PASS {name}: {n_pairs} composable pairs compose")


# -- criterion 7: transposing two vertices of any stored level must trip the verifier --


def valuation_bit_sites(w: Witness):
    """Every (level index, vertex id, bit position) a valuation-bit flip can hit."""
    sites = []
    for idx, lvl in enumerate(w.levels):
        if lvl.level < 3:
            continue  # base-level ids carry no valuation bits
        for vid in lvl.graph.vertices:
            bits = parse_level_vertex(vid)[1]
            sites.extend((idx, vid, pos) for pos in range(len(bits)))
    return sites


def transposition_sites(w: Witness):
    """Every (level index, u, v) whose transposition changes that level's
    stored edge relation, over all stored levels, the base level included.
    Twins, two vertices with the same labelled neighbourhood apart from each
    other, are left out: swapping them is an automorphism, not a mutation."""
    sites = []
    for idx, lvl in enumerate(w.levels):
        g = lvl.graph
        for u, v in combinations(g.vertices, 2):
            nu, nv = dict(g.adjacency(u)), dict(g.adjacency(v))
            nu.pop(v, None)
            nv.pop(u, None)
            if nu != nv:
                sites.append((idx, u, v))
    return sites


def transpose_vertices(w: Witness, idx: int, u: str, v: str) -> Witness:
    """Swap two vertices in the stored edge relation of one level; its vertex
    set, anchors and every other layer stay as they were."""
    lvl = w.levels[idx]
    swap = {u: v, v: u}
    edges = [(swap.get(a, a), swap.get(b, b), d) for a, b, d in lvl.graph.edges()]
    mutated = dataclasses.replace(lvl, graph=EdgeLabelledGraph(lvl.graph.vertices, edges))
    return dataclasses.replace(w, levels=w.levels[:idx] + (mutated,) + w.levels[idx + 1 :])


def flip_valuation_bit(w: Witness, idx: int, vid: str, pos: int) -> Witness:
    """Transpose the two vertex copies that differ in one valuation bit."""
    base, bits = parse_level_vertex(vid)
    other = base + ";" + bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1 :]
    return transpose_vertices(w, idx, vid, other)


def verifier_catches(w: Witness, tmp_path, tag: str, *options: str) -> bool:
    """Serialize, run the verify command with any extra options, demand
    failure plus a counterexample."""
    wpath = str(tmp_path / f"mutated-{tag}.json")
    rpath = str(tmp_path / f"report-{tag}.json")
    dump_json(wpath, witness_to_json(w))
    rc = cli_main(["verify", wpath, "--output", rpath, *options])
    if rc == 0:
        return False
    report = load_json(rpath)
    return any(
        c["passed"] is False and not c["skipped"] and c["counterexample"] is not None
        for c in report["checks"]
    )


def test_criterion_7_mutation_sensitivity(fixture_witnesses, tmp_path):
    """Transpose two vertices in a stored level of the pipeline-built (1,1,2)
    witness; the verify command must fail with a counterexample for each of
    20 sampled transpositions.

    That witness stores B0 alone: its 70 vertices have no twins and no bad
    3-set, so level 3 is B0 renamed and is not stored.  The 20 sites are
    sampled from B0's 2,415 transpositions.  A level mutation leaves the
    final space untouched, so the brute-force extension search over it
    cannot be what catches one; the verify runs skip it with
    --search-limit 0 and the structural checks (edge rules, short-cycle
    checks, replay) must do the catching.

    The (1,2,3) witness cannot serve here, and that is checked below: it
    carries no valuation bits.  Its B0 holds the 924 six-token subsets of 12
    tokens, labelled by the number c in {1,2,3} of shared tokens.  In a
    triangle X, Y, Z, Y has at most c(X,Y) + c(Y,Z) tokens inside the union
    of X and Z and at most c(X,Z) outside it, so the three labels sum to at
    least 6 and, none being above 3, no side is longer than the other two
    together.  In a longer cycle the long side is at most 3 and every other
    side at least 1.  So B0 induces no non-metric cycle, no level up to
    N = 4 has a bad set, and the witness is B0 alone.
    """
    w123 = fixture_witnesses["triangle-123"][1]
    assert [(lvl.level, len(lvl.bad_sets)) for lvl in w123.levels] == [(2, 0)]
    assert w123.n == 4 and has_nonmetric_cycle_up_to(w123.levels[0].graph, 4) is None
    assert valuation_bit_sites(w123) == []

    w = fixture_witnesses["triangle-112"][1]
    assert [lvl.level for lvl in w.levels] == [2]
    sites = transposition_sites(w)
    assert len(sites) == 2415
    rng = random.Random(7)
    for n, (idx, u, v) in enumerate(rng.sample(sites, 20)):
        mutant = transpose_vertices(w, idx, u, v)
        assert mutant.levels[idx].graph != w.levels[idx].graph
        assert verifier_catches(mutant, tmp_path, f"swap-{n}", "--search-limit", "0"), (
            f"transposing {u!r} and {v!r} in level {w.levels[idx].level} went unnoticed"
        )
    print("[criterion 7] PASS: 20 sampled level transpositions all caught")


def test_criterion_7_machinery_on_a_valued_witness(demo_witness):
    """Valuation-bit flips, the transpositions of two copies that differ in
    one bit, on the demonstration witness (`demo_witness`), whose expansion
    has two bad sets and hence twenty valuation bits; every flip must be
    caught.

    Its input is one point, which the build gives no level, so no witness
    file holds it (`witness_from_json` refuses the levels): the report of
    `cross_check` itself must fail each flip with a counterexample."""
    w = demo_witness
    from eppa import cross_check

    assert cross_check(w).ok  # the unmutated witness is sound

    sites = valuation_bit_sites(w)
    assert len(sites) == 20
    caught = sum(
        any(not r.passed and not r.skipped and r.counterexample is not None
            for r in cross_check(flip_valuation_bit(w, *site)).results)
        for site in sites
    )
    assert caught == 20
    print("[criterion 7] PASS (companion): all 20 bit flips caught on the valued witness")


# -- criterion 8: search agrees with the factorial oracle on the corpus ----------------


def probe_maps(g: EdgeLabelledGraph, rng: random.Random):
    """The empty map, the identity, every partial isometry on at most two
    vertices, and (on larger graphs) a random sample of three-point maps."""
    probes = [PartialMap({}), PartialMap.identity(g.vertices)]
    probes.extend(enumerate_partial_automorphisms(g, min(2, len(g))))
    if len(g) >= 7:
        verts = list(g.vertices)
        for _ in range(12):
            dom = rng.sample(verts, 3)
            img = rng.sample(verts, 3)
            f = dict(zip(dom, img))
            if len(set(f.values())) == 3:
                probes.append(PartialMap(f))
    else:
        probes.extend(enumerate_partial_automorphisms(g, min(3, len(g))))
    return probes


def test_criterion_8_search_matches_oracle():
    rng = random.Random(88)
    disagreements = []
    total = 0
    for name, g in small_corpus():
        assert len(g) <= 8
        for phi in probe_maps(g, rng):
            total += 1
            try:
                found = search_extension(g, phi)
            except Exception as exc:  # an unknown-vertex probe would be a bug here
                raise AssertionError(f"{name}: search raised {exc} on {dict(phi.items())}")
            if (found is not None) != naive_extension_exists(g, phi):
                disagreements.append((name, dict(phi.items())))
            if found is not None:
                assert found.extends(phi)
    assert disagreements == []
    print(f"[criterion 8] PASS: {total} probes across {len(small_corpus())} corpus graphs")
