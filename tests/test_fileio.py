"""JSON formats: labels, graphs, maps, witnesses, and reports."""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eppa import (
    CycleWitness,
    EdgeLabelledGraph,
    GraphFormatError,
    PartialMap,
    VerificationReport,
    build_eppa_graph,
    build_set_assignment,
    compute_N,
    cross_check,
    enumerate_partial_automorphisms,
    extend_isometry,
    graph_from_triples,
)
from eppa import build_witness, graphs, pipeline
from eppa.cli import main
from eppa.fileio import (
    WITNESS_FORMAT,
    dump_json,
    format_label,
    graph_from_json,
    graph_to_codes,
    graph_to_json,
    load_json,
    map_from_json,
    map_to_json,
    parse_label,
    report_to_json,
    witness_from_json,
    witness_to_json,
)
from conftest import (
    copied_level_tower, make_t112, recoded, renamed_off_the_copy, stacked_witness,
)


# -- labels ------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("3", Fraction(3)), ("3/4", Fraction(3, 4)), ("12/7", Fraction(12, 7)), ("1", Fraction(1))],
)
def test_parse_label_accepts_lowest_terms(text, value):
    assert parse_label(text) == value


@pytest.mark.parametrize(
    "text",
    ["3/0", "6/4", "3/1", "0", "-1", "1.5", "03", "", "a/b", "1/", "1 /2", None, 3],
)
def test_parse_label_rejects_everything_else(text):
    with pytest.raises(GraphFormatError):
        parse_label(text)


def test_format_label_round_trips():
    for d in (Fraction(3), Fraction(3, 4), Fraction(6, 4), Fraction(100, 9)):
        assert parse_label(format_label(d)) == d
    assert format_label(Fraction(3)) == "3"
    assert format_label(Fraction(6, 4)) == "3/2"


# -- graphs ------------------------------------------------------------------


def test_graph_round_trip(t112, four_point):
    for g in (t112, four_point):
        assert graph_from_json(graph_to_json(g)) == g


def test_graph_json_shape(k2):
    obj = graph_to_json(k2)
    assert obj == {"vertices": ["a", "b"], "edges": [["a", "b", "1"]]}


@pytest.mark.parametrize(
    "obj,fragment",
    [
        ([], "JSON object"),
        ({"vertices": ["a"], "edges": [], "extra": 1}, "unexpected graph keys"),
        ({"vertices": "ab", "edges": []}, "list of strings"),
        ({"vertices": ["a"], "edges": {}}, "must be a list"),
        ({"vertices": ["a", "b"], "edges": [["a", "b"]]}, "edge #0"),
        ({"vertices": ["a", "b"], "edges": [["a", "b", "6/4"]]}, "edge #0"),
        ({"vertices": ["a", "b"], "edges": [["a", "b", "1"], ["a", "b", 2]]}, "edge #1"),
    ],
)
def test_graph_parse_errors_name_the_offender(obj, fragment):
    with pytest.raises(GraphFormatError) as exc:
        graph_from_json(obj)
    assert fragment in str(exc.value)


def test_graph_files_refuse_structural_names():
    # ";" belongs to level vertex ids, which no graph file holds
    obj = {"vertices": ["x;0", "y;1"], "edges": [["x;0", "y;1", "2"]]}
    with pytest.raises(GraphFormatError):
        graph_from_json(obj)


# -- maps --------------------------------------------------------------------


def test_map_round_trip():
    f = PartialMap({"b": "a", "a": "b", "c": "c"})
    assert map_from_json(map_to_json(f)) == f
    assert map_to_json(f) == [["a", "b"], ["b", "a"], ["c", "c"]]


@pytest.mark.parametrize(
    "obj,fragment",
    [
        ({}, "JSON list"),
        ([["a"]], "entry #0"),
        ([["a", "b"], ["a", "c"]], "repeats source"),
        ([["a", 1]], "entry #0"),
    ],
)
def test_map_parse_errors(obj, fragment):
    with pytest.raises(GraphFormatError) as exc:
        map_from_json(obj)
    assert fragment in str(exc.value)


# -- witnesses ----------------------------------------------------------------


def test_witness_round_trip_two_point(k2_witness):
    blob = json.dumps(witness_to_json(k2_witness))
    again = witness_from_json(json.loads(blob))
    assert again == k2_witness
    assert cross_check(again).ok


def test_witness_round_trip_three_point(t112_witness):
    again = witness_from_json(witness_to_json(t112_witness))
    assert again == t112_witness


def test_a_loaded_witness_checks_b0_once(t112_witness):
    # that B0 holds the set assignment's k-subsets is decided once per
    # witness, on its first extension, with the count C(m, k) first; a copy
    # of the witness decides again
    loaded = witness_from_json(json.loads(json.dumps(witness_to_json(t112_witness))))
    assert loaded == t112_witness
    sa = loaded.set_assignment
    maps = list(enumerate_partial_automorphisms(loaded.input, len(loaded.input)))
    assert len(maps) == 22
    want = [extend_isometry(t112_witness, phi) for phi in maps]
    with mock.patch.object(pipeline.math, "comb", wraps=math.comb) as comb:
        def b0_checks():
            return sum(c.args == (len(sa.universe), sa.k) for c in comb.call_args_list)

        assert [extend_isometry(loaded, phi) for phi in maps] == want
        assert b0_checks() == 1
        extend_isometry(dataclasses.replace(loaded), maps[1])
        assert b0_checks() == 2


def test_witness_round_trip_without_assignment():
    w = build_witness(graph_from_triples(["p"], []))
    again = witness_from_json(witness_to_json(w))
    assert again == w


def test_witness_rejects_other_format_versions(k2_witness):
    # /1 stored every clean level, /2 one [i, j, label] triple per edge, /3
    # the facts the loader now derives, /4 the final space, /5 B0's vertex
    # ids and labels, /6 B0's copy, the tower height and levels above B0,
    # and /7 B0's code string; such files are refused
    assert WITNESS_FORMAT == "eppa-witness/8"
    for old in ("eppa-witness/1", "eppa-witness/2", "eppa-witness/3", "eppa-witness/4",
                "eppa-witness/5", "eppa-witness/6", "eppa-witness/7"):
        obj = witness_to_json(k2_witness)
        obj["format"] = old
        with pytest.raises(GraphFormatError) as exc:
            witness_from_json(obj)
        assert old in str(exc.value)
        assert "eppa-witness/8" in str(exc.value)
        assert "build the witness again" in str(exc.value)


def test_a_stored_final_space_is_refused(k2_witness):
    # a /8 file does not store the final space: the loader builds it
    obj = witness_to_json(k2_witness)
    obj["final"] = graph_to_codes(k2_witness.final)
    with pytest.raises(GraphFormatError) as exc:
        witness_from_json(obj)
    assert str(exc.value) == ("witness file must have the keys ['format', 'input'], "
                              "got ['final', 'format', 'input']")


def test_witness_file_stores_each_fact_once(t112_witness):
    obj = json.loads(json.dumps(witness_to_json(t112_witness)))
    assert list(obj) == ["format", "input"]
    assert obj["input"] == graph_to_json(t112_witness.input)

    # the loader builds the rest: the set assignment, B0, its copy, the
    # tower height and the final space
    loaded = witness_from_json(obj)
    assert loaded.set_assignment == build_set_assignment(t112_witness.input)
    assert loaded.final_embedding == loaded.levels[-1].base_embedding
    assert loaded == t112_witness


def test_a_loaded_witness_derives_b0s_copy_and_the_tower_height(k2_witness, t112_witness):
    # B0's copy is the build's (`build_eppa_graph`), and the tower height
    # the input's `compute_N`: 2, 3 and, for the (1,3,3) triangle, 4
    t133 = build_witness(graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("x", "z", 3),
                                                              ("y", "z", 3)]))
    for w, n in ((k2_witness, 2), (t112_witness, 3), (t133, 4)):
        loaded = witness_from_json(json.loads(json.dumps(witness_to_json(w))))
        (base,) = loaded.levels
        assert (base.level, base.bad_sets) == (2, ())
        assert base.base_embedding == build_eppa_graph(loaded.set_assignment)[1]
        assert loaded.n == compute_N(w.input) == n
        assert loaded == w


def test_a_loaded_b0_holds_the_johnson_tables_ids(t112_witness):
    # B0's vertices are the very tuple of the set assignment's Johnson
    # table, and its labels the input's; with B0 alone, the final space
    # holds that tuple too
    loaded = witness_from_json(json.loads(json.dumps(witness_to_json(t112_witness))))
    b0 = loaded.levels[0].graph
    assert b0.vertices is loaded.set_assignment.johnson.ids
    assert b0.spectrum() == loaded.input.spectrum()
    assert loaded.final.vertices is b0.vertices


def test_a_round_trip_checks_its_input_metric_once_per_graph(monkeypatch):
    # the build checks its input, the writer reuses that verdict, kept on
    # the graph, and the loader checks the input it parses: two scans
    scans = []
    real = graphs.metric_violation
    monkeypatch.setattr(graphs, "metric_violation", lambda g: scans.append(g) or real(g))
    w = build_witness(make_t112())
    witness_from_json(json.loads(json.dumps(witness_to_json(w))))
    assert len(scans) == 2
    assert scans[0] is w.input and scans[1] == w.input


WRITER_REFUSAL = "a witness file holds its input alone, so only the input's build can be written"


def with_base(w, **changes):
    """`w` with the fields `changes` replaced on its base level."""
    return dataclasses.replace(w, levels=(dataclasses.replace(w.levels[0], **changes),))


def assert_writer_refuses(w, case):
    with pytest.raises(GraphFormatError) as exc:
        witness_to_json(w)
    assert str(exc.value) == WRITER_REFUSAL, case


def test_the_writer_refuses_a_b0_the_loader_would_not_derive(t112_witness):
    # the file stores the input alone, so a B0 with other labels than the
    # input's would come back with the input's; the writer refuses it
    b0 = t112_witness.levels[0].graph
    doubled = EdgeLabelledGraph._trusted(b0.vertices, tuple(2 * d for d in b0.spectrum()),
                                         b0.codes, b0.edge_count)
    relabelled = with_base(t112_witness, graph=doubled)
    assert relabelled != t112_witness
    assert_writer_refuses(relabelled, "B0 relabelled")


def test_the_writer_refuses_a_copy_the_loader_would_not_derive(t112_witness):
    # with the copies of y and z swapped, B0 is the same graph and the copy
    # an isometric one, but the loader would derive each point's own token
    # set as its copy: the writer refuses the witness
    copy = t112_witness.levels[0].base_embedding
    swapped = PartialMap({"x": copy["x"], "y": copy["z"], "z": copy["y"]})
    w = with_base(t112_witness, base_embedding=swapped)
    assert w != t112_witness
    assert_writer_refuses(w, "copies of y and z swapped")


def test_the_writer_refuses_a_tower_height_or_level_the_loader_would_not_derive(
        k2_witness, t112_witness, demo_witness):
    # the loader derives n = compute_N(input) and builds B0 alone
    t133 = build_witness(graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("x", "z", 3),
                                                              ("y", "z", 3)]))
    refused = {
        "tower height 4": dataclasses.replace(t112_witness, n=4),
        "stacked tower": stacked_witness(t112_witness, demo_witness),
        "a level stored above a clean B0": copied_level_tower(t133),
        "no levels": dataclasses.replace(k2_witness, levels=()),
    }
    for case, w in refused.items():
        assert_writer_refuses(w, case)


def test_the_writer_refuses_what_the_loader_refuses(k2_witness, t112_witness, demo_witness):
    # a file holds the input alone and the loader gives back its build, so
    # every other witness is refused with one message, each of these among
    # them (and those of the three tests above)
    b0 = t112_witness.levels[0].graph
    # the first pair of B0 shares no token, so it has no label; in the
    # final space it is at the distance of class 0, which label 1 is not
    assert b0.codes[0, 1] == 0 and t112_witness.final.codes[0, 1] != 1
    t133 = build_witness(graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("x", "z", 3),
                                                              ("y", "z", 3)]))

    refused = {
        "levels on a one-point input": demo_witness,
        "no set assignment": dataclasses.replace(t112_witness, set_assignment=None),
        "another input's set assignment": dataclasses.replace(
            k2_witness, set_assignment=t112_witness.set_assignment),
        "B0 ids renamed": renamed_off_the_copy(t112_witness)[1],
        "one B0 pair recoded": with_base(t112_witness, graph=recoded(b0, 1)),
        "one final pair recoded": dataclasses.replace(
            t112_witness, final=recoded(t112_witness.final, 1)),
    }
    for case, w in refused.items():
        assert w != t112_witness, case
        assert_writer_refuses(w, case)
    # and a copy of a build is its input's build
    for w in (k2_witness, t112_witness, t133):
        assert witness_to_json(dataclasses.replace(w)) == witness_to_json(w)


def test_witness_rejects_structural_damage(k2_witness, tmp_path, capsys):
    good = witness_to_json(k2_witness)

    broken = json.loads(json.dumps(good))
    broken["input"] = {"vertices": [], "edges": []}
    with pytest.raises(GraphFormatError, match="need at least one vertex"):
        witness_from_json(broken)

    # the loader reads exactly the keys the writer writes: facts that older
    # formats stored, and the loader now derives, are refused, not dropped
    extras = [
        ("b0", "1"),
        ("final", graph_to_codes(k2_witness.final)),
        ("component", list(k2_witness.final.vertices)),
        ("config", {"coherent": True, "search_budget": 10_000_000}),
        ("set_assignment", {"k": 2, "psi": {}, "universe": []}),
        ("levels", []),
        ("n", 2),
    ]
    for key, value in extras:
        broken = {**json.loads(json.dumps(good)), key: value}
        with pytest.raises(GraphFormatError, match=key):
            witness_from_json(broken)
        wpath = str(tmp_path / "w.json")
        dump_json(wpath, broken)
        assert main(["stats", wpath]) == 3, key
        assert key in capsys.readouterr().err


# -- the label-code graph encoding ------------------------------------------------

# twelve labels, so that some graphs need two-digit codes
CODE_LABELS = [Fraction(p, q) for p, q in
               [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (5, 3), (7, 4), (4, 1),
                (5, 1), (6, 1), (9, 7), (11, 1)]]


@st.composite
def coded_graphs(draw):
    """Graphs of 0 to 7 vertices with non-edges and any of twelve labels."""
    names = draw(st.lists(st.text("abxyz{}|;#!0123", min_size=1, max_size=4),
                          max_size=7, unique=True))
    pairs = list(combinations(names, 2))
    labels = draw(st.lists(st.none() | st.sampled_from(CODE_LABELS),
                           min_size=len(pairs), max_size=len(pairs)))
    return EdgeLabelledGraph(names, [(u, v, d) for (u, v), d in zip(pairs, labels) if d])


def read_codes(obj: dict) -> EdgeLabelledGraph:
    """The graph of a `graph_to_codes` object, read code by code: the
    reference reader of the format, which no command reads."""
    labels = [parse_label(d) for d in obj["labels"]]
    width = len(str(len(labels)))
    codes = [int(obj["codes"][i:i + width]) for i in range(0, len(obj["codes"]), width)]
    pairs = combinations(obj["vertices"], 2)
    return EdgeLabelledGraph(obj["vertices"],
                             [(x, y, labels[c - 1]) for (x, y), c in zip(pairs, codes) if c])


def string_gather_codes(g: EdgeLabelledGraph) -> str:
    """The code string as a gather of fixed-width byte strings, one per
    code: the reference for the writer's byte-plane layout."""
    labels = g.spectrum()
    width = len(str(len(labels)))
    digits = np.array([str(c).zfill(width) for c in range(len(labels) + 1)], dtype=f"S{width}")
    count = np.arange(len(g))
    return digits[g.codes[count[:, None] < count]].tobytes().decode("ascii")


# 15 points, 105 pairs: 102 labels, three-digit codes, and three non-edges
WIDE_CODES = EdgeLabelledGraph([f"v{i:02}" for i in range(15)], [
    (f"v{i:02}", f"v{j:02}", Fraction(p, 3))
    for p, (i, j) in enumerate(combinations(range(15), 2)) if p % 35
])


@given(coded_graphs())
@example(WIDE_CODES)
@example(EdgeLabelledGraph([]))
@example(EdgeLabelledGraph(["a"]))
@example(EdgeLabelledGraph(["a", "b"]))
@example(EdgeLabelledGraph(["a", "b"], [("a", "b", Fraction(3, 2))]))
@example(EdgeLabelledGraph([str(i) for i in range(7)], [
    (str(i), str(j), CODE_LABELS[(i + j) % 12]) for i, j in combinations(range(7), 2) if i != 2
]))
def test_codes_round_trip(g):
    obj = json.loads(json.dumps(graph_to_codes(g)))
    assert read_codes(obj) == g
    assert obj["codes"] == string_gather_codes(g)
    width = len(str(len(g.spectrum())))
    assert len(obj["codes"]) == width * len(g) * (len(g) - 1) // 2


def test_codes_shape():
    g = EdgeLabelledGraph(["c", "a", "b"], [("a", "b", Fraction(2)), ("b", "c", Fraction(1, 2))])
    assert graph_to_codes(g) == {"vertices": ["a", "b", "c"], "labels": ["1/2", "2"], "codes": "201"}
    # equal labels held as distinct objects share one code
    twins = EdgeLabelledGraph(["a", "b", "c"], [("a", "b", Fraction(1)), ("a", "c", Fraction(1))])
    assert graph_to_codes(twins) == {"vertices": ["a", "b", "c"], "labels": ["1"], "codes": "110"}
    # 14 labels, ascending in row-major pair order, and 0-1 is no edge
    many = EdgeLabelledGraph([str(i) for i in range(6)], [
        (str(i), str(j), Fraction(10 * i + j)) for i, j in combinations(range(6), 2) if j > 1
    ])
    assert graph_to_codes(many)["codes"] == "00" + "".join(f"{c:02}" for c in range(1, 15))


# -- reports ------------------------------------------------------------------


def test_report_serialization_covers_counterexample_kinds():
    report = VerificationReport()
    report.add("plain", True)
    report.add("with-map", False, "no extension", counterexample=PartialMap({"x": "y"}))
    report.add(
        "with-cycle",
        False,
        counterexample=CycleWitness(("x", "y", "z"), ("y", "z"), Fraction(1)),
    )
    report.add("with-pair", False, counterexample=("u", "v"))
    report.add("with-other", False, counterexample=frozenset({"w"}))
    report.count("things", 5)
    obj = report_to_json(report)
    json.dumps(obj)  # everything must be JSON-serializable
    assert obj["ok"] is False
    assert obj["totals"] == {"things": 5}
    checks = {c["name"]: c for c in obj["checks"]}
    assert checks["plain"]["counterexample"] is None
    assert checks["with-map"]["counterexample"] == [["x", "y"]]
    assert checks["with-cycle"]["counterexample"]["long_edge"] == ["y", "z"]
    assert checks["with-pair"]["counterexample"] == ["u", "v"]
    assert isinstance(checks["with-other"]["counterexample"], str)


# -- files --------------------------------------------------------------------


def test_dump_and_load_round_trip(tmp_path):
    path = str(tmp_path / "g.json")
    dump_json(path, {"vertices": [], "edges": []})
    assert load_json(path) == {"vertices": [], "edges": []}


def test_load_json_errors(tmp_path):
    with pytest.raises(GraphFormatError) as exc:
        load_json(str(tmp_path / "missing.json"))
    assert "cannot read" in str(exc.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    with pytest.raises(GraphFormatError) as exc:
        load_json(str(bad))
    assert "not valid JSON" in str(exc.value)
    # a byte-order mark of UTF-16 is no UTF-8, a deep nest overflows the
    # parser, and Python refuses to convert an integer of over 4,300 digits
    for name, data, message in (("utf16.json", b"\xff\xfe{}", "not UTF-8 text"),
                                ("deep.json", b"[" * 200_000, "too deeply"),
                                ("long.json", b"1" * 5000, "not valid JSON")):
        odd = tmp_path / name
        odd.write_bytes(data)
        with pytest.raises(GraphFormatError, match=message) as exc:
            load_json(str(odd))
        assert str(odd) in str(exc.value)


def test_dump_json_refuses_an_unwritable_path(tmp_path):
    path = str(tmp_path / "absent" / "out.json")
    with pytest.raises(GraphFormatError, match="cannot write") as exc:
        dump_json(path, {})
    assert path in str(exc.value)
