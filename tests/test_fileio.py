"""JSON formats: labels, graphs, maps, witnesses, and reports."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from eppa import (
    CycleWitness,
    GraphFormatError,
    PartialMap,
    VerificationReport,
    cross_check,
)
from eppa.fileio import (
    WITNESS_FORMAT,
    dump_json,
    format_label,
    graph_from_json,
    graph_to_json,
    load_json,
    map_from_json,
    map_to_json,
    parse_label,
    report_to_json,
    witness_from_json,
    witness_to_json,
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


def test_strict_names_toggle():
    obj = {"vertices": ["x;0", "y;1"], "edges": [["x;0", "y;1", "2"]]}
    with pytest.raises(GraphFormatError):
        graph_from_json(obj)
    g = graph_from_json(obj, strict_names=False)
    assert g.label("x;0", "y;1") == 2


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


def test_witness_round_trip_without_assignment():
    from eppa import build_witness, graph_from_triples

    w = build_witness(graph_from_triples(["p"], []))
    again = witness_from_json(witness_to_json(w))
    assert again == w


def test_witness_rejects_other_format_versions(k2_witness):
    # eppa-witness/1 stored every clean level; such files are refused
    obj = witness_to_json(k2_witness)
    obj["format"] = "eppa-witness/1"
    with pytest.raises(GraphFormatError) as exc:
        witness_from_json(obj)
    assert "eppa-witness/1" in str(exc.value)
    assert "eppa-witness/2" in str(exc.value)


def test_witness_rejects_structural_damage(k2_witness):
    good = witness_to_json(k2_witness)

    broken = json.loads(json.dumps(good))
    broken["n"] = "2"
    with pytest.raises(GraphFormatError):
        witness_from_json(broken)

    broken = json.loads(json.dumps(good))
    broken["final"]["edges_ix"][0][0] = 99
    with pytest.raises(GraphFormatError) as exc:
        witness_from_json(broken)
    assert "final" in str(exc.value)

    broken = json.loads(json.dumps(good))
    broken["component"] = "abc"
    with pytest.raises(GraphFormatError):
        witness_from_json(broken)


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
