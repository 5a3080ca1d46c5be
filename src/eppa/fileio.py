"""File formats: graphs, partial maps, witnesses, verification reports.

Graph files are JSON objects `{"vertices": [...], "edges": [[u, v, label]]}`
with labels written as positive fractions in lowest terms ("3" or "3/2",
never "6/4" or "3/1").  Map files are JSON lists of `[source, target]` pairs.
Witness files, under the format version `eppa-witness/8` (files of any
other version are refused), hold a witness as its input alone, as the
witness is a function of its input: loading a file checks the input and
builds it (`pipeline.build_witness`, under the default vertex cap), and
the writer refuses a witness that is not its input's build.  The graph
`eppa eppa-step` writes holds one fixed-width code per vertex pair
(`_code_string`), beside its vertices and labels (`graph_to_codes`).  All
parsers reject structurally invalid input, naming the offending element.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Any

import numpy as np

from .completion import CycleWitness
from .errors import GraphFormatError
from .graphs import EdgeLabelledGraph, PartialMap, graph_from_triples, is_metric_space
from .pipeline import Witness, b0_witness, build_witness
from .verifier import VerificationReport

WITNESS_FORMAT = "eppa-witness/8"

_LABEL_RE = re.compile(r"^(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?$")


def format_label(d: Fraction) -> str:
    return str(d.numerator) if d.denominator == 1 else f"{d.numerator}/{d.denominator}"


def parse_label(text: Any) -> Fraction:
    """Strict label syntax: a positive fraction in lowest terms.

    Integers must not carry a denominator ("3/1" is rejected), fractions
    must be fully reduced ("6/4" is rejected), and zero is not a distance.
    So is a numerator or denominator past Python's digit limit for `int`.
    """
    if not isinstance(text, str):
        raise GraphFormatError(f"label must be a string, got {text!r}")
    match = _LABEL_RE.match(text)
    if not match:
        raise GraphFormatError(f"malformed label {text!r}")
    try:
        p = int(match.group(1))
        q = int(match.group(2)) if match.group(2) else None
    except ValueError as exc:
        raise GraphFormatError(f"label {text[:20] + '...'!r} ({len(text)} characters) "
                               f"is too long to read: {exc}") from None
    if p == 0:
        raise GraphFormatError(f"label {text!r} is not a positive distance")
    if q is not None:
        if q == 1:
            raise GraphFormatError(f"label {text!r} is not in lowest terms (write {p})")
        if math.gcd(p, q) != 1:
            raise GraphFormatError(f"label {text!r} is not in lowest terms")
        return Fraction(p, q)
    return Fraction(p)


def graph_to_json(g: EdgeLabelledGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v, format_label(d)] for u, v, d in g.edges()],
    }


def graph_from_json(obj: Any) -> EdgeLabelledGraph:
    """Parse the named graph format, validating every element, vertex
    names included."""
    if not isinstance(obj, dict):
        raise GraphFormatError("graph file must be a JSON object")
    unknown = set(obj) - {"vertices", "edges"}
    if unknown:
        raise GraphFormatError(f"unexpected graph keys {sorted(unknown)}")
    verts = obj.get("vertices")
    edges = obj.get("edges")
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise GraphFormatError("\"vertices\" must be a list of strings")
    if not isinstance(edges, list):
        raise GraphFormatError("\"edges\" must be a list")
    triples = []
    for pos, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 3 and isinstance(e[0], str) and isinstance(e[1], str)):
            raise GraphFormatError(f"edge #{pos} must be [vertex, vertex, label], got {e!r}")
        try:
            triples.append((e[0], e[1], parse_label(e[2])))
        except GraphFormatError as exc:
            raise GraphFormatError(f"edge #{pos} [{e[0]!r}, {e[1]!r}]: {exc}") from None
    return graph_from_triples(verts, triples)


def map_to_json(f: PartialMap) -> list:
    return [[u, v] for u, v in f.items()]


def map_from_json(obj: Any) -> PartialMap:
    if not isinstance(obj, list):
        raise GraphFormatError("a map must be a JSON list of [source, target] pairs")
    table = {}
    for pos, pair in enumerate(obj):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            raise GraphFormatError(f"map entry #{pos} must be [source, target], got {pair!r}")
        if pair[0] in table:
            raise GraphFormatError(f"map entry #{pos} repeats source {pair[0]!r}")
        table[pair[0]] = pair[1]
    return PartialMap(table)


# -- the label-code graph encoding of `eppa eppa-step` -------------------------


def graph_to_codes(g: EdgeLabelledGraph) -> dict:
    """The graph as `{"vertices", "labels", "codes"}`: its vertices and its
    distinct labels, both ascending, and its code string (`_code_string`)."""
    return {"vertices": list(g.vertices), "labels": [format_label(d) for d in g.spectrum()],
            "codes": _code_string(g)}


def _code_string(g: EdgeLabelledGraph) -> str:
    """One fixed-width decimal code per vertex pair i < j, row-major in
    vertex order, read off the code matrix; code 0 is a non-edge and code c
    is the c-th label of the spectrum.  The width is the digit count of the
    number of labels.  The string is laid out on a uint8 byte plane, one row
    of ASCII digits per pair: a one-digit code c is the byte "0" + c, and
    wider codes, for ten labels or more, take their rows of a (labels + 1,
    width) table of the digits of every code."""
    count = len(g.spectrum())
    width = len(str(count))
    # the pairs i < j, which indexing lists row-major, compared in the
    # narrowest type that counts the vertices
    order = np.arange(len(g), dtype=np.min_scalar_type(len(g)))
    upper = g.codes[order[:, None] < order]
    if width == 1:
        codes = np.add(upper, ord("0"), dtype=np.uint8)
    else:
        digits = "".join(str(c).zfill(width) for c in range(count + 1)).encode("ascii")
        codes = np.frombuffer(digits, dtype=np.uint8).reshape(-1, width).take(upper, axis=0)
    return codes.tobytes().decode("ascii")


def _check_input(a: EdgeLabelledGraph) -> None:
    """The writer's and the loader's rule on the input: a metric space
    with at least one point."""
    if len(a) == 0:
        raise GraphFormatError("need at least one vertex")
    if not is_metric_space(a):
        raise GraphFormatError("the input is not a metric space")


def _cycle_to_json(w: CycleWitness) -> dict:
    return {
        "vertices": list(w.vertices),
        "long_edge": list(w.long_edge),
        "deficit": format_label(w.deficit),
    }


def witness_to_json(w: Witness) -> dict:
    """The file of a witness: its input.  The loader builds the witness
    again, so one that is not its input's build is refused.  That build is
    derived on the witness's own set assignment (`pipeline.b0_witness`),
    which must be the one made for the input, none for a single point."""
    a, sa = w.input, w.set_assignment
    _check_input(a)
    own = sa is None if len(a) == 1 else sa is not None and sa.graph == a
    if own and w == b0_witness(a, sa):
        return {"format": WITNESS_FORMAT, "input": graph_to_json(a)}
    raise GraphFormatError("a witness file holds its input alone, so only the input's build "
                           "can be written")


def witness_from_json(obj: Any) -> Witness:
    """The witness of a file: once its keys and its input are checked, the
    build of that input under the default vertex cap."""
    if not isinstance(obj, dict):
        raise GraphFormatError("witness file must be a JSON object")
    if obj.get("format") != WITNESS_FORMAT:
        raise GraphFormatError(
            f"unsupported witness format {obj.get('format')!r}, expected {WITNESS_FORMAT!r}"
            " (build the witness again)"
        )
    if set(obj) != {"format", "input"}:
        raise GraphFormatError("witness file must have the keys ['format', 'input'], "
                               f"got {sorted(obj)}")
    a = graph_from_json(obj["input"])
    _check_input(a)
    return build_witness(a)


def _counterexample_to_json(value: object) -> object:
    if value is None:
        return None
    if isinstance(value, PartialMap):
        return map_to_json(value)
    if isinstance(value, CycleWitness):
        return _cycle_to_json(value)
    if isinstance(value, (tuple, list)):
        return list(value)
    return str(value)


def report_to_json(r: VerificationReport) -> dict:
    return {
        "ok": r.ok,
        "budget_exhausted": r.budget_exhausted,
        "totals": dict(r.totals),
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "detail": c.detail,
                "skipped": c.skipped,
                "counterexample": _counterexample_to_json(c.counterexample),
            }
            for c in r.results
        ],
    }


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise GraphFormatError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise GraphFormatError(f"{path} nests its JSON too deeply to read") from None


def dump_json(path: str, obj: Any) -> None:
    text = json.dumps(obj, separators=(",", ":")) + "\n"  # one write, not json.dump's chunks
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GraphFormatError(f"cannot write {path}: {exc}") from None
