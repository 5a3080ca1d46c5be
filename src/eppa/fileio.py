"""File formats: graphs, partial maps, witnesses, verification reports.

Graph files are JSON objects `{"vertices": [...], "edges": [[u, v, label]]}`
with labels written as positive fractions in lowest terms ("3" or "3/2",
never "6/4" or "3/1").  Map files are JSON lists of `[source, target]` pairs.
Witness files, under the format version `eppa-witness/7` (files of any
other version are refused), hold a `build_witness` result as exactly two
facts: its input and B0's code string, null for a one-point input, whose
witness is the input itself.  B0's vertex count n is read off the string's
length and checked against the input before any token is laid out.  The
loader derives the rest with the build's own code: the set assignment, B0's
vertices (its Johnson table's very tuple of ids), labels (the input's) and
copy (`setrep.subset_copy`), the tower height (`pipeline.compute_N`) and
the final space (`pipeline.final_space`); it changes no graph it decodes.
So the writer refuses a witness that the loader would not give back, such
as one with a level above B0.  A code string holds one fixed-width code per
vertex pair (`_code_string`), which stays compact on dense graphs; the
graph `eppa eppa-step` writes holds one too, beside its vertices and labels
(`graph_to_codes`).  Both ends of that codec work on uint8 byte planes, one
row of ASCII digits per vertex pair: the writer adds "0" to one-digit codes
and takes wider ones from a table of the digits of every code, and the
loader decodes the rows into the narrowest unsigned type and scatters them
into the code matrix (`_decode_codes`).  All parsers reject structurally
invalid input, naming the offending element.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import combinations, islice
from typing import Any

import numpy as np

from .completion import CycleWitness
from .errors import GraphFormatError, VertexCapExceeded
from .graphs import EdgeLabelledGraph, PartialMap, graph_from_triples, is_metric_space
from .levels import LevelGraph
from .pipeline import Witness, compute_N, final_space
from .setrep import build_set_assignment, subset_copy, subset_graph_size
from .verifier import VerificationReport

WITNESS_FORMAT = "eppa-witness/7"

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


# -- label-code graph encoding for witness internals --------------------------


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
    upper = g.codes[_pairs_mask(len(g))]
    if width == 1:
        codes = np.add(upper, ord("0"), dtype=np.uint8)
    else:
        digits = "".join(str(c).zfill(width) for c in range(count + 1)).encode("ascii")
        codes = np.frombuffer(digits, dtype=np.uint8).reshape(-1, width).take(upper, axis=0)
    return codes.tobytes().decode("ascii")


def _pairs_mask(n: int) -> np.ndarray:
    """The n x n mask of the pairs i < j, which indexing lists row-major,
    compared in the narrowest type that counts the vertices."""
    count = np.arange(n, dtype=np.min_scalar_type(n))
    return count[:, None] < count


def _decode_codes(codes: Any, verts: tuple[str, ...], labels: tuple[Fraction, ...],
                  what: str) -> EdgeLabelledGraph:
    """The graph on `verts` and `labels` whose pairs the code string
    `codes` gives, as `_code_string` writes it, checking its length, that
    every code names a label and that every label is used.  The codes are
    decoded on a byte plane, one uint8 row of digits per pair, into values
    of the narrowest unsigned type that holds them, and scattered straight
    into the upper triangle of the code matrix of the graph, which one OR
    with its transpose makes symmetric."""
    n = len(verts)
    width = len(str(len(labels)))
    if not isinstance(codes, str) or len(codes) != width * n * (n - 1) // 2:
        raise GraphFormatError(
            f"{what}: \"codes\" must be a string of {width * n * (n - 1) // 2} digits "
            f"({width} per vertex pair)"
        )
    # one row of digits per pair, one byte per character: a character past
    # ASCII becomes "?", and one below "0" wraps past 9 too
    text = codes.encode("ascii", "replace")
    digits = np.frombuffer(text, dtype=np.uint8).reshape(-1, width) - ord("0")
    values = digits[:, 0].astype(np.min_scalar_type(10 ** width - 1), copy=False)
    for column in digits.T[1:]:  # exact wherever every digit is one
        values = values * 10 + column
    if digits.max(initial=0) > 9 or values.max(initial=0) > len(labels):
        p = int(np.flatnonzero((digits > 9).any(axis=1) | (values > len(labels)))[0])
        x, y = next(islice(combinations(verts, 2), p, None))
        raise GraphFormatError(
            f"{what}: code {codes[p * width:(p + 1) * width]!r} of pair ({x!r}, {y!r}) "
            "names no label"
        )
    # pairs per code: one vectorised pass per code while there are at most
    # ten, as bincount stalls on the long runs of one code that subset
    # graphs have; wider codes keep one bincount, linear in the pairs
    if width == 1:
        counts = np.array([np.count_nonzero(values == c) for c in range(len(labels) + 1)])
    else:
        counts = np.bincount(values, minlength=len(labels) + 1)
    if not counts[1:].all():  # the labels must be the graph's spectrum
        unused = labels[np.argmin(counts[1:])]
        raise GraphFormatError(f"{what}: label {format_label(unused)} is on no pair")
    upper = np.zeros((n, n), dtype=np.min_scalar_type(len(labels)))
    upper[_pairs_mask(n)] = values
    return EdgeLabelledGraph._trusted(verts, labels, upper | upper.T,
                                      len(values) - int(counts[0]))


def _check_input(a: EdgeLabelledGraph) -> None:
    """The writer's and the loader's rule on the input: a metric space
    with at least one point."""
    if len(a) == 0:
        raise GraphFormatError("need at least one vertex")
    if not is_metric_space(a):
        raise GraphFormatError("the input is not a metric space")


def _check_b0_size(a: EdgeLabelledGraph, codes: Any) -> None:
    """Check the vertex count n of B0 read off the length of its code
    string: C(n, 2) codes as wide as the digit count of the input's label
    count.  Refused unless it is the C(m, k) of the input's set assignment,
    counted off the input's codes before any token is laid out
    (`subset_graph_size`), so that no file makes a Johnson table larger
    than its B0."""
    width = len(str(len(a.spectrum())))
    pairs, rest = divmod(len(codes), width) if isinstance(codes, str) else (0, 1)
    n = (1 + math.isqrt(1 + 8 * pairs)) // 2
    if rest or n * (n - 1) // 2 != pairs:
        raise GraphFormatError(f"\"b0\" must be a string of {width} * C(n, 2) digits, "
                               f"{width} per pair of B0's n vertices")
    try:
        count = subset_graph_size(a, n)
    except VertexCapExceeded as exc:  # more than stored
        count = exc.size
    if count != n:
        raise GraphFormatError(f"\"b0\": B0 of this input has {count} vertices, not {n}")


def _cycle_to_json(w: CycleWitness) -> dict:
    return {
        "vertices": list(w.vertices),
        "long_edge": list(w.long_edge),
        "deficit": format_label(w.deficit),
    }


def witness_to_json(w: Witness) -> dict:
    """The file of a witness: its input and B0's code string, or null for a
    one-point input.  The loader derives everything else, so a witness it
    would not give back is refused: a level above B0, a B0 whose ids,
    labels or copy are not the set assignment's or that is not level 2
    without bad sets, a tower height other than `compute_N`'s, a witness of
    two or more points without its set assignment, and levels on a
    one-point input."""
    a, sa, levels = w.input, w.set_assignment, w.levels
    _check_input(a)
    if len(a) == 1 and levels:
        raise GraphFormatError("a one-point input has no levels: its witness is the input")
    if w.n != compute_N(a):
        raise GraphFormatError(f"the tower height is {w.n}, not {compute_N(a)}, the one the "
                               "loader derives from the input's distances")
    if len(a) == 1:
        return {"format": WITNESS_FORMAT, "input": graph_to_json(a), "b0": None}
    if sa is None:  # only a witness made by hand lacks it
        raise GraphFormatError("a witness of two or more points carries its set assignment")
    if len(levels) != 1:
        raise GraphFormatError(f"a witness file stores B0 alone, not {len(levels)} levels")
    base = levels[0]
    if (base.graph.vertices != sa.johnson.ids or base.graph.spectrum() != a.spectrum()
            or base.base_embedding != subset_copy(sa) or (base.level, base.bad_sets) != (2, ())):
        raise GraphFormatError("B0's vertices must be the k-subsets of the set assignment's "
                               "tokens, its labels the input's and its copy the points' token "
                               "sets, at level 2 without bad sets, which the file does not store")
    return {"format": WITNESS_FORMAT, "input": graph_to_json(a), "b0": _code_string(base.graph)}


def witness_from_json(obj: Any) -> Witness:
    """The witness of a file.  B0's vertex count is read off its code
    string and checked before any token is laid out (`_check_b0_size`); its
    vertices are the ids of the set assignment's Johnson table, the very
    tuple, its labels the input's spectrum and its copy the build's
    (`subset_copy`).  The tower height (`compute_N`) and the final space
    (`final_space`) are derived with the build's own code too."""
    if not isinstance(obj, dict):
        raise GraphFormatError("witness file must be a JSON object")
    if obj.get("format") != WITNESS_FORMAT:
        raise GraphFormatError(
            f"unsupported witness format {obj.get('format')!r}, expected {WITNESS_FORMAT!r}"
            " (build the witness again)"
        )
    if set(obj) != {"format", "input", "b0"}:
        raise GraphFormatError("witness file must have the keys ['format', 'input', 'b0'], "
                               f"got {sorted(obj)}")
    a = graph_from_json(obj["input"])
    _check_input(a)
    if len(a) == 1:
        if obj["b0"] is not None:
            raise GraphFormatError("a one-point input has no B0: its witness is the input, "
                                   "and \"b0\" is null")
        return Witness(input=a, set_assignment=None, levels=(), final=a, n=compute_N(a))
    _check_b0_size(a, obj["b0"])
    sa = build_set_assignment(a)
    b0 = _decode_codes(obj["b0"], sa.johnson.ids, a.spectrum(), "\"b0\"")
    levels = (LevelGraph(graph=b0, level=2, base_embedding=subset_copy(sa), bad_sets=()),)
    return Witness(input=a, set_assignment=sa, levels=levels, final=final_space(a, sa, levels),
                   n=compute_N(a))


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
