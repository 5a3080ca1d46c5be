"""File formats: graphs, partial maps, witnesses, verification reports.

Graph files are JSON objects `{"vertices": [...], "edges": [[u, v, label]]}`
with labels written as positive fractions in lowest terms ("3" or "3/2",
never "6/4" or "3/1").  Map files are JSON lists of `[source, target]` pairs.
Witness files hold each fact of a `build_witness` result once, under the
format version `eppa-witness/6`; files of any other version are refused.
They store the input, the stored levels (each with its graph, its copy of
the input and its bad sets as cycles) and the tower height, under exactly
the keys `witness_to_json` writes.  B0, level #0, is stored as its code
string alone: its vertices are the k-subsets of the set assignment in id
order and its labels the input's, and its vertex count n is read off the
string's length and checked against the input before any token is laid
out.  The writer and the loader read one list of shape rules
(`_check_shape`, `_check_levels`), so the writer refuses what the loader
would, a B0 with other vertices or labels included; above B0, each vertex
id `x;bits` must carry one bit per stored bad set through x.  The loader
derives the rest: the set assignment from the input, B0's vertices from
its Johnson table (the very tuple of ids the final space uses), the copy
in the final space from the top level, and the final space itself with
the build's own code (`pipeline.final_space`).  It changes no graph it
decodes.  Graphs are written as one string of label codes each
(`graph_to_codes`), which stays compact on dense graphs.  Both ends of
that codec work on uint8 byte planes, one row of ASCII digits per vertex
pair: the writer adds "0" to one-digit codes and takes wider ones from a
table of the digits of every code, and the loader decodes the rows into
the narrowest unsigned type and scatters them into the code matrix
(`_decode_codes`).  All parsers reject structurally
invalid input, naming the offending element.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import combinations, islice, repeat
from operator import ge
from typing import Any

import numpy as np

from .completion import CycleWitness
from .errors import GraphFormatError, InvalidMap, VertexCapExceeded
from .graphs import (
    EdgeLabelledGraph, PartialMap, _check_core_names, graph_from_triples, is_metric_space,
)
from .levels import LevelGraph, parse_level_vertex
from .pipeline import Witness, final_space
from .setrep import build_set_assignment, subset_graph_size
from .verifier import VerificationReport

WITNESS_FORMAT = "eppa-witness/6"

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


def graph_from_codes(obj: Any, what: str) -> EdgeLabelledGraph:
    """Parse `graph_to_codes` output, checking names and the order of
    vertices and labels, then its code string (`_decode_codes`)."""
    if not isinstance(obj, dict) or set(obj) != {"vertices", "labels", "codes"}:
        raise GraphFormatError(f"{what}: expected a graph object with \"vertices\", "
                               "\"labels\" and \"codes\"")
    verts = tuple(_strings(obj["vertices"], f"{what}: \"vertices\""))
    texts = _strings(obj["labels"], f"{what}: \"labels\"")
    try:
        _check_core_names(verts)
        labels = tuple(parse_label(text) for text in texts)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{what}: {exc}") from None
    if any(map(ge, verts, verts[1:])):
        raise GraphFormatError(f"{what}: vertices must be strictly ascending")
    if any(map(ge, labels, labels[1:])):
        raise GraphFormatError(f"{what}: labels must be strictly ascending")
    return _decode_codes(obj["codes"], verts, labels, what)


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


def _b0_size(a: EdgeLabelledGraph, obj: Any) -> int:
    """The vertex count n of B0 as level #0 stores it, its code string
    alone, read off that string's length: C(n, 2) codes as wide as the
    digit count of the input's label count."""
    if not isinstance(obj, dict) or set(obj) != {"codes"}:
        raise GraphFormatError("level #0: B0 is stored as {\"codes\": ...} alone; its "
                               "vertices and labels are the input's, derived on load")
    codes = obj["codes"]
    width = len(str(len(a.spectrum())))
    pairs, rest = divmod(len(codes), width) if isinstance(codes, str) else (0, 1)
    n = (1 + math.isqrt(1 + 8 * pairs)) // 2
    if rest or n * (n - 1) // 2 != pairs:
        raise GraphFormatError(f"level #0: \"codes\" must be a string of {width} * C(n, 2) "
                               f"digits, {width} per pair of B0's n vertices")
    return n


def _fields(obj: Any, keys: tuple[str, ...], what: str) -> dict:
    """obj, when it is an object with exactly the given keys."""
    if not isinstance(obj, dict):
        raise GraphFormatError(f"{what} must be an object")
    if set(obj) != set(keys):
        raise GraphFormatError(f"{what} must have the keys {list(keys)}, got {sorted(obj)}")
    return obj


def _list(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise GraphFormatError(f"{what} must be a list")
    return obj


def _strings(obj: Any, what: str, size: int | None = None) -> list[str]:
    """obj, when it is a list of strings (of the given length)."""
    if not (isinstance(obj, list) and all(map(isinstance, obj, repeat(str)))
            and size in (None, len(obj))):
        count = "" if size is None else f"{size} "
        raise GraphFormatError(f"{what} must be a list of {count}strings")
    return obj


def _cycle_to_json(w: CycleWitness) -> dict:
    return {
        "vertices": list(w.vertices),
        "long_edge": list(w.long_edge),
        "deficit": format_label(w.deficit),
    }


def _bad_set_from_json(obj: Any, what: str) -> CycleWitness:
    """A bad set, which is stored as its cycle."""
    obj = _fields(obj, ("vertices", "long_edge", "deficit"), what)
    return CycleWitness(
        vertices=tuple(_strings(obj["vertices"], f"{what} vertices")),
        long_edge=tuple(_strings(obj["long_edge"], f"{what} long_edge", 2)),
        deficit=parse_label(obj["deficit"]),
    )


def _level_to_json(lvl: LevelGraph, base: bool = False) -> dict:
    """A stored level as it is written; B0, the base, as its code string
    alone, as its vertices and labels are the set assignment's."""
    return {
        "level": lvl.level,
        "graph": {"codes": _code_string(lvl.graph)} if base else graph_to_codes(lvl.graph),
        "base_embedding": map_to_json(lvl.base_embedding),
        "bad_sets": [_cycle_to_json(m) for m in lvl.bad_sets],
    }


def _level_from_json(obj: Any, pos: int) -> tuple[Any, dict]:
    """Stored level #pos as it is written: its graph object, still encoded,
    and its other fields, parsed, as `LevelGraph` takes them.  The loader
    decodes the graph once the shape rules that tie the level to the
    others hold (`_check_shape`)."""
    what = f"level #{pos}"
    obj = _fields(obj, ("level", "graph", "base_embedding", "bad_sets"), what)
    bad = tuple(_bad_set_from_json(m, f"{what}: bad set #{j}")
                for j, m in enumerate(_list(obj["bad_sets"], f"{what}: \"bad_sets\"")))
    try:
        embedding = map_from_json(obj["base_embedding"])
    except (GraphFormatError, InvalidMap) as exc:
        raise GraphFormatError(f"{what}: \"base_embedding\": {exc}") from None
    return obj["graph"], {"level": obj["level"], "base_embedding": embedding, "bad_sets": bad}


def _check_shape(a: EdgeLabelledGraph, n, heads: list[tuple[Any, tuple]], b0_size: int) -> None:
    """Check the shape rules of a witness file that come before any level
    is decoded; the writer and the loader both read them, and then
    `_check_levels`.  `heads` holds each stored level's number and bad sets,
    bottom-up, and `b0_size` is B0's vertex count.  The input is a metric
    space.  A one-point input has no levels, and any other stores B0 with
    the C(m, k) vertices of its set assignment, counted off the input's
    codes before any token is laid out (`subset_graph_size`).  The base is
    level 2 without bad sets, and levels rise strictly up to `n`."""
    if len(a) == 0:
        raise GraphFormatError("need at least one vertex")
    if not is_metric_space(a):
        raise GraphFormatError("the input is not a metric space")
    if type(n) is not int or n < 2:
        raise GraphFormatError(f"witness field \"n\" must be an integer of at least 2, got {n!r}")
    low = 2
    for pos, (level, bad) in enumerate(heads):
        high = 2 if pos == 0 else n
        if type(level) is not int or not low <= level <= high:  # a bool is no level
            raise GraphFormatError(f"level #{pos}: \"level\" must be an integer from {low} "
                                   f"to {high}, got {level!r}")
        if pos == 0 and bad:
            raise GraphFormatError("level #0: the base level has no bad sets below it")
        low = level + 1
    if len(a) == 1:
        if heads:
            raise GraphFormatError("a one-point input has no levels: its witness is the input")
        return
    if not heads:
        raise GraphFormatError("an input of two or more points stores B0 as level #0")
    try:
        count = subset_graph_size(a, b0_size)
    except VertexCapExceeded as exc:  # more than stored
        count = exc.size
    if count != b0_size:
        raise GraphFormatError(f"level #0: B0 of this input has {count} vertices, not {b0_size}")


def _check_levels(a: EdgeLabelledGraph, levels: tuple[LevelGraph, ...]) -> None:
    """The shape rules that read the stored levels themselves: each level's
    copy is defined on exactly the input's points, each vertex id `x;bits`
    of a level above the base carries one bit per stored bad set through x,
    and the top level's copy names its vertices."""
    for pos, lvl in enumerate(levels):
        if lvl.base_embedding.domain() != a.vertices:
            raise GraphFormatError(f"level #{pos}: the copy is defined on "
                                   f"{list(lvl.base_embedding.domain())}, not on the input's "
                                   f"points {list(a.vertices)}")
    for pos, lvl in enumerate(levels[1:], 1):
        through = lvl.membership()
        for v in lvl.graph.vertices:
            try:
                base, bits = parse_level_vertex(v)
            except GraphFormatError as exc:
                raise GraphFormatError(f"level #{pos}: {exc}") from None
            want = len(through.get(base, ()))
            if len(bits) != want:
                raise GraphFormatError(f"level #{pos}: vertex {v!r} carries {len(bits)} bits, "
                                       f"not one per stored bad set through {base!r} ({want})")
    if levels:
        top = levels[-1]
        for x, v in top.base_embedding.items():
            if v not in top.graph:
                raise GraphFormatError(f"level #{len(levels) - 1}: the copy of {x!r} is {v!r}, "
                                       "which is no vertex of the level")


def witness_to_json(w: Witness) -> dict:
    """The file of a witness.  B0 is written as its code string alone, so
    a B0 whose vertices are not the k-subsets of the set assignment, in id
    order, or whose labels are not the input's is refused: the loader
    would derive other ones."""
    sa, levels = w.set_assignment, w.levels
    if sa is None and len(w.input) > 1:  # only a witness made by hand lacks it
        raise GraphFormatError("a witness of two or more points carries its set assignment")
    _check_shape(w.input, w.n, [(lvl.level, lvl.bad_sets) for lvl in levels],
                 len(levels[0].graph) if levels else 0)
    if levels:
        b0 = levels[0].graph
        if b0.vertices != sa.johnson.ids or b0.spectrum() != w.input.spectrum():
            raise GraphFormatError("level #0: B0's vertices must be the k-subsets of the set "
                                   "assignment's tokens and its labels the input's, which the "
                                   "file does not store")
    _check_levels(w.input, levels)
    return {"format": WITNESS_FORMAT, "input": graph_to_json(w.input),
            "levels": [_level_to_json(lvl, pos == 0) for pos, lvl in enumerate(levels)],
            "n": w.n}


def witness_from_json(obj: Any) -> Witness:
    """The witness of a file.  B0's vertices are the ids of its set
    assignment's Johnson table, the very tuple, and its labels the input's
    spectrum; its vertex count is read off its code string (`_b0_size`)
    and checked before any token is laid out (`_check_shape`).  The final
    space is derived (`final_space`)."""
    if not isinstance(obj, dict):
        raise GraphFormatError("witness file must be a JSON object")
    if obj.get("format") != WITNESS_FORMAT:
        raise GraphFormatError(
            f"unsupported witness format {obj.get('format')!r}, expected {WITNESS_FORMAT!r}"
            " (build the witness again)"
        )
    obj = _fields(obj, ("format", "input", "levels", "n"), "witness file")
    a = graph_from_json(obj["input"])
    stored = [_level_from_json(lvl, pos)
              for pos, lvl in enumerate(_list(obj["levels"], "witness \"levels\""))]
    above = [graph_from_codes(graph, f"level #{pos}")
             for pos, (graph, _) in enumerate(stored[1:], 1)]
    _check_shape(a, obj["n"], [(fields["level"], fields["bad_sets"]) for _, fields in stored],
                 _b0_size(a, stored[0][0]) if stored else 0)
    sa = build_set_assignment(a) if len(a) > 1 else None
    graphs = [_decode_codes(stored[0][0]["codes"], sa.johnson.ids, a.spectrum(), "level #0"),
              *above] if stored else []
    levels = tuple(LevelGraph(graph=graph, **fields) for graph, (_, fields) in zip(graphs, stored))
    _check_levels(a, levels)
    return Witness(input=a, set_assignment=sa, levels=levels, final=final_space(a, sa, levels),
                   n=obj["n"])


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
