"""Edge-labelled graphs over positive rationals and structure-preserving maps.

A graph here is undirected and loop-free, and every edge carries one
positive ``fractions.Fraction`` label.  It is held as three things: its
sorted vertices, its spectrum (the distinct labels, ascending) and one
symmetric matrix of label codes, where code c on a pair is the c-th label
of the spectrum and code 0 is a non-edge (and the diagonal).  Every label of
the spectrum is on some edge, so equal graphs have equal matrices.  Exact
integer labels, where an algorithm needs them, come from scaling the
spectrum (`scaled_spectrum`, `scaled_matrix`).  A finite metric space is
the special case of a complete graph whose labels satisfy the triangle
inequality; most operations in this package stay in the larger category and
only a few demand metricity.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import InvalidMap, GraphFormatError, UnknownVertex

# Vertex names of user-supplied graphs travel through composite identifiers
# of derived graphs, so a handful of structural characters (and whitespace)
# are reserved at the input boundary.  Derived graphs built by this package
# use those characters in their machine-generated ids, hence the split
# between the strict boundary rule and the permissive core rule.
# Both are matched whole (`fullmatch`): "$" would also match before a final
# newline.
_NAME_RE = re.compile(r"[^\s(){}#!|,;~]+")
_CORE_NAME_RE = re.compile(r"\S+")

# The integer types of a scaled matrix, narrowest first, each with its largest value.
_INT_TYPES = tuple((t, np.iinfo(t).max) for t in (np.int8, np.int16, np.int32, np.int64))


def check_vertex_name(name: str) -> str:
    """Strict rule for user-supplied vertex names."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise GraphFormatError(
            f"bad vertex name {name!r}: names are nonempty strings without "
            "whitespace or any of ( ) { } # ! | , ; ~"
        )
    return name


def _check_core_name(name: str) -> str:
    if not isinstance(name, str) or not _CORE_NAME_RE.fullmatch(name):
        raise GraphFormatError(f"bad vertex name {name!r}: names are nonempty, no whitespace")
    return name


def as_label(value) -> Fraction:
    """Coerce to a positive Fraction; anything else is a format error."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise GraphFormatError(f"edge label {value!r} is not an exact rational")
    label = value if isinstance(value, Fraction) else Fraction(value)
    if label <= 0:
        raise GraphFormatError(f"edge label {label} is not positive")
    return label


class EdgeLabelledGraph:
    """Immutable undirected graph with positive rational edge labels.

    Vertices are strings; construction sorts them and validates every edge.
    Graphs derived inside the package (subset graphs, levels, induced
    subgraphs, completions, decoded witness graphs) come from `_trusted`,
    which validates nothing.  `codes` is the n x n matrix of label codes,
    of the narrowest unsigned type that holds the number of labels; the
    queries below read it.  A graph holds nothing else, bar the verdict of
    `is_metric_space` once it is asked: what a subset graph knows of its
    tokens lives in the Johnson table of its set assignment
    (`setrep.JohnsonTable`).
    """

    __slots__ = ("vertices", "codes", "edge_count", "_spectrum", "_index", "_metric")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, Fraction]] = ()):
        names = [_check_core_name(v) for v in vertices]
        verts = tuple(sorted(names))
        if len(set(verts)) != len(verts):
            raise GraphFormatError("duplicate vertex names")
        index = dict(zip(verts, range(len(verts))))
        pairs: dict[tuple[int, int], Fraction] = {}
        for u, v, label in edges:
            if u not in index or v not in index:
                raise GraphFormatError(f"edge ({u!r}, {v!r}) mentions an unknown vertex")
            if u == v:
                raise GraphFormatError(f"loop at {u!r}")
            label = as_label(label)
            i, j = sorted((index[u], index[v]))
            if (i, j) in pairs:
                raise GraphFormatError(f"duplicate edge ({u!r}, {v!r})")
            pairs[i, j] = label
        # keyed by exact value as a pair of ints, which hash far faster than
        # Fractions
        by_value = {(d.numerator, d.denominator): d for d in pairs.values()}
        spectrum = tuple(sorted(by_value.values()))
        code = {(d.numerator, d.denominator): c for c, d in enumerate(spectrum, 1)}
        n = len(verts)
        rows = [[0] * n for _ in verts]
        for (i, j), label in pairs.items():
            rows[i][j] = rows[j][i] = code[label.numerator, label.denominator]
        codes = np.array(rows, dtype=np.min_scalar_type(len(spectrum))).reshape(n, n)
        self._set(verts, spectrum, codes, len(pairs))

    def _set(self, vertices: tuple[str, ...], spectrum: tuple[Fraction, ...],
             codes: np.ndarray, edge_count: int) -> None:
        self.vertices = vertices
        self._spectrum = spectrum
        codes.flags.writeable = False  # graphs are never mutated, and may share it
        self.codes = codes
        self.edge_count = edge_count
        self._index = dict(zip(vertices, range(len(vertices))))
        self._metric: bool | None = None  # `is_metric_space`'s verdict, once asked

    @classmethod
    def _trusted(cls, vertices: tuple[str, ...], spectrum: tuple[Fraction, ...],
                 codes: np.ndarray, edge_count: int | None = None) -> "EdgeLabelledGraph":
        """Constructor for graphs derived inside this package; validates
        nothing.  `vertices` are sorted distinct ids, `spectrum` distinct
        labels ascending, each of them on some pair of `codes`, a symmetric
        code matrix with a zero diagonal.  The edge count is counted when
        not given.  The matrix is made read-only and may be shared with
        other graphs.
        """
        g = object.__new__(cls)
        if edge_count is None:
            edge_count = int(np.count_nonzero(codes)) // 2
        g._set(vertices, spectrum, codes, edge_count)
        return g

    # -- basic queries ---------------------------------------------------

    def __contains__(self, vertex: str) -> bool:
        return vertex in self._index

    def __len__(self) -> int:
        return len(self.vertices)

    def position(self, vertex: str) -> int:
        """Index of a vertex in `vertices`, the row of `codes` it owns."""
        try:
            return self._index[vertex]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {vertex!r}") from None

    def label(self, u: str, v: str) -> Fraction | None:
        """Label of edge {u, v}, or None when the pair is not an edge."""
        code = self.codes.item(self.position(u), self.position(v))
        return self._spectrum[code - 1] if code else None

    def _row(self, u: str) -> Iterator[tuple[str, int]]:
        """(vertex, code of its pair with u), in vertex order."""
        return zip(self.vertices, self.codes[self.position(u)].tolist())

    def adjacency(self, u: str) -> Mapping[str, Fraction]:
        """Neighbour -> label, in vertex order."""
        return {v: self._spectrum[code - 1] for v, code in self._row(u) if code}

    def edges(self) -> tuple[tuple[str, str, Fraction], ...]:
        """All edges as (u, v, label) with u < v, sorted."""
        labels = (None, *self._spectrum)
        verts = self.vertices
        return tuple(
            (verts[i], verts[j], labels[code])
            for i, row in enumerate(self.codes.tolist())
            for j, code in enumerate(row[i + 1:], i + 1)
            if code
        )

    def spectrum(self) -> tuple[Fraction, ...]:
        """Distinct edge labels, ascending."""
        return self._spectrum

    def is_complete(self) -> bool:
        n = len(self.vertices)
        return self.edge_count == n * (n - 1) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeLabelledGraph):
            return NotImplemented
        return (self.vertices == other.vertices and self._spectrum == other._spectrum
                and np.array_equal(self.codes, other.codes))

    def __repr__(self) -> str:
        return f"EdgeLabelledGraph({len(self.vertices)} vertices, {self.edge_count} edges)"


def scaled_spectrum(g: EdgeLabelledGraph) -> tuple[int, list[int]]:
    """(scale, values): the lcm of the label denominators, and each label of
    the spectrum times it, as exact integers in spectrum order."""
    spectrum = g.spectrum()
    scale = math.lcm(*(d.denominator for d in spectrum))
    return scale, [d.numerator * (scale // d.denominator) for d in spectrum]


def scaled_matrix(g: EdgeLabelledGraph, values: list[int], missing: int, top: int) -> np.ndarray:
    """The code matrix with code c replaced by values[c - 1], `missing` on
    non-edges and 0 on the diagonal.  Its type is the narrowest of int8 to
    int64 that holds `top` (narrow types sweep fastest), and Python ints
    (dtype=object) beyond."""
    fits = next((t for t, most in _INT_TYPES if top <= most), object)
    mat = np.array([missing, *values], dtype=fits)[g.codes]
    np.fill_diagonal(mat, 0)
    return mat


def graph_from_triples(
    vertices: Iterable[str], triples: Iterable[tuple[str, str, object]]
) -> EdgeLabelledGraph:
    """Constructor for user-named graphs; accepts int or Fraction labels."""
    names = [check_vertex_name(v) for v in vertices]
    return EdgeLabelledGraph(names, [(u, v, as_label(l)) for u, v, l in triples])


def complete_graph(distances: Mapping[tuple[str, str], object]) -> EdgeLabelledGraph:
    """Build a complete graph from a {(u, v): d} table (one entry per pair)."""
    names = set()
    for u, v in distances:
        names.add(u)
        names.add(v)
    return graph_from_triples(sorted(names), [(u, v, d) for (u, v), d in distances.items()])


class PartialMap:
    """Injective partial map between vertex sets.

    Non-injective input is rejected at construction, so every PartialMap is a
    candidate partial isomorphism; whether it preserves structure is a
    separate question answered by :func:`check_map`.
    """

    __slots__ = ("_map",)

    def __init__(self, pairs: Iterable[tuple[str, str]] | Mapping[str, str] = ()):
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        table: dict[str, str] = {}
        seen_targets: set[str] = set()
        for src, dst in pairs:
            if src in table:
                if table[src] != dst:
                    raise InvalidMap(f"conflicting images for {src!r}")
                continue
            if dst in seen_targets:
                raise InvalidMap(f"not injective: {dst!r} hit twice")
            table[src] = dst
            seen_targets.add(dst)
        self._map = dict(sorted(table.items()))

    @classmethod
    def _trusted(cls, pairs: Iterable[tuple[str, str]]) -> "PartialMap":
        """Constructor for maps derived inside this package; validates
        nothing.  `pairs` come in ascending order of their distinct sources
        and have distinct targets, as when zipping a graph's vertices with
        a permutation of them."""
        f = object.__new__(cls)
        f._map = dict(pairs)
        return f

    @classmethod
    def identity(cls, vertices: Iterable[str]) -> "PartialMap":
        return cls((v, v) for v in vertices)

    def domain(self) -> tuple[str, ...]:
        return tuple(self._map)

    def image(self) -> tuple[str, ...]:
        return tuple(sorted(self._map.values()))

    def items(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._map.items())

    def __getitem__(self, src: str) -> str:
        try:
            return self._map[src]
        except KeyError:
            raise UnknownVertex(f"{src!r} not in domain") from None

    def get(self, src: str, default=None):
        return self._map.get(src, default)

    def __contains__(self, src: str) -> bool:
        return src in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[str]:
        return iter(self._map)

    def compose(self, inner: "PartialMap") -> "PartialMap":
        """self after inner; requires the image of inner inside this domain."""
        missing = [dst for dst in inner._map.values() if dst not in self._map]
        if missing:
            raise InvalidMap(f"composition undefined at {missing[0]!r}")
        return PartialMap((src, self._map[dst]) for src, dst in inner._map.items())

    def extends(self, other: "PartialMap") -> bool:
        return all(self._map.get(src) == dst for src, dst in other._map.items())

    def is_identity(self) -> bool:
        return all(s == d for s, d in self._map.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialMap):
            return NotImplemented
        return self._map == other._map

    def __repr__(self) -> str:
        inside = ", ".join(f"{s}->{d}" for s, d in self._map.items())
        return f"PartialMap({inside})"


def induced_subgraph(g: EdgeLabelledGraph, keep: Iterable[str]) -> EdgeLabelledGraph:
    """Subgraph on the given vertices with every edge among them.

    The one producer of graphs that can leave a label on no pair, and so
    the one that renumbers codes: the labels it drops leave its spectrum."""
    kept = tuple(sorted(set(keep)))
    rows = [g.position(v) for v in kept]
    if len(kept) == len(g.vertices):  # the whole graph: share its matrix
        return EdgeLabelledGraph._trusted(kept, g.spectrum(), g.codes, g.edge_count)
    codes = g.codes[np.ix_(rows, rows)]
    used = np.bincount(codes.ravel(), minlength=len(g.spectrum()) + 1)[1:] > 0
    spectrum = tuple(itertools.compress(g.spectrum(), used.tolist()))
    if len(spectrum) < len(used):
        renumber = np.zeros(len(used) + 1, dtype=np.min_scalar_type(len(spectrum)))
        renumber[1:][used] = np.arange(1, len(spectrum) + 1)
        codes = renumber[codes]
    return EdgeLabelledGraph._trusted(kept, spectrum, codes)


def metric_violation(g: EdgeLabelledGraph) -> tuple[str, str, str] | None:
    """Three vertices, in vertex order, on which a complete graph breaks
    the triangle inequality, or None when it is a metric space.

    Scans the scaled label matrix, one middle vertex z at a time, for a
    pair x, y with d(x, y) > d(x, z) + d(z, y).
    """
    n = len(g.vertices)
    if n < 3:
        return None
    _, values = scaled_spectrum(g)
    mat = scaled_matrix(g, values, -1, 2 * max(values, default=0))
    via = np.empty_like(mat)
    worse = np.empty(mat.shape, dtype=bool)
    for z in range(n):
        np.add(mat[:, z, None], mat[None, z, :], out=via)
        if np.greater(mat, via, out=worse).any():
            x, y = map(int, np.argwhere(worse)[0])
            return tuple(g.vertices[i] for i in sorted((x, y, z)))
    return None


def is_metric_space(g: EdgeLabelledGraph) -> bool:
    """Complete and every triple satisfies the triangle inequality.  The
    verdict is kept on the graph, which never changes, so a graph is checked
    once however often it is asked."""
    if g._metric is None:
        g._metric = g.is_complete() and metric_violation(g) is None
    return g._metric


def _check_total(f: PartialMap, g: EdgeLabelledGraph, h: EdgeLabelledGraph) -> None:
    for src, dst in f.items():
        if src not in g:
            raise InvalidMap(f"domain vertex {src!r} not in source graph")
        if dst not in h:
            raise InvalidMap(f"image vertex {dst!r} not in target graph")
    if len(f) != len(g.vertices):
        raise InvalidMap(
            f"map is defined on {len(f)} of {len(g.vertices)} source vertices; "
            "check_map expects a total map (restrict the graph first)"
        )


def check_map(f: PartialMap, g: EdgeLabelledGraph, h: EdgeLabelledGraph) -> bool:
    """Is the total map f : g -> h an embedding, keeping every label and
    every non-edge?  With h = g this is the automorphism test, as a total
    injective map of a finite set into itself is onto.  A map that is not
    total raises InvalidMap and is never reported as a False verdict.
    """
    _check_total(f, g, h)
    image = [h.position(f[v]) for v in g.vertices]
    # each code of g as the code of the same label in h, -1 when h lacks it
    in_h = {d: c for c, d in enumerate(h.spectrum(), 1)}
    want = np.array([0, *(in_h.get(d, -1) for d in g.spectrum())])[g.codes]
    return np.array_equal(h.codes[np.ix_(image, image)], want)


def is_partial_automorphism(f: PartialMap, g: EdgeLabelledGraph) -> bool:
    """Is f an isomorphism between induced subgraphs of g?"""
    pairs = [(g.position(src), g.position(dst)) for src, dst in f.items()]
    code = g.codes.item
    return all(
        code(u, v) == code(fu, fv) for (u, fu), (v, fv) in itertools.combinations(pairs, 2)
    )
