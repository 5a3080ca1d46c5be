"""Edge-labelled graphs over positive rationals and structure-preserving maps.

A graph here is undirected, loop-free, with every edge carrying a positive
``fractions.Fraction`` label.  A finite metric space is the special case of a
complete graph whose labels satisfy the triangle inequality; most operations
in this package stay in the larger category and only a few demand metricity.
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
_NAME_RE = re.compile(r"^[^\s(){}#!|,;~]+$")
_CORE_NAME_RE = re.compile(r"^\S+$")

# Above this vertex count we skip building dense numpy distance matrices.
_DENSE_LIMIT = 4096

CHECK_MODES = ("homomorphism", "monomorphism", "embedding", "automorphism")


def check_vertex_name(name: str) -> str:
    """Strict rule for user-supplied vertex names."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise GraphFormatError(
            f"bad vertex name {name!r}: names are nonempty strings without "
            "whitespace or any of ( ) {{ }} # ! | , ; ~"
        )
    return name


def _check_core_name(name: str) -> str:
    if not isinstance(name, str) or not _CORE_NAME_RE.match(name):
        raise GraphFormatError(f"bad vertex name {name!r}: names are nonempty, no whitespace")
    return name


def as_label(value) -> Fraction:
    """Coerce to a positive Fraction; anything else is a format error.  A
    Fraction is returned as it is, so graphs can share label objects."""
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
    subgraphs, completions) come from `_trusted`, which validates nothing.
    Derived views (sorted neighbour lists, label buckets, a dense integer
    distance matrix, and for a subset graph the token positions of its
    vertices, which `setrep` fills in) are built lazily and cached, which is
    safe because instances are never mutated after construction.
    """

    __slots__ = (
        "vertices",
        "edge_count",
        "_adj",
        "_vertex_set",
        "_edge_list",
        "_nbrs",
        "_by_label",
        "_spectrum",
        "_dense",
        "_subsets",
    )

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, Fraction]] = ()):
        names = [_check_core_name(v) for v in vertices]
        self.vertices: tuple[str, ...] = tuple(sorted(names))
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphFormatError("duplicate vertex names")
        self._vertex_set = frozenset(self.vertices)
        self._adj: dict[str, dict[str, Fraction]] = {v: {} for v in self.vertices}
        count = 0
        for u, v, label in edges:
            if u not in self._vertex_set or v not in self._vertex_set:
                raise GraphFormatError(f"edge ({u!r}, {v!r}) mentions an unknown vertex")
            if u == v:
                raise GraphFormatError(f"loop at {u!r}")
            label = as_label(label)
            if v in self._adj[u]:
                raise GraphFormatError(f"duplicate edge ({u!r}, {v!r})")
            self._adj[u][v] = label
            self._adj[v][u] = label
            count += 1
        self.edge_count = count
        self._edge_list = None
        self._nbrs = {}
        self._by_label = {}
        self._spectrum = None
        self._dense = None
        self._subsets = None

    @classmethod
    def _trusted(cls, vertices: tuple[str, ...], adj: dict[str, dict[str, Fraction]],
                 edge_count: int, spectrum: tuple[Fraction, ...] | None = None
                 ) -> "EdgeLabelledGraph":
        """Constructor for graphs derived inside this package; validates
        nothing.  `vertices` are sorted distinct ids, `adj` a symmetric
        adjacency on them with `edge_count` edges, `spectrum` (if known) its
        labels ascending.  Rows and labels may be shared with other graphs.
        """
        g = object.__new__(cls)
        g.vertices = vertices
        g._vertex_set = frozenset(vertices)
        g._adj = adj
        g.edge_count = edge_count
        g._edge_list = None
        g._nbrs = {}
        g._by_label = {}
        g._spectrum = spectrum
        g._dense = None
        g._subsets = None
        return g

    # -- basic queries ---------------------------------------------------

    def __contains__(self, vertex: str) -> bool:
        return vertex in self._vertex_set

    def __len__(self) -> int:
        return len(self.vertices)

    def require_vertex(self, vertex: str) -> None:
        if vertex not in self._vertex_set:
            raise UnknownVertex(f"unknown vertex {vertex!r}")

    def label(self, u: str, v: str) -> Fraction | None:
        """Label of edge {u, v}, or None when the pair is not an edge."""
        self.require_vertex(u)
        self.require_vertex(v)
        return self._adj[u].get(v)

    def adjacency(self, u: str) -> Mapping[str, Fraction]:
        self.require_vertex(u)
        return self._adj[u]

    def neighbors(self, u: str) -> tuple[str, ...]:
        got = self._nbrs.get(u)
        if got is None:
            self.require_vertex(u)
            got = tuple(sorted(self._adj[u]))
            self._nbrs[u] = got
        return got

    def neighbors_by_label(self, u: str) -> dict[Fraction, tuple[str, ...]]:
        got = self._by_label.get(u)
        if got is None:
            self.require_vertex(u)
            buckets: dict[Fraction, list[str]] = {}
            for v, label in self._adj[u].items():
                buckets.setdefault(label, []).append(v)
            got = {label: tuple(sorted(vs)) for label, vs in sorted(buckets.items())}
            self._by_label[u] = got
        return got

    def edges(self) -> tuple[tuple[str, str, Fraction], ...]:
        """All edges as (u, v, label) with u < v, sorted."""
        if self._edge_list is None:
            out = []
            for u in self.vertices:
                row = self._adj[u]
                for v in sorted(row):
                    if u < v:
                        out.append((u, v, row[v]))
            self._edge_list = tuple(out)
        return self._edge_list

    def spectrum(self) -> tuple[Fraction, ...]:
        """Distinct edge labels, ascending."""
        if self._spectrum is None:
            # keyed by exact value as a pair of ints, which hash far faster
            # than Fractions
            by_value = {(x.numerator, x.denominator): x for x in self._label_objects().values()}
            self._spectrum = tuple(sorted(by_value.values()))
        return self._spectrum

    def _label_objects(self) -> dict[int, Fraction]:
        """Every label object of the graph once, keyed by identity (the graph
        keeps them all alive).  Derived graphs share one object among many
        edges, so there are often only a few."""
        distinct: dict[int, Fraction] = {}
        for row in self._adj.values():
            distinct.update(zip(map(id, row.values()), row.values()))
        return distinct

    def is_complete(self) -> bool:
        n = len(self.vertices)
        return self.edge_count == n * (n - 1) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeLabelledGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._adj == other._adj

    def __repr__(self) -> str:
        return f"EdgeLabelledGraph({len(self.vertices)} vertices, {self.edge_count} edges)"

    # -- dense integer view ----------------------------------------------

    def _scaled_labels(self) -> tuple[int, list[int]]:
        """(scale, values): the lcm of the label denominators, and every
        adjacency entry times it as an exact integer, rows in vertex order.
        Each label object is scaled once."""
        distinct = self._label_objects()
        scale = math.lcm(*{label.denominator for label in distinct.values()})
        scaled = {
            key: label.numerator * (scale // label.denominator) for key, label in distinct.items()
        }
        rows = (self._adj[u].values() for u in self.vertices)
        return scale, list(map(scaled.__getitem__, map(id, itertools.chain.from_iterable(rows))))

    def _fill_matrix(self, values: list[int], missing: int, top: int) -> tuple[dict, np.ndarray]:
        """(index, n x n matrix of the scaled labels), `missing` on
        non-edges and 0 on the diagonal.  Its type is the narrowest of int8
        to int64 that holds `top` (narrow types sweep fastest), and Python
        ints (dtype=object) beyond."""
        verts = self.vertices
        n = len(verts)
        index = {v: i for i, v in enumerate(verts)}
        fits = [t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max]
        dtype = fits[0] if fits else object
        mat = np.full((n, n), missing, dtype=dtype)
        rows = np.repeat(np.arange(n), [len(self._adj[u]) for u in verts])
        cols = np.fromiter(
            map(index.__getitem__, itertools.chain.from_iterable(self._adj[u] for u in verts)),
            dtype=np.intp, count=len(values),
        )
        mat[rows, cols] = np.array(values, dtype=dtype)
        np.fill_diagonal(mat, 0)
        return index, mat

    def dense_matrix(self):
        """(index, integer matrix, scale) with labels scaled to integers.

        Missing edges hold -1, the diagonal 0, and the sum of any two
        entries fits the matrix's integer type.  Returns None for graphs too
        large for a dense matrix: more than 4,096 vertices, or labels so
        large that sums along paths could overflow int64.  The scale is the
        lcm of all label denominators, so the matrix is exact.
        """
        if self._dense is None:
            n = len(self.vertices)
            self._dense = (None,)
            if n <= _DENSE_LIMIT:
                scale, values = self._scaled_labels()
                biggest = max(values, default=0)
                if biggest <= (1 << 60) // max(n, 2):
                    self._dense = (*self._fill_matrix(values, -1, 2 * biggest), scale)
        return None if self._dense == (None,) else self._dense


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

    def inverse(self) -> "PartialMap":
        return PartialMap((dst, src) for src, dst in self._map.items())

    def compose(self, inner: "PartialMap") -> "PartialMap":
        """self after inner; requires the image of inner inside this domain."""
        missing = [dst for dst in inner._map.values() if dst not in self._map]
        if missing:
            raise InvalidMap(f"composition undefined at {missing[0]!r}")
        return PartialMap((src, self._map[dst]) for src, dst in inner._map.items())

    def extends(self, other: "PartialMap") -> bool:
        return all(self._map.get(src) == dst for src, dst in other._map.items())

    def restrict(self, keys: Iterable[str]) -> "PartialMap":
        keep = set(keys)
        return PartialMap((s, d) for s, d in self._map.items() if s in keep)

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
    """Subgraph on the given vertices with every edge among them."""
    kept = tuple(sorted(set(keep)))
    for v in kept:
        g.require_vertex(v)
    if len(kept) == len(g.vertices):  # the whole graph: share its rows
        return EdgeLabelledGraph._trusted(kept, g._adj, g.edge_count, g._spectrum)
    kept_set = set(kept)
    adj = {u: {v: label for v, label in g._adj[u].items() if v in kept_set} for u in kept}
    edge_count = sum(len(row) for row in adj.values()) // 2
    return EdgeLabelledGraph._trusted(kept, adj, edge_count)


def metric_violation(g: EdgeLabelledGraph) -> tuple[str, str, str] | None:
    """Three vertices, in vertex order, on which a complete graph breaks
    the triangle inequality, or None when it is a metric space.

    Scans the dense integer matrix, one middle vertex z at a time, for a
    pair x, y with d(x, y) > d(x, z) + d(z, y); the triple loop over
    Fraction labels runs only where there is no dense matrix.
    """
    n = len(g.vertices)
    if n < 3:
        return None
    verts = g.vertices
    dense = g.dense_matrix()
    if dense is not None:
        _, mat, _ = dense
        via = np.empty_like(mat)
        worse = np.empty(mat.shape, dtype=bool)
        for z in range(n):
            np.add(mat[:, z, None], mat[None, z, :], out=via)
            if np.greater(mat, via, out=worse).any():
                x, y = map(int, np.argwhere(worse)[0])
                return tuple(verts[i] for i in sorted((x, y, z)))
        return None
    for x, y, z in itertools.combinations(verts, 3):
        dxy = g.label(x, y)
        dxz = g.label(x, z)
        dyz = g.label(y, z)
        if dxy > dxz + dyz or dxz > dxy + dyz or dyz > dxy + dxz:
            return x, y, z
    return None


def is_metric_space(g: EdgeLabelledGraph) -> bool:
    """Complete and every triple satisfies the triangle inequality."""
    return g.is_complete() and metric_violation(g) is None


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


def check_map(f: PartialMap, g: EdgeLabelledGraph, h: EdgeLabelledGraph, mode: str) -> bool:
    """Does the total map f : g -> h satisfy the given mode?

    Modes: homomorphism (edges carry over with equal labels), monomorphism
    (injective homomorphism; injectivity is structural for PartialMap),
    embedding (labels preserved and reflected), automorphism (g and h equal,
    f a bijective embedding).  Precondition violations raise InvalidMap and
    are never reported as a False verdict.
    """
    if mode not in CHECK_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    _check_total(f, g, h)
    if mode == "automorphism":
        if g is not h and g != h:
            raise InvalidMap("automorphism mode needs identical source and target")
        if set(f.image()) != set(g.vertices):
            raise InvalidMap("automorphism mode needs a bijection")
        # A bijection preserving every edge maps the finite edge set onto
        # itself, so non-edges are reflected for free.
        for u, v, label in g.edges():
            if g.adjacency(f[u]).get(f[v]) != label:
                return False
        return True
    for u, v, label in g.edges():
        if h.adjacency(f[u]).get(f[v]) != label:
            return False
    if mode in ("homomorphism", "monomorphism"):
        return True
    # embedding: also reflect non-edges
    verts = g.vertices
    for i, u in enumerate(verts):
        fu = f[u]
        for v in verts[i + 1 :]:
            if v not in g.adjacency(u) and f[v] in h.adjacency(fu):
                return False
    return True


def is_partial_automorphism(f: PartialMap, g: EdgeLabelledGraph) -> bool:
    """Is f an isomorphism between induced subgraphs of g?"""
    for src, dst in f.items():
        g.require_vertex(src)
        g.require_vertex(dst)
    items = f.items()
    for i, (u, fu) in enumerate(items):
        row_u = g.adjacency(u)
        row_fu = g.adjacency(fu)
        for v, fv in items[i + 1 :]:
            if row_u.get(v) != row_fu.get(fv):
                return False
    return True


def enumerate_partial_automorphisms(
    g: EdgeLabelledGraph, max_domain_size: int
) -> Iterator[PartialMap]:
    """Stream every partial automorphism with domain size up to the bound.

    Deterministic order: by domain size, then domain tuple, then image tuple,
    all lexicographic.  The empty map comes first.
    """
    if max_domain_size < 0:
        raise ValueError("max_domain_size must be >= 0")
    yield PartialMap(())
    verts = g.vertices
    top = min(max_domain_size, len(verts))
    for m in range(1, top + 1):
        for dom in itertools.combinations(verts, m):
            rows = [g.adjacency(u) for u in dom]
            assigned: list[str] = []

            def extend(pos: int) -> Iterator[PartialMap]:
                if pos == m:
                    yield PartialMap(zip(dom, assigned))
                    return
                row = rows[pos]
                for cand in verts:
                    if cand in assigned:
                        continue
                    cand_row = g.adjacency(cand)
                    ok = True
                    for j in range(pos):
                        if row.get(dom[j]) != cand_row.get(assigned[j]):
                            ok = False
                            break
                    if ok:
                        assigned.append(cand)
                        yield from extend(pos + 1)
                        assigned.pop()

            yield from extend(0)
