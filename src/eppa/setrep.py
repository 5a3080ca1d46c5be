"""Set representation: one-step extension of all partial automorphisms.

Every vertex x of a finite edge-labelled graph A receives a k-element token
set psi(x) such that psi(x) and psi(y) share exactly idx(d(x,y)) tokens,
where idx numbers A's distinct labels in ascending order starting at 1 (and
non-adjacent vertices share nothing).  The derived graph B has all k-element
subsets of the token universe as vertices, two subsets being joined by the
i-th smallest label of A exactly when they share i tokens.  Then psi embeds A
into B, and any partial automorphism of the copy extends to an automorphism
of B induced by a permutation of the tokens.  It keeps every shared-token
count, so it is also one of B's completion, read off those counts
(`SetAssignment.classes`); no extension checks that again per map.

An assignment lays its tokens out once, in token order, from A's codes:
the universe, each point's token positions (`own`) and each pair's shared
positions (`shared`), both indexed by point position.  An extension names
nothing: `extend_by_permutation` gives each token position's destination
for a map on point positions, and `subset_automorphism` the vertex
positions a batch of such rows makes of B; `pipeline` looks names up.
B's size is read off A's codes before any token is laid out.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EppaError, GraphFormatError, InvalidMap, NotAMetricSpace, VertexCapExceeded,
)
from .graphs import EdgeLabelledGraph, PartialMap, check_vertex_name, scaled_spectrum

# Pairs per block of `class_completion`'s table lookup, whose intp copy of
# the block's index is then 512 kB at most.
_TAKE_BLOCK = 1 << 16

# Token syntax.  Pair tokens "(x,y)#i" are shared by psi(x) and psi(y);
# padding tokens "x!t" are private to psi(x).  Unambiguous because the
# characters ( ) , # ! | { } are reserved in input vertex names.


def pair_token(x: str, y: str, i: int) -> str:
    if x > y:
        x, y = y, x
    return f"({x},{y})#{i}"


def padding_token(x: str, t: int) -> str:
    # slots are numbered from 1
    return f"{x}!{t}"


def parse_token(token: str) -> tuple[str, str, int] | tuple[str, int]:
    """(x, y, i) for a pair token, (x, t) for a padding token."""
    if token.startswith("("):
        body, _, tail = token.rpartition(")#")
        x, _, y = body[1:].partition(",")
        if not (x and y and tail.isdigit()):
            raise GraphFormatError(f"malformed pair token {token!r}")
        return x, y, int(tail)
    head, bang, tail = token.rpartition("!")
    if not (bang and head and tail.isdigit()):
        raise GraphFormatError(f"malformed token {token!r}")
    return head, int(tail)


def token_sort_key(token: str) -> tuple[int, str, str, int]:
    """Fixed linear order on tokens: pair tokens first, then padding, each
    block ordered by the named vertices and the running index."""
    parsed = parse_token(token)
    if len(parsed) == 3:
        x, y, i = parsed
        return (0, x, y, i)
    x, t = parsed
    return (1, x, "", t)


def subset_id(tokens: Iterable[str]) -> str:
    return "{" + "|".join(sorted(tokens, key=token_sort_key)) + "}"


def parse_subset_id(vertex: str) -> frozenset[str]:
    if not (vertex.startswith("{") and vertex.endswith("}")) or len(vertex) < 3:
        raise GraphFormatError(f"not a token-subset vertex id: {vertex!r}")
    tokens = vertex[1:-1].split("|")
    subset = frozenset(tokens)
    if len(subset) != len(tokens):
        raise GraphFormatError(f"repeated token in vertex id {vertex!r}")
    return subset


class JohnsonTable:
    """The vertices of the subset graph of a set assignment, the Johnson
    scheme J(m, k) on its m tokens, by token position.

    `ids` are the vertex ids in vertex order, and `members` their token
    positions in the universe, ascending, one row of k per vertex.  Built on
    first use: `shares`, the number of tokens each pair of vertices shares,
    which B0 and its completion read, and the token-bitmask table that only
    the extension reads (`_masks`, for `subset_automorphism`).
    """

    def __init__(self, universe: tuple[str, ...], k: int):
        self.m = len(universe)
        # the universe is in token order, so each combination lists its
        # tokens in it, as `subset_id` writes them
        ids = ["{" + "|".join(tokens) + "}" for tokens in combinations(universe, k)]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids = tuple(map(ids.__getitem__, order))
        combos = np.fromiter(chain.from_iterable(combinations(range(self.m), k)),
                             dtype=np.intp, count=len(ids) * k)
        self.members = combos.reshape(len(ids), k)[order]

    @cached_property
    def shares(self) -> np.ndarray:
        """|X & Y| for each pair of vertices: popcounts of the AND of their
        token bits, one byte of eight tokens at a time, in exact integers
        (an integer matrix product gets no BLAS)."""
        count, k = self.members.shape
        incidence = np.zeros((count, self.m), dtype=bool)
        incidence[np.arange(count)[:, None], self.members] = True
        out = np.zeros((count, count), dtype=np.min_scalar_type(k))
        both = np.empty((count, count), dtype=np.uint8)
        # one contiguous row of bytes per eight tokens
        for column in np.packbits(incidence, axis=1).T.copy():
            np.bitwise_and(column[:, None], column, out=both)
            out += np.bitwise_count(both, out=both)
        return out

    @cached_property
    def _masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(powers, incidence, masks, order): 2**p at token position p and the
        (m, V) token-vertex incidence, both uint64, so that powers @ incidence
        is each vertex's token bitmask; those masks in ascending order, which
        is the colex order of the subsets; and the vertex position of each.

        Refused past 64 tokens, where a mask would wrap.  No witness gets
        there: n points give k >= n and m <= nk, so m > 64 needs k >= 9;
        for n >= 3, m >= n(k + 1)/2 keeps k <= 2m/3, so J(m, k) has at
        least C(65, 9), about 3e10, vertices (two points have 3 tokens)."""
        if self.m > 64:
            raise EppaError(f"token bitmasks hold at most 64 tokens, not {self.m}")
        count = len(self.members)
        powers = np.left_shift(np.uint64(1), np.arange(self.m, dtype=np.uint64))
        incidence = np.zeros((self.m, count), dtype=np.uint64)
        incidence[self.members, np.arange(count)[:, None]] = 1
        masks = powers @ incidence
        order = masks.argsort()
        return powers, incidence, masks.take(order), order


@dataclass(frozen=True)
class ClassTable:
    """The tower-free final space of a set assignment by shared-token count
    on J(m, k): `walks` are D_1 (the labels), D_2, ... of `_class_walks` up
    to their fixed point f (`distances`), in units of 1/`scale`."""

    m: int
    scale: int
    walks: tuple[tuple[int | None, ...], ...]

    @property
    def distances(self) -> list[int | None]:
        return [*self.walks[-1], 0]

    @cached_property
    def codes(self) -> tuple[tuple[Fraction, ...], np.ndarray]:
        """(spectrum, T): the distinct distances of the classes that occur,
        max(0, 2k - m) <= c < k, ascending, and their ranks by c (0 for any
        other c), so T[shares] codes the completion; refused when B0 is not
        connected."""
        f = self.distances
        k = len(f) - 1
        classes = range(max(0, 2 * k - self.m), k)
        for c in classes:
            if f[c] is None:
                raise NotAMetricSpace(f"subset graph is disconnected: no walk joins two "
                                      f"subsets sharing {c} tokens")
        values = sorted({f[c] for c in classes})
        table = np.zeros(k + 1, dtype=np.min_scalar_type(len(values)))
        table[classes.start:k] = [bisect_left(values, f[c]) + 1 for c in classes]
        return tuple(Fraction(v, self.scale) for v in values), table


@dataclass(frozen=True)
class SetAssignment:
    """A token-set assignment for the vertices of `graph`.

    `universe` lists the token strings in token order; `own[i]` holds the
    token positions of the i-th vertex of `graph`, ascending, and
    `shared[i][j]` the pair-token positions of its i-th and j-th vertices
    by rank, as many as the code of their pair (empty for a non-edge and
    for i = j); `psi` names each vertex's tokens.  Only
    `build_set_assignment` makes one, so nothing re-validates it: its
    `graph` is the input it was derived from.
    `johnson` and `classes` are the Johnson and class tables of its subset
    graph, `subset_graph` that graph with the copy of `graph` in it
    (`build_eppa_graph`) and `completion` its completion
    (`class_completion`), each built on first use and kept as long as the
    assignment.
    """

    graph: EdgeLabelledGraph
    k: int
    universe: tuple[str, ...]
    own: tuple[tuple[int, ...], ...]
    shared: tuple[tuple[range, ...], ...]

    @cached_property
    def psi(self) -> dict[str, frozenset[str]]:
        universe = self.universe
        return {x: frozenset(map(universe.__getitem__, own))
                for x, own in zip(self.graph.vertices, self.own)}

    @cached_property
    def johnson(self) -> JohnsonTable:
        return JohnsonTable(self.universe, self.k)

    @cached_property
    def classes(self) -> ClassTable:
        scale, labels = scaled_spectrum(self.graph)
        m = len(self.universe)
        return ClassTable(m, scale, tuple(map(tuple, _class_walks(m, self.k, labels))))

    @cached_property
    def subset_graph(self) -> tuple[EdgeLabelledGraph, PartialMap]:
        a, johnson = self.graph, self.johnson
        # two subsets sharing c tokens are joined by the c-th label (none for
        # c = 0 or past the spectrum, and a subset shares all k with itself):
        # the code is the count up to n and 0 above, with no intp index copy
        n = len(a.spectrum())
        shares = johnson.shares
        codes = np.multiply(shares, shares <= n, dtype=np.min_scalar_type(n))
        # no label is lost: each is on an edge x-y of a, and psi(x) != psi(y)
        # (each holds a private padding token, as k is one above the largest
        # load) share its rank
        b = EdgeLabelledGraph._trusted(johnson.ids, a.spectrum(), codes)
        # ascending positions list each copy's tokens in token order, as the ids do
        ids = ("{" + "|".join(map(self.universe.__getitem__, own)) + "}" for own in self.own)
        return b, PartialMap._trusted(zip(a.vertices, ids))

    @cached_property
    def completion(self) -> EdgeLabelledGraph:
        return class_completion(self.johnson, self.classes)


def build_set_assignment(a: EdgeLabelledGraph) -> SetAssignment:
    """Canonical assignment with k one above the heaviest pair-token load,
    a point's load being the ranks of its labels, its row sum of codes.

    The extra padding slot keeps psi injective even when two vertices would
    otherwise share their full token sets (e.g. a two-vertex graph).  The
    tokens are laid out in one pass, in token order: the pair tokens by
    (x, y, i) over the points x < y, then each point's padding.
    """
    for x in a.vertices:
        check_vertex_name(x)
    codes = a.codes.tolist()
    k = 1 + max(map(sum, codes), default=0)
    names: list[str] = []
    own: list[list[int]] = [[] for _ in a.vertices]
    shared = [[range(0)] * len(a) for _ in a.vertices]
    # row by row, so that each point's positions come in ascending order
    for (i, x), (j, y) in combinations(enumerate(a.vertices), 2):
        block = range(len(names), len(names) + codes[i][j])
        names += [pair_token(x, y, r) for r in range(1, len(block) + 1)]
        shared[i][j] = shared[j][i] = block
        own[i] += block
        own[j] += block
    for x, positions, row in zip(a.vertices, own, codes):
        slots = range(1, k - sum(row) + 1)
        positions += range(len(names), len(names) + len(slots))
        names += [padding_token(x, t) for t in slots]
    return SetAssignment(graph=a, k=k, universe=tuple(names), own=tuple(map(tuple, own)),
                         shared=tuple(map(tuple, shared)))


def subset_graph_size(a: EdgeLabelledGraph, vertex_cap: int) -> int:
    """C(m, k), the vertex count of the subset graph of the assignment of
    `a` (of at least one point), read off its codes before any token is
    laid out: k is one above the largest load, a row sum of the codes, and
    each pair token is in two of the n sets, so m = n*k - (sum of loads)/2.
    Refused past the vertex cap (`_subset_count`)."""
    loads = list(map(sum, a.codes.tolist()))
    k = 1 + max(loads, default=0)
    return _subset_count(len(a) * k - sum(loads) // 2, k, vertex_cap)


def _subset_count(m: int, k: int, vertex_cap: int) -> int:
    """C(m, k), refused past the vertex cap.  C(m, 1), C(m, 2), ... grow up
    to C(m, min(k, m - k)), so the product stops once it has more bits than
    the cap and 64, and the refusal names a lower bound, "at least 2^N",
    read off log-gamma (`_log2_binomial_floor`)."""
    top = max(vertex_cap.bit_length(), 64)
    count = 1
    for j in range(min(k, m - k)):
        count = count * (m - j) // (j + 1)
        if count.bit_length() > top:
            bits = max(count.bit_length() - 1, _log2_binomial_floor(m, k))
            raise VertexCapExceeded("level 2 (set representation)", 1, vertex_cap,
                                    exponent=bits, at_least=True)
    if count > vertex_cap:
        raise VertexCapExceeded("level 2 (set representation)", count, vertex_cap)
    return count


def _log2_binomial_floor(m: int, k: int) -> int:
    """A whole N with 2^N <= C(m, k), within about two bits of its log, from
    log-gamma without a big binomial.  The three log-gamma terms cancel down
    from log m!, so their rounding, a few units in the last place of that,
    is covered by a margin of 1e-9 of it and one more bit."""
    whole = math.lgamma(m + 1) / math.log(2)
    bits = whole - (math.lgamma(k + 1) + math.lgamma(m - k + 1)) / math.log(2)
    return math.floor(bits - 1 - 1e-9 * whole)


def first_bad_level(sa: SetAssignment, n: int) -> tuple[int, int] | None:
    """(L, lb): the least level from 3 to n at which the subset graph has
    bad sets, and a lower bound on the bad L-sets through each vertex; None
    when there is none.  Read off the class walks of `sa.classes`.

    The graph has a non-metric cycle on at most h + 1 vertices iff some
    label has D_h(c) < s_c (`_class_walks`), and one with the fewest
    vertices is induced: a chord would split it into two shorter cycles,
    one of them non-metric.  So L = h + 1 for the least such h, and every
    edge of such a label is the long edge, the only one, of a bad L-set.
    """
    m, k = len(sa.universe), sa.k
    walks = sa.classes.walks
    for h, walk in zip(range(1, n), walks):
        bad = [c for c, label in enumerate(walks[0]) if label is not None and walk[c] < label]
        if bad:
            return h + 1, sum(math.comb(k, c) * math.comb(m - k, k - c) for c in bad)
    return None


def _third_sides(m: int, k: int, i: int, j: int) -> range:
    """The classes c < k that the third side of a triangle of k-subsets of m
    tokens can have when its other two sides share i and j tokens.  For
    |X & Y| = i and |Y & Z| = j, Z keeps a of the i tokens of X & Y and j - a
    of the k - i others of Y, and takes b of the k - i tokens of X - Y and
    k - j - b of the m - 2k + i outside X | Y: |X & Z| = a + b, over an
    interval.  Class k, Z = X, is left out."""
    a_low, a_high = max(0, j - (k - i)), min(i, j)
    b_low, b_high = max(0, k - j - (m - 2 * k + i)), min(k - i, k - j)
    if a_low > a_high or b_low > b_high:
        return range(0)
    return range(a_low + b_low, min(a_high + b_high, k - 1) + 1)


def _class_walks(m: int, k: int, labels: list[int]) -> Iterator[list[int | None]]:
    """D_1, D_2, ... until D_h stays the same, on the Johnson scheme J(m, k)
    with the c-th label labels[c - 1].

    Token permutations act on the subset graph transitively on the subsets
    Z of each class c = |X & Z| around a fixed subset X, so D_h[c], the
    shortest walk of at most h edges from X into class c < k, is one number
    (None while there is none).  A step along the j-th label from class i
    lands in the classes of `_third_sides`.  Class k is X itself, which no
    shortest walk revisits.
    """
    # steps[i]: (label, classes it reaches) per step from class i
    steps = [[(label, _third_sides(m, k, i, j)) for j, label in enumerate(labels, start=1)]
             for i in range(k)]
    walk: list[int | None] = [None] * k
    walk[1 : len(labels) + 1] = labels
    while True:
        yield walk
        longer = list(walk)
        for i, d in enumerate(walk):
            if d is None:
                continue
            for label, reached in steps[i]:
                for c in reached:
                    if longer[c] is None or d + label < longer[c]:
                        longer[c] = d + label
        if longer == walk:
            return
        walk = longer


def class_completion(johnson: JohnsonTable, classes: ClassTable) -> EdgeLabelledGraph:
    """The shortest-path completion of a subset graph, read off its class
    table: the code of two subsets is T at the number of tokens they share
    (`ClassTable.codes`, indexed by `JohnsonTable.shares`).  The lookup runs
    in blocks of rows of about `_TAKE_BLOCK` pairs, as `take` copies its
    one-byte index to eight bytes a pair.  Every count is at most k, an
    index of T, so "clip" changes no code; it spares `take` buffering its
    output, as it does for an `out` in its default mode."""
    spectrum, table = classes.codes
    shares = johnson.shares
    n = len(johnson.ids)
    codes = np.empty_like(shares, dtype=table.dtype)
    step = max(1, _TAKE_BLOCK // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        np.take(table, shares[rows], out=codes[rows], mode="clip")
    return EdgeLabelledGraph._trusted(johnson.ids, spectrum, codes, n * (n - 1) // 2)


def is_class_metric(m: int, f: list[int]) -> bool:
    """Is the class distance f (k + 1 entries, every class that occurs
    reached) a metric on the k-subsets of m tokens?  The check runs over
    class triangles, not subsets: the third sides of every two sides that
    occur (`_third_sides`; class k, with f[k] = 0, breaks no triangle)."""
    k = len(f) - 1
    classes = range(max(0, 2 * k - m), k + 1)
    return all(f[c] <= f[i] + f[j]
               for i in classes for j in classes for c in _third_sides(m, k, i, j))


def build_eppa_graph(
    sa: SetAssignment, vertex_cap: int = 200_000
) -> tuple[EdgeLabelledGraph, PartialMap]:
    """The k-subset graph over the token universe plus the embedding of A,
    the graph `sa` was built for.

    Every partial automorphism of the embedded copy extends to an
    automorphism of the result (see `extend_by_permutation`).  Its vertices
    and codes are read off the Johnson table of `sa`, once per assignment
    (`SetAssignment.subset_graph`).
    """
    if len(sa.graph) == 0:
        raise GraphFormatError("need at least one vertex")
    _subset_count(len(sa.universe), sa.k, vertex_cap)
    return sa.subset_graph


def extend_by_permutation(sa: SetAssignment, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """The token permutation inducing an automorphism of the subset graph
    that extends a partial automorphism of A, the graph `sa` was built for,
    given as its (x, phi(x)) pairs of positions in `sa.graph.vertices`,
    ascending in x and injective (nothing checks either): entry p is the
    position that position p of `sa.universe` goes to.

    Shared pair tokens are transported along phi first; each mapped vertex
    then has its leftover tokens matched against the leftovers of its image,
    and finally the untouched remainder of the universe is matched with
    itself.  Tokens are ordered by their position in `sa.universe`, which
    lists them in token order.  The two matching stages pair tokens in that
    order on both sides, which makes extension commute with composition
    (coherent extension).  Every stage moves the positions of `sa.own` and
    `sa.shared`, and the last one places every position left, so the
    result is a permutation by construction.

    Two points share as many pair tokens as the code of their pair, so the
    first stage compares the input's codes as it moves them: a map that
    changes one is no partial isometry and is refused with InvalidMap.
    """
    own, shared = sa.own, sa.shared
    m = len(sa.universe)
    dest = [-1] * m  # the position each position goes to, -1 while unplaced
    hit = [False] * m

    def match(sources: Sequence[int], targets: Sequence[int]) -> None:
        if len(sources) != len(targets):
            raise InvalidMap(
                f"leftover token counts differ ({len(sources)} vs {len(targets)})"
            )
        for src, dst in zip(sources, targets):
            dest[src] = dst
            hit[dst] = True

    # shared tokens of mapped pairs travel with their endpoints, rank by
    # rank: each block is a range, so one slice moves it
    for (x, fx), (y, fy) in combinations(pairs, 2):
        src, dst = shared[x][y], shared[fx][fy]
        if len(src) != len(dst):
            raise InvalidMap("map does not preserve distances on its domain")
        dest[src.start:src.stop] = dst
        hit[dst.start:dst.stop] = [True] * len(dst)

    # per-vertex leftovers: image sets of distinct mapped vertices are
    # disjoint outside the tokens already placed above
    for x, fx in pairs:
        match([p for p in own[x] if dest[p] < 0], [p for p in own[fx] if not hit[p]])

    match([p for p in range(m) if dest[p] < 0], [p for p in range(m) if not hit[p]])
    return dest


def subset_automorphism(sa: SetAssignment, dest: np.ndarray) -> np.ndarray:
    """The automorphisms of the subset graph of `sa` that the rows of
    `dest`, an (M, m) array of permutations of the token positions as
    `extend_by_permutation` gives them (nothing checks that), induce: an
    (M, V) array whose entry (j, i) is the position of the subset that row
    j makes of the tokens of vertex i.  Each image is found by its token
    bitmask, the sum of 2**dest[t] over the vertex's tokens t, among the
    sorted masks of `JohnsonTable._masks`; no token string is read."""
    powers, incidence, masks, order = sa.johnson._masks
    return order.take(masks.searchsorted(powers.take(dest) @ incidence))
