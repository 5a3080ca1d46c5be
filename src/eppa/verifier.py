"""Brute-force verification of witnesses, on the verifier's own encoding.

`cross_check` re-validates every stored layer of a witness; `verify_eppa`
brute-forces the extension property itself on small spaces.  The copy of
the input in the subset level is read off its stored ids: each lists k
tokens, two copy points share as many tokens as the rank of their distance
in the input's spectrum, and no token lies in three copy sets.  Every other
check runs on an exact integer label matrix built here (`_label_matrix`),
once per graph, in the narrowest of int8 to int64 that holds the sum of two
entries, or of Python ints past int64:

- the subset level's edge rule is a comparison with the labels that the
  shared-token counts of its vertices call for.  The counts are exact
  integer popcounts: the token incidence comes from the combinations
  behind the sorted ids that the `subset-vertices` check writes, or from
  parsing each id once when that check fails, is packed eight tokens to a
  byte, and every byte column adds the popcount of the AND of each pair
  (`_shared_token_counts`);
- each level's ids are read once as valuations of the level below
  (`_valuations`), which its vertex count, edge rule and anchored copy
  share.  The edge rule is a comparison with the level below, read through
  the projections, with the pairs that a stored bad set cuts masked;
- each stored level's bad sets are compared with a local scan of the
  vertex sets of the previous stored level, skipped above a size bound.  An
  empty list fails: a level without bad sets is not stored;
- the tower height is restated from the input's distances and compared
  with the stored one;
- each stored level has one short-cycle check, up to one vertex below the
  next stored level's number, or up to the restated height at the top.  That
  proves the levels that are not stored: with no non-metric cycle on at most
  q-1 vertices, levels p+1..q-1 above stored level p have no bad sets, so
  each is level p under new names;
- the completion is checked by Bellman's optimality condition, row by row,
  and the metric on the same matrix.

Every partial isometry of the input is replayed (`replay_positions`) as a
permutation of the final space's vertex positions, which must be a
permutation of them and send the copy along the map.  The maps are
replayed and judged in chunks, one row per map, within a fixed byte budget
(`_check_replay`).  Where B0 is all the
k-subsets of m tokens and the final space is on B0's vertices with labels a
function of the shared-token counts (the path through one vertex, below),
a map is judged by token induction: a token bijection pi is read off the
images of the subsets through each token, and the map must send every
subset X to pi(X), which keeps every |X & Y| and so every label; that is
O(V*m^2) per map for m tokens, one batched product per chunk
(`_token_induced`).  Any map that no token
bijection induces, such as complementation when m = 2k, and every map on
another witness, is judged by the label matrix, permuted by two gathers of
whole rows and compared with its transpose (`_permutes_labels`), O(V^2).
A passing replay checks a concrete extension of every partial isometry of
the copy, so it proves the extension property.

The brute-force extension search proves the property where no replay runs
or the replay fails; after a failed replay it tells whether some extension
exists, that is whether the operator missed one or the witness is wrong.
It holds the images each unassigned vertex may still take as an int bit
mask.  It starts from the unused vertices with the same sorted label row,
and placing v at w narrows every other vertex's mask with one AND
against the vertices at w's label for that pair (`_label_masks`, built once
per graph).  It branches on the first forced vertex, or else the lowest one,
and tries images from the lowest bit up; every attempted assignment counts
against the budget, and `verify_eppa` reports their sum as
`search_assignments`.

The package's one enumerator of partial isometries lives here and takes an
optional pool of points (`verify_eppa` passes the copy); no construction
step calls it.

The short-cycle, completion and metric checks each sweep from a list of
source vertices (`_sweep_sources`): every vertex, or vertex 0 alone when the
witness stores B0 alone, whose vertices are all the k-subsets of its tokens
and whose labels are a function of the shared-token counts read off the
ids, and its final space is on B0's vertices with labels a function of
those counts too.  Every token permutation is then an automorphism of both,
and these act transitively on the vertices, so what holds at vertex 0 holds
at every vertex, and a failure at vertex 0 is the first one a sweep from
every vertex names.  That is O(V^2) work in place of O(V^3) for the
completion and metric checks; the report's `path` names the way they ran.

So a bug in the construction's set assignment, cycle search, completion or
automorphism tests cannot vouch for itself.  Besides the exception types of
`errors`, this module imports from the construction only these names:

- `EdgeLabelledGraph`, `PartialMap`, `LevelGraph` and `Witness`, data types;
- `parse_level_vertex` and `parse_subset_id`, vertex id parsers, and
  `token_sort_key`, the order of the tokens in a subset id;
- `replay_positions`, the operator under test, whose results are judged here;
- `has_nonmetric_cycle_up_to`, the short-cycle check, which no construction
  step calls.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, islice, permutations
from typing import Callable, Iterable, Iterator

import numpy as np

from .completion import has_nonmetric_cycle_up_to
from .errors import BudgetExhausted, EppaError, GraphFormatError
from .graphs import EdgeLabelledGraph, PartialMap
from .levels import LevelGraph, parse_level_vertex
from .pipeline import Witness, replay_positions
from .setrep import parse_subset_id, token_sort_key

# Most vertex sets the bad-set scan of one level looks at; above it the
# level's bad-set check is reported as skipped.
_BAD_SET_SCAN_LIMIT = 200_000

# Most bytes the (M, V, m) image incidence of one chunk of replayed maps may
# take in token induction, for V final positions and m tokens; the replay
# itself keeps (M, m) and (M, V) arrays only.
_REPLAY_CHUNK_BYTES = 1 << 22

_Matrix = tuple[dict[str, int], np.ndarray]  # (vertex index, label matrix)

# The integer types a label matrix may take, narrowest first, each with its largest value.
_INT_TYPES = tuple((t, np.iinfo(t).max) for t in (np.int8, np.int16, np.int32, np.int64))

# The detail of a check that swept from vertex 0 of a vertex-transitive witness.
THROUGH_ONE_VERTEX = "through one vertex"


@dataclass(frozen=True)
class CheckResult:
    """One named verdict; failing checks carry a concrete counterexample
    (a map or a cycle witness)."""

    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False
    counterexample: object | None = None


@dataclass
class VerificationReport:
    """Verdicts plus bookkeeping: how much was examined and whether any
    search gave up on its node budget rather than finishing."""

    results: list[CheckResult] = field(default_factory=list)
    totals: dict[str, int] = field(default_factory=dict)
    budget_exhausted: bool = False
    # how `cross_check` ran the final space's checks: "explicit" (sweeps
    # from every vertex) or THROUGH_ONE_VERTEX
    path: str = "explicit"

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results if not r.skipped)

    def add(
        self,
        name: str,
        passed: bool,
        detail: str = "",
        skipped: bool = False,
        counterexample: object | None = None,
    ) -> None:
        self.results.append(CheckResult(name, passed, detail, skipped, counterexample))

    def count(self, key: str, amount: int = 1) -> None:
        self.totals[key] = self.totals.get(key, 0) + amount

    def summary(self) -> str:
        lines = []
        for r in self.results:
            mark = "SKIP" if r.skipped else ("ok" if r.passed else "FAIL")
            lines.append(f"[{mark:>4}] {r.name}" + (f": {r.detail}" if r.detail else ""))
        for key in sorted(self.totals):
            lines.append(f"examined {key}: {self.totals[key]}")
        if self.budget_exhausted:
            lines.append("search budget exhausted: results above are incomplete")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"overall: {verdict}")
        return "\n".join(lines)


# -- independent primitives -------------------------------------------------


def _distances_ok(f: PartialMap, g: EdgeLabelledGraph) -> bool:
    pairs = f.items()
    for i, (u, fu) in enumerate(pairs):
        for v, fv in pairs[i + 1 :]:
            if g.label(u, v) != g.label(fu, fv):
                return False
    return True


def _label_matrix(g: EdgeLabelledGraph, scale: int | None = None) -> _Matrix:
    """(index, M): every label of g times `scale` as an exact integer, -1
    on non-edges and 0 on the diagonal, rows and columns in vertex order.

    `scale` must be a multiple of every label denominator, and is the lcm
    of g's when not given.  The spectrum is scaled here, once, and indexed
    by g's code matrix.  M is of the narrowest integer type that holds the
    sum of two of its entries, which the metric sweep takes (`_int_type`):
    narrow types sweep, gather and compare fastest.
    """
    spectrum = g.spectrum()
    if scale is None:
        scale = math.lcm(*(d.denominator for d in spectrum))
    values = [d.numerator * (scale // d.denominator) for d in spectrum]
    mat = np.array([-1, *values], dtype=_int_type(2 * max(values, default=0))).take(g.codes)
    np.fill_diagonal(mat, 0)
    return {v: i for i, v in enumerate(g.vertices)}, mat


def _int_type(top: int) -> type:
    """The narrowest of int8 to int64 that holds every integer from -1 to
    `top`, or object (Python ints) beyond int64."""
    return next((t for t, most in _INT_TYPES if top <= most), object)


def _permutes_labels(perm: np.ndarray, mat: np.ndarray, flipped: np.ndarray) -> bool:
    """Does the permutation `perm` of the label matrix's rows keep every
    entry of the matrix?

    `flipped` is the matrix transposed, as a contiguous copy.  E = M[p].T[p]
    gathers whole rows only, which is faster than gathering columns, and
    E[a, b] = M[p_b, p_a], so E equals `flipped` exactly when M[p_a, p_b] =
    M[a, b] for every pair."""
    return bool((mat.take(perm, 0).T.take(perm, 0) == flipped).all())


def _permutation_rows(perms: np.ndarray) -> np.ndarray:
    """Which rows of an (M, V) integer array are permutations of range(V)."""
    count, n = perms.shape
    ok = ((perms >= 0) & (perms < n)).all(axis=1)
    hit = np.zeros(perms.shape, dtype=bool)
    hit[np.arange(count)[:, None], perms.clip(0, n - 1)] = True
    return ok & hit.all(axis=1)


def _token_induced(perms: np.ndarray, incidence: np.ndarray) -> np.ndarray:
    """Which rows of an (M, V) array of permutations of k-subsets send every
    subset X to pi(X) for one bijection pi of the tokens?  `incidence` is
    the subsets-by-tokens incidence of distinct k-subsets, in float64, whose
    products here are exact: they count subsets, far fewer than 2**53.

    Row v of a map's image incidence holds the tokens of the image of v, and
    incidence.T @ image counts at (t, s) the subsets through t whose image
    holds s.  Let pi(t) be an s of largest count in row t.  When that count
    is the number of subsets through t for every t, and pi is a bijection,
    the image of each X holds pi(X), k tokens, so it is pi(X); and for
    k < m a map that pi induces passes.  One batched product over the maps
    does it, O(V*m^2) per map for V subsets of m tokens."""
    counts = incidence.T @ incidence[perms]  # (M, m, m)
    pi = counts.argmax(axis=2)
    bijective = (np.sort(pi, axis=1) == np.arange(pi.shape[1])).all(axis=1)
    return bijective & (counts.max(axis=2) == incidence.sum(axis=0)).all(axis=1)


def enumerate_partial_automorphisms(
    g: EdgeLabelledGraph, max_domain_size: int, pool: Iterable[str] | None = None
) -> Iterator[PartialMap]:
    """All label-preserving injective maps of at most `max_domain_size`
    points inside the pool (all of g without one): the empty map first, then
    by domain size, domain and image, each lexicographic.  Labels compare as
    g's label codes; a pool vertex outside g raises UnknownVertex.

    The images of a domain grow one point at a time, in lexicographic order,
    and a prefix is dropped as soon as the point just placed sees one placed
    before it at another code than their preimages do."""
    if max_domain_size < 0:
        raise ValueError("max_domain_size must be >= 0")
    names = g.vertices if pool is None else sorted(pool)
    at = [g.position(v) for v in names]
    codes = g.codes[np.ix_(at, at)].tolist()
    spots = range(len(names))
    yield PartialMap._trusted(())
    for size in range(1, min(max_domain_size, len(names)) + 1):
        for dom in combinations(spots, size):
            images = [(y,) for y in spots]
            for pos in range(1, size):
                want = [codes[dom[pos]][x] for x in dom[:pos]]
                images = [img + (y,) for img in images for y in spots
                          if y not in img and list(map(codes[y].__getitem__, img)) == want]
            sources = [names[x] for x in dom]
            for img in images:
                yield PartialMap._trusted(zip(sources, map(names.__getitem__, img)))


def _label_rows(b: EdgeLabelledGraph) -> list[list[int]]:
    """Rows of b's exact integer label matrix as Python lists, for the
    extension search's scalar lookups."""
    return _label_matrix(b)[1].tolist()


def _row_signatures(rows: list[list[int]]) -> list[int]:
    """A number per row, equal for two rows exactly when they hold the same
    entries in some order: an isometry can only send a vertex to one with
    its signature."""
    classes: dict[tuple[int, ...], int] = {}  # sorted row -> class number
    return [classes.setdefault(tuple(sorted(row)), len(classes)) for row in rows]


# (label masks, signature masks): vertex sets as int bit masks, bit x for vertex x
_Masks = tuple[list[dict[int, int]], list[int]]


def _label_masks(rows: list[list[int]]) -> _Masks:
    """The vertex sets the extension search intersects, built once per
    graph: entry w of the first list maps each label d in row w to the
    vertices at label d from w, and entry v of the second holds the vertices
    with v's row signature (`_row_signatures`)."""
    by_label = []
    for row in rows:
        masks: dict[int, int] = {}
        for x, d in enumerate(row):
            masks[d] = masks.get(d, 0) | 1 << x
        by_label.append(masks)
    signature = _row_signatures(rows)
    by_signature = [0] * len(rows)
    for v, s in enumerate(signature):
        by_signature[s] |= 1 << v
    return by_label, [by_signature[s] for s in signature]


def search_extension(
    b: EdgeLabelledGraph, phi: PartialMap, budget: int = 10_000_000
) -> PartialMap | None:
    """Backtracking search for a full isometry of b extending phi.

    Maintains forward-checked candidate sets per unassigned vertex, each an
    int bit mask of the vertices it may still go to, narrowed by one AND
    with a per-vertex label mask (`_label_masks`) per placement.  Branches
    on the smallest unassigned vertex (preferring forced, single-candidate
    ones) and tries images from the lowest bit up; since forced moves are
    shared by every completion, a successful search still returns the
    lexicographically least extension.  Every attempted assignment counts
    against the budget; exceeding it raises BudgetExhausted instead of
    guessing.  Labels are compared on the integer label matrix.
    """
    for v in chain(phi.domain(), phi.image()):
        b.position(v)
    if not _distances_ok(phi, b):
        return None
    rows = _label_rows(b)
    return _search_extension(b, rows, _label_masks(rows), phi, budget)[0]


def _candidate_sets(
    rows: list[list[int]], masks: _Masks, assigned: dict[int, int]
) -> dict[int, int] | None:
    """The images each unassigned vertex v may take, as a bit mask, in
    vertex order, or None when one has none: the unused w with v's signature
    that see the assigned images as v sees their preimages."""
    by_label, same = masks
    unused = ~sum(1 << w for w in assigned.values())
    cand: dict[int, int] = {}
    for v, row in enumerate(rows):
        if v in assigned:
            continue
        opts = same[v] & unused
        for u, w in assigned.items():
            opts &= by_label[w].get(row[u], 0)
        if not opts:
            return None
        cand[v] = opts
    return cand


def _search_extension(
    b: EdgeLabelledGraph, rows: list[list[int]], masks: _Masks, phi: PartialMap, budget: int,
) -> tuple[PartialMap | None, int]:
    """`search_extension` on vertex indices, given b's label rows, their
    masks and a phi already known to keep distances; also returns the
    number of assignments it attempted."""
    verts = b.vertices
    index = {v: i for i, v in enumerate(verts)}
    assigned: dict[int, int] = {index[u]: index[w] for u, w in phi.items()}
    cand = _candidate_sets(rows, masks, assigned)
    if cand is None:
        return None, 0
    by_label = masks[0]
    spent = 0

    def place(cand: dict[int, int], v: int | None) -> bool:
        """Extend `assigned` over the vertices of `cand`, branching on v: the
        first of them with one candidate, or None when none has one, and
        then on the first of them."""
        nonlocal spent
        if not cand:
            return True
        if v is None:
            v = next(iter(cand))
        opts = cand.pop(v)
        row_v = rows[v]
        while opts:
            low = opts & -opts
            opts ^= low
            spent += 1
            if spent > budget:
                raise BudgetExhausted(f"extension search budget {budget} exhausted")
            w = low.bit_length() - 1
            # w has v's signature, so it has every label of row v; no mask of
            # a label off the diagonal holds w itself
            at = by_label[w]
            nxt = {}
            forced = None
            for u, c in cand.items():
                c &= at[row_v[u]]
                if not c:
                    break
                if forced is None and not c & (c - 1):
                    forced = u
                nxt[u] = c
            else:
                assigned[v] = w
                if place(nxt, forced):
                    return True
                del assigned[v]
        return False

    if not place(cand, next((u for u, c in cand.items() if not c & (c - 1)), None)):
        return None, spent
    return PartialMap._trusted((verts[v], verts[w]) for v, w in sorted(assigned.items())), spent


def naive_extension_exists(b: EdgeLabelledGraph, phi: PartialMap) -> bool:
    """Oracle for tiny graphs: does some bijection of b that extends phi keep
    every label?  Tries every way to send the vertices outside phi's domain
    onto the vertices phi leaves unused, comparing integer label codes."""
    if len(b) > 8:
        raise ValueError("oracle is factorial; use search_extension instead")
    for v in chain(phi.domain(), phi.image()):
        b.position(v)
    rows = _label_rows(b)
    n = len(rows)
    index = {v: i for i, v in enumerate(b.vertices)}
    f = [-1] * n
    for u, img in phi.items():
        f[index[u]] = index[img]
    free = [v for v in range(n) if f[v] < 0]
    unused = sorted(set(range(n)) - set(f))
    pairs = list(combinations(range(n), 2))
    for images in permutations(unused):
        for v, img in zip(free, images):
            f[v] = img
        if all(rows[u][v] == rows[f[u]][f[v]] for u, v in pairs):
            return True
    return False


def verify_eppa(
    b: EdgeLabelledGraph,
    copy_vertices: Iterable[str],
    budget: int = 10_000_000,
) -> VerificationReport:
    """Check that every partial isometry of the copy extends to b.

    Enumerates every distance-preserving injective map within the copy and
    searches for a total automorphism of b extending each; one check per
    map.  Running out of search budget is a report state (the remaining maps
    are not examined), never a failure verdict.  The `search_assignments`
    total sums the assignments every search attempted, counting the whole
    budget for a search that ran out.  Enumeration and search are both
    local to this module.
    """
    copy = sorted(copy_vertices)
    for v in copy:
        b.position(v)
    report = VerificationReport()
    rows = _label_rows(b)
    masks = _label_masks(rows)
    for j, phi in enumerate(enumerate_partial_automorphisms(b, len(copy), copy)):
        shown = dict(phi.items())
        try:
            found, spent = _search_extension(b, rows, masks, phi, budget)
        except BudgetExhausted as exc:
            report.count("search_assignments", budget)
            report.add(f"extends-{j}", False, f"{exc} on {shown}", skipped=True,
                       counterexample=phi)
            report.budget_exhausted = True
            break
        report.count("search_assignments", spent)
        report.count("partial_maps")
        if found is None:
            report.add(f"extends-{j}", False, f"no extension of {shown}",
                       counterexample=phi)
        else:
            report.add(f"extends-{j}", True)
            report.count("extensions_found")
    return report


# -- witness cross-checking -------------------------------------------------


def _noted(detail: str, sources: list[int] | None) -> str:
    """A passing check's detail, noting a sweep from vertex 0 alone."""
    if sources is None:
        return detail
    return f"{detail}, {THROUGH_ONE_VERTEX}" if detail else THROUGH_ONE_VERTEX


def _check_metric(
    report: VerificationReport,
    g: EdgeLabelledGraph,
    name: str,
    matrix: _Matrix | None = None,
    sources: list[int] | None = None,
) -> None:
    """Every label is defined and keeps the triangle inequality through each
    middle vertex among `sources` (every vertex when None)."""
    verts = g.vertices
    _, mat = matrix if matrix is not None else _label_matrix(g)
    gaps = np.argwhere(mat < 0)
    if len(gaps):
        i, j = map(int, gaps[0])
        report.add(name, False, f"missing distance between {verts[i]!r} and {verts[j]!r}")
        return
    via = np.empty_like(mat)
    viol = np.empty(mat.shape, dtype=bool)
    for k in range(len(verts)) if sources is None else sources:
        np.add(mat[:, k, None], mat[None, k, :], out=via)
        if np.greater(mat, via, out=viol).any():
            i, j = map(int, np.argwhere(viol)[0])
            bad = (verts[i], verts[j], verts[k])
            report.add(name, False,
                       f"triangle inequality fails on {bad[0]!r},{bad[1]!r},{bad[2]!r}",
                       counterexample=bad)
            return
    report.add(name, True, _noted("", sources))


def _first_difference(got: np.ndarray, want: np.ndarray) -> tuple[int, int] | None:
    """First pair (i, j), i < j, in vertex order where two symmetric label
    matrices differ, or None when they are equal; the pairs are searched
    only after a whole comparison finds a difference."""
    if np.array_equal(got, want):
        return None
    i, j = np.argwhere(got != want)[0]
    return int(i), int(j)


def _check_completion(
    report: VerificationReport, w: Witness, scale: int, top_matrix: _Matrix,
    final_matrix: _Matrix, sources: list[int] | None,
) -> None:
    """The final space F must be the shortest-path completion of the top
    level L restricted to the final vertices; a failure names the first
    differing pair.

    Bellman's optimality condition decides it one row at a time.  Labels
    are positive, so row s of F is the row of shortest path lengths from s
    exactly when each F[s,v], v != s, is the least F[s,w] + L[w,v] over the
    neighbours w of v: by induction on F[s,v] one way, along a shortest path
    the other.  A missing distance, and the least over no neighbour, are
    read as a sentinel above every path and every stored label, so that
    unreached vertices are judged too.  The rows of `sources` (every vertex
    when None) are checked; the first failing row is the first that differs
    from the completion, so a sweep from it names the first differing pair.
    """
    name = "final-completion"
    top, final = w.levels[-1].graph, w.final
    top_index, top_mat = top_matrix
    if final.vertices != top.vertices:  # else the rows are the top level's, in its order
        if not all(v in top for v in final.vertices):
            report.add(name, False, "final space names vertices outside the top level")
            return
        rows = np.fromiter(map(top_index.__getitem__, final.vertices), dtype=np.intp,
                           count=len(final))
        top_mat = top_mat.take(rows, 0).take(rows, 1)
    final_mat = final_matrix[1]
    n = len(final_mat)
    beyond = max(n * int(top_mat.max(initial=0)), int(final_mat.max(initial=0))) + 1
    wide = _int_type(2 * beyond)
    step = top_mat.astype(wide)
    step[step <= 0] = beyond  # non-edges and the diagonal
    via = np.empty_like(step)

    def least(row: np.ndarray, s: int) -> np.ndarray:
        """0 at s, elsewhere the least row[w] + L[w,v]: at most `beyond`,
        which row[s] = 0 plus a non-edge gives."""
        out = np.add(row[:, None], step, out=via).min(axis=0)
        out[s] = 0
        return out

    for s in range(n) if sources is None else sources:
        row = final_mat[s].astype(wide)
        row[row < 0] = beyond
        if not np.array_equal(least(row, s), row):
            break
    else:
        report.add(name, True, _noted("", sources))
        return
    closed = np.full(n, beyond, dtype=row.dtype)  # the completion's row s
    closed[s] = 0
    while True:
        more = least(closed, s)
        if np.array_equal(more, closed):
            break
        closed = more
    j = int(np.flatnonzero(closed != row)[0])  # symmetric, so s < j
    u, v = final.vertices[s], final.vertices[j]
    got = "no path" if closed[j] == beyond else str(Fraction(int(closed[j]), scale))
    report.add(name, False,
               f"{u!r} ~ {v!r}: stored {final.label(u, v)}, recompleted {got}",
               counterexample=(u, v))


def _copy_token_fault(a: EdgeLabelledGraph, copy: PartialMap, k: int) -> str:
    """What breaks the token rule of a copy of `a` in a subset graph, read
    off the copy's vertex ids, or "" when nothing does: each id lists k
    tokens, two copy points share as many tokens as the rank of their
    distance in a's spectrum (none for a non-edge), and no token lies in
    three copy sets."""
    if set(copy.domain()) != set(a.vertices):
        return "the copy is not defined on exactly the input's vertices"
    tokens = {}
    for x in a.vertices:
        try:
            tokens[x] = parse_subset_id(copy[x])
        except GraphFormatError as exc:
            return f"copy of {x!r}: {exc}"
        if len(tokens[x]) != k:
            return f"copy of {x!r} lists {len(tokens[x])} tokens, expected {k}"
    rank = {d: r for r, d in enumerate(a.spectrum(), start=1)}
    for x, y in combinations(a.vertices, 2):
        want = rank.get(a.label(x, y), 0)
        got = len(tokens[x] & tokens[y])
        if got != want:
            return f"copies of {x!r} and {y!r} share {got} tokens, expected {want}"
    owners = Counter(chain.from_iterable(tokens.values()))
    crowded = min((t for t, count in owners.items() if count > 2), default=None)
    if crowded is not None:
        return f"token {crowded!r} lies in {owners[crowded]} copy sets"
    return ""


def _token_incidence(sets: list[frozenset[str]]) -> np.ndarray:
    """The sets-by-tokens incidence of the token sets, as booleans, one
    column per token of their union."""
    token_of = {t: p for p, t in enumerate(set().union(*sets))}
    sizes = [len(s) for s in sets]
    tokens = np.fromiter(map(token_of.__getitem__, chain.from_iterable(sets)), dtype=np.intp)
    incidence = np.zeros((len(sets), len(token_of)), dtype=bool)
    incidence[np.repeat(np.arange(len(sets)), sizes), tokens] = True
    return incidence


def _shared_token_counts(incidence: np.ndarray) -> np.ndarray:
    """|X & Y| for each pair of the token sets of the incidence's rows, as
    exact integers: the popcounts of the AND of their token bits, eight
    tokens to a byte."""
    n = len(incidence)
    most = incidence.sum(axis=1).max(initial=0)
    shared = np.zeros((n, n), dtype=np.min_scalar_type(most))
    both = np.empty(shared.shape, dtype=np.uint8)
    for byte in np.packbits(incidence, axis=1).T.copy():  # a contiguous row per eight tokens
        np.bitwise_and(byte[:, None], byte, out=both)
        shared += np.bitwise_count(both, out=both)
    return shared


def _check_subset_level(
    report: VerificationReport, w: Witness, scale: int, matrix: _Matrix
) -> tuple[np.ndarray, np.ndarray] | None:
    """Check the subset level B0 of a witness against its set assignment.
    Returns the token incidence of its vertices and their shared-token
    counts when its vertices are all the k-subsets of the tokens and its
    labels a function of those counts (`subset-vertices` and
    `subset-edge-rule` pass): then every token permutation is an
    automorphism of B0, and these act transitively on its vertices.  Returns
    None otherwise.  When `subset-vertices` passes, the incidence is that of
    the combinations behind the sorted ids it compares the vertices with;
    otherwise it is read off the parsed ids."""
    lvl = w.levels[0]
    g = lvl.graph
    sa = w.set_assignment
    verts = g.vertices
    fault = _copy_token_fault(w.input, lvl.base_embedding, sa.k)
    report.add("token-assignment", not fault, fault)
    # combinations of a sorted sequence come out sorted; the assignment
    # lays its universe out in this order, and the sort re-derives it
    ordered = sorted(sa.universe, key=token_sort_key)
    combos = list(combinations(range(len(ordered)), sa.k))
    ids = ["{" + "|".join(map(ordered.__getitem__, c)) + "}" for c in combos]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    all_subsets = list(verts) == list(map(ids.__getitem__, order))
    report.add("subset-vertices", all_subsets,
               "" if all_subsets else "vertex set is not all k-subsets of the universe")
    if all_subsets:  # vertex i is the combination behind the i-th sorted id
        members = np.fromiter(chain.from_iterable(combos), dtype=np.intp,
                              count=len(combos) * sa.k).reshape(len(combos), sa.k)[order]
        incidence = np.zeros((len(verts), len(ordered)), dtype=bool)
        incidence[np.arange(len(verts))[:, None], members] = True
    else:
        incidence = _token_incidence([parse_subset_id(vid) for vid in verts])
    # two subsets sharing c tokens are joined by the c-th smallest distance
    spectrum = w.input.spectrum()
    n = len(spectrum)
    shared = _shared_token_counts(incidence)
    values = [d.numerator * (scale // d.denominator) for d in spectrum]
    # no two sets share more tokens than either of them holds
    by_count = np.full(int(shared.diagonal().max(initial=0)) + 1, -1,
                       dtype=_int_type(max(values, default=0)))
    by_count[1 : n + 1] = values[: len(by_count) - 1]
    want = by_count.take(shared)
    np.fill_diagonal(want, 0)
    first = _first_difference(matrix[1], want)
    bad = None
    bad_pair = None
    if first is not None:
        i, j = first
        u, v = verts[i], verts[j]
        c = int(shared[i, j])
        expected = spectrum[c - 1] if 1 <= c <= n else None
        bad = f"{u!r} ~ {v!r}: shares {c}, label {g.label(u, v)}, expected {expected}"
        bad_pair = (u, v)
    report.add("subset-edge-rule", bad is None, bad or "", counterexample=bad_pair)
    emb = lvl.base_embedding
    ok = (set(emb.domain()) == set(w.input.vertices) and all(v in g for v in emb.image())
          and all(parse_subset_id(emb[x]) == sa.psi[x] for x in w.input.vertices))
    report.add("subset-embedding", ok)
    return (incidence, shared) if all_subsets and bad is None else None


def _induced_nonmetric_sets(
    mat: np.ndarray, size: int
) -> list[tuple[tuple[int, ...], tuple[int, int]]]:
    """(vertex set, long edge) of every set of `size` vertices on which the
    label matrix induces a non-metric cycle, in lexicographic order.

    The induced subgraph must be one cycle (`size` edges, two at every
    vertex, connected) whose longest edge is longer than the others
    together.
    """
    rows = mat.tolist()
    found = []
    for subset in combinations(range(len(rows)), size):
        edges = [(rows[u][v], u, v) for u, v in combinations(subset, 2) if rows[u][v] > 0]
        if len(edges) != size:
            continue
        nbrs: dict[int, list[int]] = {u: [] for u in subset}
        for _, u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        if any(len(row) != 2 for row in nbrs.values()):
            continue
        seen = {subset[0]}
        stack = [subset[0]]
        while stack:
            for v in nbrs[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != size:
            continue
        edges.sort(reverse=True)
        top, u, v = edges[0]
        if top > sum(label for label, _, _ in edges[1:]):
            found.append((subset, (u, v)))
    return found


def _check_bad_sets(
    report: VerificationReport,
    name: str,
    below: EdgeLabelledGraph,
    below_mat: np.ndarray,
    lvl: LevelGraph,
) -> bool:
    """Check a level's stored bad sets: the vertex sets of its size on which
    the previous stored level induces a non-metric cycle.  Returns False when
    the stored list is wrong, so that the checks that read it are not run.

    The list is compared with a scan of the vertex sets of the level below,
    which is skipped above `_BAD_SET_SCAN_LIMIT` sets.  An empty list fails,
    because a level without bad sets is not stored.
    """
    stored = lvl.bad_sets
    size = lvl.level
    if not stored:
        report.add(name, False, "no bad sets stored: a level without bad sets is not stored")
        return False
    if any(x not in below for m in stored for x in m.members):
        report.add(name, False, "a stored bad set names vertices outside the level below")
        return False
    verts = below.vertices
    subsets = math.comb(len(verts), size)
    if subsets > _BAD_SET_SCAN_LIMIT:
        report.add(name, False,
                   f"{len(stored)} bad sets stored; {subsets} vertex sets to scan "
                   f"> {_BAD_SET_SCAN_LIMIT}", skipped=True)
        return True
    found = [
        (frozenset(verts[p] for p in members), (verts[i], verts[j]))
        for members, (i, j) in _induced_nonmetric_sets(below_mat, size)
    ]
    if [(m.members, m.long_edge) for m in stored] != found:
        report.add(name, False, "stored bad sets differ from the subset scan")
        return False
    for m in stored:
        if not m.check(below):
            report.add(name, False, f"stored cycle on {sorted(m.members)} does not check")
            return False
    report.add(name, True, f"{len(stored)} bad sets")
    return True


def _valuations(
    ids: Iterable[str], below_index: dict[str, int], member: list[list[int]]
) -> tuple[np.ndarray, list[str]] | str:
    """The ids of a level, each read once as a valuation `x;bits`: a vertex
    x of the level below and one bit per stored bad set through it (`member`,
    by position in the level below).  Returns the position of each
    projection x in the level below and each id's bits, or the detail of the
    first id that is no valuation."""
    proj, bits_of = [], []
    for vid in ids:
        try:
            base, bits = parse_level_vertex(vid)
        except GraphFormatError:
            return f"{vid!r} is not a valuation vertex id"
        q = below_index.get(base)
        if q is None or len(bits) != len(member[q]):
            return f"{vid!r} is not a valuation of a vertex of the level below"
        proj.append(q)
        bits_of.append(bits)
    return np.array(proj, dtype=np.intp), bits_of


def _level_edge_rule(
    below: LevelGraph, lvl: LevelGraph, proj: np.ndarray, bits: list[str],
    member: list[list[int]], below_matrix: _Matrix, matrix: _Matrix,
) -> tuple[str, tuple[str, str] | None]:
    """The first pair of the level, in vertex order, whose label breaks the
    edge rule, as (detail, pair); ("", None) when every pair keeps it.

    A pair's expected label is that of its projections in the level below
    (none between two copies of one vertex), read off the valuations of the
    ids (`_valuations`), and none when a bad set through both projections
    has bits that differ off its long edge or agree across it.
    """
    below_index, below_mat = below_matrix
    groups: dict[int, list[tuple[int, int]]] = {}  # bad set -> (vertex, bit)
    for p, (q, row) in enumerate(zip(proj.tolist(), bits)):
        for j, bit in zip(member[q], row):
            groups.setdefault(j, []).append((p, int(bit)))
    want = below_mat[proj][:, proj]
    want[proj[:, None] == proj[None, :]] = -1
    np.fill_diagonal(want, 0)
    for j, pairs in groups.items():
        who = np.array([p for p, _ in pairs], dtype=np.intp)
        bit = np.array([b for _, b in pairs])
        a, b = (below_index.get(x, -1) for x in lvl.bad_sets[j].long_edge)
        pw = proj[who]
        across = ((pw[:, None] == a) & (pw[None, :] == b)) | ((pw[:, None] == b) & (pw[None, :] == a))
        block = want[np.ix_(who, who)]
        block[(bit[:, None] != bit[None, :]) != across] = -1
        want[np.ix_(who, who)] = block
    first = _first_difference(matrix[1], want)
    if first is None:
        return "", None
    i, j = first
    u, v = lvl.graph.vertices[i], lvl.graph.vertices[j]
    x, y = (below.graph.vertices[q] for q in proj[[i, j]])
    expected = below.graph.label(x, y) if want[i, j] > 0 else None
    return f"{u!r} ~ {v!r}: label {lvl.graph.label(u, v)}, expected {expected}", (u, v)


def _check_transition(
    report: VerificationReport, w: Witness, idx: int, matrices: list[_Matrix]
) -> None:
    """Re-derive stored level idx from the previous stored level."""
    below, lvl = w.levels[idx - 1], w.levels[idx]
    tag = f"level-{lvl.level}"
    if not _check_bad_sets(report, f"{tag}-bad-sets", below.graph, matrices[idx - 1][1], lvl):
        return

    below_index = matrices[idx - 1][0]
    member: list[list[int]] = [[] for _ in below.graph.vertices]  # bad sets through each
    for j, m in enumerate(lvl.bad_sets):
        for x in m.members:
            member[below_index[x]].append(j)

    # the ids are distinct, so as many valuations as there are (base, bits)
    # combinations are every combination once
    table = _valuations(lvl.graph.vertices, below_index, member)
    fault = table if isinstance(table, str) else None
    ok = fault is None and len(lvl.graph) == sum(1 << len(through) for through in member)
    report.add(f"{tag}-vertices", ok, "" if ok else "vertex set differs from expansion")

    detail, pair = (fault, None) if fault else _level_edge_rule(
        below, lvl, *table, member, matrices[idx - 1], matrices[idx])
    report.add(f"{tag}-edge-rule", not detail, detail, counterexample=pair)

    # anchored copy: each point's copy is a vertex over its copy below whose
    # bits follow the anchor rule, restated here: across a long edge that the
    # copy below meets, the larger name gets 1; every other bit is 0
    copy_below = set(below.base_embedding.image())
    ones = {(j, m.long_edge[1]) for j, m in enumerate(lvl.bad_sets)
            if tuple(sorted(m.members & copy_below)) == m.long_edge}
    emb = lvl.base_embedding
    ok = fault is None and set(emb.domain()) == set(w.input.vertices)
    if ok:
        proj, bits = table
        for a in w.input.vertices:
            p, base = matrices[idx][0].get(emb[a]), below.base_embedding.get(a)
            ok = (p is not None and below.graph.vertices[proj[p]] == base
                  and bits[p] == "".join("01"[(j, base) in ones] for j in member[proj[p]]))
            if not ok:
                break
    report.add(f"{tag}-anchors", ok)


def _check_tower_height(report: VerificationReport, w: Witness) -> int:
    """The stored tower height n against the one the input calls for,
    restated here: one above the floor of its largest distance over its
    smallest, since a non-metric cycle's long edge is longer than the sum
    of its other edges.  Returns the height the top-level check bounds
    cycles by: the restated one, or the stored one for an input without a
    distance, which has no cycle to bound."""
    spectrum = w.input.spectrum()
    if not spectrum:
        report.add("tower-height", True, f"stored {w.n}, the input has no distance")
        return w.n
    height = spectrum[-1] // spectrum[0] + 1
    report.add("tower-height", w.n == height, f"stored {w.n}, the input calls for {height}")
    return height


def _check_short_cycles(
    report: VerificationReport, w: Witness, idx: int, height: int, budget: int,
    sources: list[int] | None,
) -> None:
    """Stored level idx has no non-metric cycle on fewer vertices than the
    next stored level's number, or on at most `height` vertices at the top
    (see the module docstring), swept from `sources`."""
    lvl = w.levels[idx]
    if idx + 1 < len(w.levels):
        name, size = f"level-{lvl.level}-no-short-bad-cycles", w.levels[idx + 1].level - 1
    else:
        name, size = "top-level-no-bad-cycles", height
    try:  # a cycle has at least three vertices
        cycle = (has_nonmetric_cycle_up_to(lvl.graph, size, budget=budget, sources=sources)
                 if size >= 3 else None)
    except BudgetExhausted as exc:
        report.budget_exhausted = True
        report.add(name, False, str(exc), skipped=True)
        return
    detail = (_noted(f"up to {size} vertices", sources) if cycle is None
              else f"non-metric cycle on {cycle.vertices}")
    report.add(name, cycle is None, detail, counterexample=cycle)


def _sweep_sources(w: Witness, shared: np.ndarray | None, final_mat: np.ndarray) -> list[int] | None:
    """The vertex positions the short-cycle, completion and metric checks
    sweep from: [0] when the witness stores B0 alone, `_check_subset_level`
    proved it vertex-transitive (`shared` holds its shared-token counts),
    and the final space is on B0's vertices with labels a function of those
    counts; None, every vertex, otherwise."""
    if shared is None or len(w.levels) != 1 or w.final.vertices != w.levels[0].graph.vertices:
        return None
    by_share = np.full(int(shared.max(initial=0)) + 1, -1, dtype=final_mat.dtype)
    by_share[shared[0]] = final_mat[0]  # row 0 meets every count that occurs
    return [0] if np.array_equal(final_mat, by_share.take(shared)) else None


def _first_unfaithful(
    perms: np.ndarray, phis: list[PartialMap], at: dict[str, int], mat: np.ndarray,
    flipped: Callable[[], np.ndarray], incidence: np.ndarray | None,
) -> int | None:
    """The index of the first map of `phis` whose row of `perms`, an (M, V)
    integer array, is no permutation of the final positions, does not send
    the copy (at its positions `at`, -1 outside) along the map, or does not
    keep every label; None when every row passes.  The first two tests and
    token induction (`_token_induced`) run on the whole batch; only a
    permutation that no token bijection induces goes to the gather of the
    label matrix (`_permutes_labels`), against the transposed copy that
    `flipped()` gives."""
    count, n = perms.shape
    faithful = _permutation_rows(perms)
    perms = np.where(faithful[:, None], perms, np.arange(n))  # every row indexable
    rows, src, dst = np.array([(j, at[x], at[y]) for j, phi in enumerate(phis)
                               for x, y in phi.items()], dtype=np.intp).reshape(-1, 3).T
    off = (src < 0) | (perms[rows, src.clip(0)] != dst)
    faithful &= np.bincount(rows[off], minlength=count) == 0
    induced = (_token_induced(perms, incidence) if incidence is not None
               else np.zeros(count, dtype=bool))
    for j in np.flatnonzero(~(faithful & induced)).tolist():
        if not faithful[j] or not _permutes_labels(perms[j], mat, flipped()):
            return j
    return None


def _replayed(w: Witness, phis: list[PartialMap], n: int) -> np.ndarray | None:
    """`replay_positions` of the maps as intp, when it is an (M, n) integer
    array; None otherwise.  Raises what the operator raises."""
    perms = replay_positions(w, phis)
    ok = isinstance(perms, np.ndarray) and perms.shape == (len(phis), n)
    return perms.astype(np.intp, copy=False) if ok and perms.dtype.kind in "iu" else None


def _check_replay(
    report: VerificationReport, w: Witness, final_matrix: _Matrix, incidence: np.ndarray | None
) -> CheckResult:
    """The `extension-replay` verdict: every partial isometry of the input,
    replayed by `replay_positions`, must give a permutation of the final
    positions that sends the copy along the map and keeps every label.  The
    first map that fails, or whose replay raises, is the counterexample.

    The maps are replayed and judged in chunks (`_first_unfaithful`), as
    many as keep a chunk's (M, V, m) image incidence, for V final positions
    and m tokens, within `_REPLAY_CHUNK_BYTES`.  A chunk whose replay
    raises, or gives no (M, V) integer array, is replayed again map by map,
    so that the counterexample, its detail and the count of maps replayed
    are those of the maps one at a time.

    `incidence` is the vertices-by-tokens incidence of the final space when
    its vertices are all the k-subsets and its labels a function of their
    shared-token counts (`_sweep_sources` gave [0]); without it every map
    is judged by the gather."""
    index, mat = final_matrix
    n = len(mat)
    flipped = cache(lambda: np.ascontiguousarray(mat.T))  # copied when a map first needs the gather
    emb = w.final_embedding
    at = {x: index.get(emb.get(x), -1) for x in w.input.vertices}  # the copy's positions
    sa = w.set_assignment
    size = max(1, _REPLAY_CHUNK_BYTES // (8 * n * len(sa.universe)))
    maps = enumerate_partial_automorphisms(w.input, len(w.input))

    def judged(chunk: list[PartialMap], perms: np.ndarray | None) -> CheckResult | None:
        """The failure of the first map of a replayed chunk, counting the
        maps up to it; no array at all fails the chunk's one map."""
        bad = 0 if perms is None else _first_unfaithful(perms, chunk, at, mat, flipped, incidence)
        report.count("partial_maps_replayed", len(chunk) if bad is None else bad + 1)
        if bad is None:
            return None
        phi = chunk[bad]
        return CheckResult("extension-replay", False, f"replay failed for {dict(phi.items())}",
                           counterexample=phi)

    while chunk := list(islice(maps, size)):
        try:
            perms = _replayed(w, chunk, n)
        except EppaError:
            perms = None
        if perms is not None:
            failure = judged(chunk, perms)
            if failure is not None:
                return failure
            continue
        for phi in chunk:  # one at a time, as batches of one
            try:
                perms = _replayed(w, [phi], n)
            except EppaError as exc:
                return CheckResult("extension-replay", False,
                                   f"replay raised for {dict(phi.items())}: {exc}",
                                   counterexample=phi)
            failure = judged([phi], perms)
            if failure is not None:
                return failure
    return CheckResult("extension-replay", True)


def cross_check(w: Witness, budget: int = 10_000_000, search_limit: int = 150) -> VerificationReport:
    """Re-derive and re-verify every stored layer of a witness.

    Structure is checked unconditionally, and every partial isometry of the
    input is replayed and judged (`_check_replay`) when the witness has a
    set assignment and levels.  `extension-property-search` is reported
    as skipped when the final space has more than `search_limit` vertices,
    and fails without a search when the stored copy fails `copy-distances`.
    Otherwise a passing replay proves it with no search: the replay checks
    a concrete extension of every partial isometry of the copy, which
    `copy-distances` matches one to one with those of the input.  Only
    where no replay runs or the replay fails does the brute-force search
    over all partial isometries of the copy run, under `budget`.  `budget`
    also bounds the short-cycle checks.
    """
    report = VerificationReport()
    _check_metric(report, w.input, "input-metric")
    height = _check_tower_height(report, w)
    graphs = [lvl.graph for lvl in w.levels]
    scale = math.lcm(*(d.denominator for g in (w.input, w.final, *graphs) for d in g.spectrum()))
    final_matrix = _label_matrix(w.final, scale)

    if w.levels:
        matrices = [_label_matrix(g, scale) for g in graphs]
        proof = None
        if w.set_assignment is not None:
            proof = _check_subset_level(report, w, scale, matrices[0])
        sources = _sweep_sources(w, None if proof is None else proof[1], final_matrix[1])
        incidence = None
        if sources is not None:
            report.path = THROUGH_ONE_VERTEX
            incidence = proof[0].astype(np.float64)
        for idx in range(len(w.levels)):
            if idx:
                _check_transition(report, w, idx, matrices)
                report.count("level_transitions_checked")
            _check_short_cycles(report, w, idx, height, budget, sources)
        top = w.levels[-1]

        top_index, top_mat = matrices[-1]
        seeds = [top_index.get(v) for v in top.base_embedding.image()]
        ok = None not in seeds
        if ok:  # breadth-first from the copy, one layer at a time over label rows
            seen = np.zeros(len(top_mat), dtype=bool)
            layer = seen.copy()
            layer[seeds] = True
            while layer.any():
                seen |= layer
                layer = (top_mat[layer] > 0).any(axis=0) & ~seen
            if w.final.vertices == top.graph.vertices:  # the whole level, with no name walk
                ok = bool(seen.all())
            else:
                ok = ({top.graph.vertices[p] for p in np.flatnonzero(seen).tolist()}
                      == set(w.final.vertices))
        report.add("component", ok,
                   "" if ok else "final vertices differ from the copy's component in the top level")
        _check_completion(report, w, scale, matrices[-1], final_matrix, sources)
    else:
        sources = incidence = None
        report.add("trivial-tower", len(w.input) == 1 and w.final == w.input)

    _check_metric(report, w.final, "final-metric", final_matrix, sources)
    replay = None
    if w.set_assignment is not None and w.levels:
        replay = _check_replay(report, w, final_matrix, incidence)

    emb = w.final_embedding
    emb_ok = set(emb.domain()) == set(w.input.vertices) and all(v in w.final for v in emb.image())
    if emb_ok:
        for x, y, d in w.input.edges():
            if w.final.label(emb[x], emb[y]) != d:
                emb_ok = False
                break
    report.add("copy-distances", emb_ok)

    if not emb_ok:  # no copy of the input to search from
        report.add("extension-property-search", False, "the stored copy fails copy-distances")
    elif len(w.final) > search_limit:
        report.add(
            "extension-property-search", True,
            f"final space has {len(w.final)} vertices > {search_limit}", skipped=True,
        )
    elif replay is not None and replay.passed:
        report.add("extension-property-search", True, "every partial isometry replayed")
    else:
        sub = verify_eppa(w.final, [emb[x] for x in w.input.vertices], budget=budget)
        report.count("partial_maps_searched", sub.totals.get("partial_maps", 0))
        report.count("search_assignments", sub.totals.get("search_assignments", 0))
        offender = next(
            (r.counterexample for r in sub.results if not r.passed and not r.skipped), None
        )
        if offender is not None:
            report.add(
                "extension-property-search", False,
                f"no extension for {dict(offender.items())}", counterexample=offender,
            )
        elif sub.budget_exhausted:
            report.budget_exhausted = True
            report.add(
                "extension-property-search", False,
                "search budget exhausted before finishing", skipped=True,
            )
        else:
            report.add("extension-property-search", True)

    if replay is not None:
        report.results.append(replay)
    return report
