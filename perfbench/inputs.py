"""Seeded inputs for the benchmark workloads.

A workload's inputs depend on its name and the seed only.  Every input gets
fresh point names (always three letters, so witness sizes do not drift with
the seed), and each workload changes labels in its own way.  The program
sees only the resulting graph documents.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations

# Flat inputs are kept only when their subset graph B0 has at most this many
# vertices.  The four-point square (C(12,5) = 792) is left out: its build and
# round trip take about 20 s on two shared cores, which would fill a run.
FLAT_LIMIT = 252

# Every B0 size at most FLAT_LIMIT that a 3- or 4-point space with at most
# two distinct labels can have.  One extra flat input is kept per size, so
# each seed costs the same and only names and labels change with it.
FLAT_CLASSES = (20, 70, 210, 252)
# Flat inputs are drawn this many times on every seed, so that drawing costs
# the same on every seed.  Over seeds 0-2999 every size was filled by draw 97.
FLAT_DRAWS = 256

WORKLOADS = ("flat-build", "tower-build", "replay-verify")


@dataclass(frozen=True)
class Space:
    """A named finite metric space as point names and labelled pairs, with
    the timed phases its witness takes part in besides the build.  A witness
    that is extended or verified is round-tripped first."""

    name: str
    points: tuple[str, ...]
    edges: tuple[tuple[str, str, Fraction], ...]
    extend: bool = True
    verify: bool = False

    def document(self) -> dict:
        """The graph file format the program parses."""
        return {
            "vertices": list(self.points),
            "edges": [[u, v, str(d)] for u, v, d in self.edges],
        }


def b0_size(space: Space) -> int:
    """Closed-form vertex count C(m, k) of the subset graph of a space.

    Each point needs one token per unit of label rank on each of its pairs,
    plus one padding token; k is the largest such load and m counts the
    shared pair tokens and every point's padding up to k.
    """
    spectrum = sorted({d for _, _, d in space.edges})
    rank = {d: j for j, d in enumerate(spectrum, start=1)}
    load = dict.fromkeys(space.points, 0)
    for u, v, d in space.edges:
        load[u] += rank[d]
        load[v] += rank[d]
    k = 1 + max(load.values())
    m = sum(rank[d] for _, _, d in space.edges) + sum(k - x for x in load.values())
    return math.comb(m, k)


NAMES = tuple("".join(t) for t in combinations("bcdfghjklmnpqrstvwxz", 3))


def _renamed(rng: random.Random, name: str, points, edges) -> Space:
    fresh = rng.sample(NAMES, len(points))
    table = dict(zip(points, fresh))
    out = []
    for u, v, d in edges:
        a, b = sorted((table[u], table[v]))
        out.append((a, b, Fraction(d)))
    return Space(name, tuple(sorted(fresh)), tuple(sorted(out)))


def _triangle(a, b, c) -> tuple[tuple[str, ...], tuple]:
    return ("x", "y", "z"), (("x", "y", a), ("x", "z", b), ("y", "z", c))


TWO_POINT = (("a", "b"), (("a", "b", 1),))
TRIANGLE_112 = _triangle(1, 1, 2)
TRIANGLE_122 = _triangle(1, 2, 2)


def _fraction(rng: random.Random, denominator: int, low: int, high: int) -> Fraction:
    """A seeded label numerator/denominator in lowest terms with the
    numerator drawn from [low, high].

    Fixed denominators and numerator ranges keep the digit counts of every
    label and of every completed distance the same from seed to seed, so
    Fraction arithmetic and witness bytes cost the same on every seed.
    """
    while True:
        n = rng.randint(low, high)
        if math.gcd(n, denominator) == 1:
            return Fraction(n, denominator)


def flat_extras(rng: random.Random) -> list[Space]:
    """Random 3- and 4-point spaces with non-integer labels and max/min <= 2.

    The labels are a (sevenths) and b (elevenths) with a < b <= 2a, so every
    triangle inequality holds.  A drawn space is kept when its B0 size is at
    most FLAT_LIMIT and no kept space has that size yet.  There are always
    FLAT_DRAWS draws, which fill every size in FLAT_CLASSES.
    """
    kept: dict[int, Space] = {}
    for _ in range(FLAT_DRAWS):
        a = _fraction(rng, 7, 200, 249)
        b = _fraction(rng, 11, int(a * 11) + 1, int(2 * a * 11))
        points = ("p", "q", "r", "s")[: rng.choice((3, 4))]
        labels = rng.choice(((a,), (a, b)))
        edges = [(u, v, rng.choice(labels)) for u, v in combinations(points, 2)]
        space = _renamed(rng, "extra", points, edges)
        size = b0_size(space)
        if size > FLAT_LIMIT or size in kept:
            continue
        kept[size] = Space(f"extra-{size}", space.points, space.edges)
    if len(kept) == len(FLAT_CLASSES):
        return [kept[s] for s in sorted(kept)]
    raise RuntimeError(f"drew no flat input for B0 sizes {sorted(set(FLAT_CLASSES) - set(kept))}")


def workload_inputs(workload: str, seed: int) -> list[Space]:
    """The spaces one run of a workload builds or replays, by seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "flat-build":
        # cross_check runs on the two spaces with at most 20 final points; on
        # the others it would take longer than their build.
        return [
            replace(_renamed(rng, "two-point", *TWO_POINT), verify=True),
            _renamed(rng, "triangle-112", *TRIANGLE_112),
            *(replace(s, verify=b0_size(s) <= 20) for s in flat_extras(rng)),
        ]
    if workload == "tower-build":
        # max/min above 2 with a clean B0: the level-3 bad-set search scans
        # every long edge and finds nothing.  Triangle-123 (63 s) is left out
        # because one build would fill a run.  The tower witnesses are only
        # built: round trip, extension and cross_check on them would take as
        # long as the builds.  The two small spaces carry those phases.
        c = _fraction(rng, 7, 200, 249)
        return [
            replace(_renamed(rng, "two-point", *TWO_POINT), verify=True),
            replace(_renamed(rng, "triangle-111", *_triangle(c, c, c)), verify=True),
            replace(_renamed(rng, "tower-133", *_triangle(c, 3 * c, 3 * c)), extend=False),
            replace(_renamed(rng, "tower-255", *_triangle(2 * c, 5 * c, 5 * c)), extend=False),
        ]
    if workload == "replay-verify":
        # cross_check takes the verifier's replay path on triangle-122 (252
        # points), which stands in for the four-point square (about 60 s),
        # and the brute-force search on triangle-111 (20 points).  The search
        # on triangle-112 (70 points) takes 5.7 s and would leave room for
        # only three rounds, so triangle-112 is extended but not verified.
        # Triangle-111 is not extended: its sub-millisecond extensions would
        # put the latency median in the gap below triangle-112's.
        return [
            replace(_renamed(rng, "two-point", *TWO_POINT), verify=True),
            _renamed(rng, "triangle-112", *TRIANGLE_112),
            replace(_renamed(rng, "triangle-111", *_triangle(1, 1, 1)), extend=False, verify=True),
            replace(_renamed(rng, "triangle-122", *TRIANGLE_122), verify=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def partial_isometries(space: Space) -> list[dict[str, str]]:
    """Every distance-preserving injective map between subsets of the space,
    by brute force; the empty map first."""
    label = {}
    for u, v, d in space.edges:
        label[(u, v)] = label[(v, u)] = d
    out = []
    pts = space.points
    for size in range(len(pts) + 1):
        for dom in combinations(pts, size):
            for img in permutations(pts, size):
                if all(label[(dom[i], dom[j])] == label[(img[i], img[j])]
                       for i, j in combinations(range(size), 2)):
                    out.append(dict(zip(dom, img)))
    return out

