#!/usr/bin/env python3
"""Tamper with a stored witness, or with the construction, and measure how
often the verifier objects.

Witness mode loads a witness file (or builds a small demonstration witness
whose expansion level carries valuation bits), applies single-site
mutations, and reruns the independent cross-check on every mutant.

Construction mode (--construction) patches one construction function at a
time, at every place it is looked up, builds the demonstration witness and
the triangle-(1,1,2) witness under the patch, and cross-checks both.  A
mutant is caught when the cross-check rejects one of them, or when a build
refuses with an error.  A mutant that never changes what its function
returns on these two builds cannot be caught by any check and is reported
as not exercised.

A sound verifier catches every mutation; the exit code is 1 if any slips
through.

Witness mutations:
  * valuation-bit flips: transpose the two vertex copies differing in one
    stored bit, rewriting that level's edge relation only
  * label bumps: add 1 to a single edge label of a stored level or of the
    final space.  A witness file no longer stores the final space (the
    loader derives it from the levels), so a bump there models a fault of
    the construction that computed it, not an edit of the file; a level
    bump models either.

Construction mutations:
  * cycle size off by one in the induced-cycle search
    (`induced_nonmetric_cycles_at` looks for cycles one vertex longer)
  * one anchor bit of the embedded copy flipped (`anchor_valuations`)
  * one member dropped from a non-empty flip set (`compute_flip_set`)
  * two tokens matched to each other's images, in every token permutation
    a replay moves B0 by (`setrep.extend_by_permutation`)
  * one unlabelled class distance raised by one scaled unit in the class
    table's ranks (`ClassTable.codes`), which the tower-free final space
    reads and the build's own class check does not
  * the highest class of every non-empty range of third sides dropped from
    the triangle rule of J(m, k) (`setrep._third_sides`), which the class
    walks and the class metric check both read

    python3 scripts/mutation_probe.py --demo
    python3 scripts/mutation_probe.py witness.json --bumps 25 --seed 7
    python3 scripts/mutation_probe.py --construction
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import random
import sys
from contextlib import contextmanager

from eppa import (
    PartialMap,
    Witness,
    build_next_level,
    build_witness,
    cross_check,
    graph_from_triples,
)
from eppa.errors import EppaError
from eppa.fileio import load_json, witness_from_json
from eppa.graphs import EdgeLabelledGraph
from eppa.levels import LevelGraph, parse_level_vertex
from eppa.pipeline import final_space


def expansion_witness(core: EdgeLabelledGraph, anchor: str, size: int, n: int) -> Witness:
    """A one-point space at `anchor` of `core` (the base, level 2), under
    one expansion level of the given size; the levels in between are not
    stored, so `core` must have no non-metric cycle on fewer vertices."""
    a = graph_from_triples(["z"], [])
    prev = LevelGraph(graph=core, level=2, base_embedding=PartialMap({"z": anchor}), bad_sets=())
    levels = (prev, build_next_level(prev, size))
    return Witness(input=a, set_assignment=None, levels=levels,
                   final=final_space(a, None, levels), n=n)


def demo_witness() -> Witness:
    """One expansion step over a graph with two overlapping non-metric
    triangles; its twelve derived vertices carry twenty valuation bits."""
    core = EdgeLabelledGraph(
        ["p", "q", "r", "s"],
        [("p", "q", 3), ("p", "r", 1), ("q", "r", 1), ("p", "s", 1), ("q", "s", 1)],
    )
    return expansion_witness(core, "r", 3, 3)


def bit_flip_mutants(w: Witness):
    for idx, lvl in enumerate(w.levels):
        if lvl.level < 3:
            continue  # base-level ids carry no valuation bits
        for vid in lvl.graph.vertices:
            base, bits = parse_level_vertex(vid)
            for pos in range(len(bits)):
                other = base + ";" + bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1 :]
                swap = {vid: other, other: vid}
                edges = [(swap.get(u, u), swap.get(v, v), d) for u, v, d in lvl.graph.edges()]
                mutated = dataclasses.replace(
                    lvl, graph=EdgeLabelledGraph(lvl.graph.vertices, edges)
                )
                yield (
                    f"flip level[{idx}] {vid} bit {pos}",
                    dataclasses.replace(w, levels=w.levels[:idx] + (mutated,) + w.levels[idx + 1 :]),
                )


def label_bump_mutants(w: Witness, rng: random.Random, count: int):
    spots = [("final", None, i) for i in range(len(w.final.edges()))]
    for idx, lvl in enumerate(w.levels):
        spots.extend(("level", idx, i) for i in range(len(lvl.graph.edges())))
    rng.shuffle(spots)
    for kind, idx, i in spots[:count]:
        if kind == "final":
            edges = list(w.final.edges())
            u, v, d = edges[i]
            edges[i] = (u, v, d + 1)
            yield (
                f"bump final edge {u}~{v}",
                dataclasses.replace(w, final=EdgeLabelledGraph(w.final.vertices, edges)),
            )
        else:
            lvl = w.levels[idx]
            edges = list(lvl.graph.edges())
            u, v, d = edges[i]
            edges[i] = (u, v, d + 1)
            mutated = dataclasses.replace(lvl, graph=EdgeLabelledGraph(lvl.graph.vertices, edges))
            yield (
                f"bump level[{idx}] edge {u}~{v}",
                dataclasses.replace(w, levels=w.levels[:idx] + (mutated,) + w.levels[idx + 1 :]),
            )


# -- construction mutants ---------------------------------------------------


@contextmanager
def patched(name: str, make):
    """Replace the eppa function `name` by make(original, fired) in every
    eppa module that holds it, or for a name "Class.attr" the cached
    property attr of that eppa class; the mutant appends to `fired` whenever
    it returns something other than the original would."""
    owner, _, attr = name.rpartition(".")
    if owner:
        cls = next(getattr(mod, owner) for mod_name, mod in sorted(sys.modules.items())
                   if mod_name.startswith("eppa.") and hasattr(mod, owner))
        original = cls.__dict__[attr]
        fired: list[bool] = []
        mutant = functools.cached_property(make(original.func, fired))
        mutant.__set_name__(cls, attr)
        setattr(cls, attr, mutant)
        try:
            yield fired
        finally:
            setattr(cls, attr, original)
        return
    original = None
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if (mod_name == "eppa" or mod_name.startswith("eppa.")) and hasattr(mod, name):
            original = original or getattr(mod, name)
            if getattr(mod, name) is original:
                sites.append(mod)
    fired: list[bool] = []
    mutant = make(original, fired)
    for mod in sites:
        setattr(mod, name, mutant)
    try:
        yield fired
    finally:
        for mod in sites:
            setattr(mod, name, original)


def cycle_size_off_by_one(real, fired):
    def mutant(g, u, v, size):
        got = real(g, u, v, size + 1)
        if got != real(g, u, v, size):
            fired.append(True)
        return got
    return mutant


def anchor_bit_flipped(real, fired):
    def mutant(g, copy_vertices, bad):
        anchors = dict(real(g, copy_vertices, bad))
        if anchors:
            key = next(iter(anchors))
            anchors[key] ^= 1
            fired.append(True)
        return anchors
    return mutant


def flip_member_dropped(real, fired):
    def mutant(prev, nxt, phi, hat_phi):
        flips = real(prev, nxt, phi, hat_phi)
        if flips:
            fired.append(True)
            return flips - {min(flips, key=lambda m: sorted(m.members))}
        return flips
    return mutant


def tokens_mismatched(real, fired):
    # the first two tokens' destinations are swapped in every token
    # permutation the replay passes to `setrep.subset_automorphism`
    def mutant(sa, pairs):
        dest = real(sa, pairs)
        if len(dest) > 1:
            dest = [dest[1], dest[0], *dest[2:]]
            fired.append(True)
        return dest
    return mutant


def class_distance_raised(real, fired):
    # every unlabelled class distance is the sum of two others on a triangle
    # that occurs, so no raise keeps the final space a metric
    def mutant(table):
        k = len(table.distances) - 1
        # the first walk holds the labels: the classes it leaves empty are unlabelled
        unlabelled = [c for c in range(max(0, 2 * k - table.m), k) if table.walks[0][c] is None]
        if not unlabelled:
            return real(table)
        last = list(table.walks[-1])
        last[unlabelled[0]] += 1
        fired.append(True)
        return real(dataclasses.replace(table, walks=(*table.walks[:-1], tuple(last))))
    return mutant


def third_side_dropped(real, fired):
    # a mutant that widens a range can leave every build as it was, so this
    # one narrows each: the walks miss a class they reach
    def mutant(m, k, i, j):
        third = real(m, k, i, j)
        if third:
            fired.append(True)
            return third[:-1]
        return third
    return mutant


CONSTRUCTION_MUTANTS = [
    ("cycle size off by one", "induced_nonmetric_cycles_at", cycle_size_off_by_one),
    ("anchor bit flipped", "anchor_valuations", anchor_bit_flipped),
    ("flip-set member dropped", "compute_flip_set", flip_member_dropped),
    ("tokens matched to each other's images", "extend_by_permutation", tokens_mismatched),
    ("unlabelled class distance raised", "ClassTable.codes", class_distance_raised),
    ("highest third side dropped", "_third_sides", third_side_dropped),
]


def triangle_112() -> Witness:
    return build_witness(graph_from_triples(
        ["x", "y", "z"], [("x", "y", 1), ("x", "z", 1), ("y", "z", 2)]
    ))


def probe_construction() -> int:
    """Build and cross-check both witnesses under every construction mutant;
    1 if an exercised mutant escapes."""
    builds = [("demo", demo_witness), ("triangle-112", triangle_112)]
    for tag, build in builds:
        if not cross_check(build()).ok:
            print(f"the unmutated {tag} witness already fails its cross-check; aborting")
            return 1
    caught = escaped = idle = 0
    for label, name, make in CONSTRUCTION_MUTANTS:
        with patched(name, make) as fired:
            rejected = []
            for tag, build in builds:
                try:
                    w = build()
                except EppaError as exc:  # the construction refused: no witness to slip through
                    rejected.append(f"{tag} (build raised {type(exc).__name__})")
                    continue
                report = cross_check(w)
                if not report.ok:
                    first = next(r for r in report.results if not r.passed and not r.skipped)
                    rejected.append(f"{tag} ({first.name})")
        if rejected:
            caught += 1
            print(f"caught   {label}: {', '.join(rejected)}")
        elif fired:
            escaped += 1
            print(f"ESCAPED  {label}")
        else:
            idle += 1
            print(f"idle     {label}: never changed a result on these builds")
    exercised = caught + escaped
    print(f"\n{caught}/{exercised} exercised construction mutants caught"
          f" ({idle} of {len(CONSTRUCTION_MUTANTS)} not exercised)")
    return 1 if escaped else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("witness", nargs="?", help="witness JSON file")
    ap.add_argument("--demo", action="store_true", help="use the built-in demonstration witness")
    ap.add_argument("--construction", action="store_true",
                    help="mutate the construction instead of a stored witness")
    ap.add_argument("--bumps", type=int, default=20, help="number of label-bump mutants")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    if args.construction:
        if args.demo or args.witness:
            ap.error("--construction builds its own witnesses")
        return probe_construction()
    if args.demo == bool(args.witness):
        ap.error("pass a witness file or --demo, not both or neither")
    w = demo_witness() if args.demo else witness_from_json(load_json(args.witness))

    base = cross_check(w)
    if not base.ok:
        print("the unmutated witness already fails its cross-check; aborting")
        print(base.summary())
        return 1

    rng = random.Random(args.seed)
    mutants = list(bit_flip_mutants(w)) + list(label_bump_mutants(w, rng, args.bumps))
    escaped = []
    for tag, mutant in mutants:
        report = cross_check(mutant)
        verdict = "caught" if not report.ok else "ESCAPED"
        if report.ok:
            escaped.append(tag)
        print(f"{verdict:8s} {tag}")

    print(f"\n{len(mutants) - len(escaped)}/{len(mutants)} mutations caught")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
