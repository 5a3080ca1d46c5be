#!/usr/bin/env python3
"""Build witnesses for a handful of small metric spaces and report timings.

Runs the full pipeline on each bundled fixture (or on graph files passed on
the command line), prints size statistics, the build time (in ms, as are
the dump and load times), the traced peak
of a second, untimed build (`tracemalloc`, in MB), the size of the
witness file in MB (10^6 bytes, as `dump_json` writes it) and its bytes
split into B0's code string and everything else, the time
`witness_to_json` and the JSON encoder take to write that text, and the
time `witness_from_json` takes to load it back from the parsed JSON.  The
loaded witness must equal the built one, its derived final space and every
level alike.  It optionally extends every partial isometry of the input
on the loaded witness, as `eppa extend` does, timing each `extend_isometry`
call alone (the first apart, as it builds the lazy bitmask table and
the witness's table of the copy's final positions, then the median and
p90 per map over the others) and checking each result
with `check_map` outside the timer, or times the independent cross-check of each
witness (the first run apart, then the median of four more) and prints its
traced peak (`tracemalloc`, in MB, of one more, untimed run), its
verdict, the path its final checks took
(explicit, sweeping from every vertex, or through one vertex of a
vertex-transitive B0) and how the extension property was shown: "every map
replayed" when the replay of every partial isometry passed, and, where the
extension search ran, the number of assignments it attempted over all
maps.  The exit
code is 1 if a loaded witness differs from the built one or a witness
fails its cross-check.

    python3 scripts/run_fixtures.py
    python3 scripts/run_fixtures.py --verify
    python3 scripts/run_fixtures.py --extend-all --output-dir /tmp/witnesses
    python3 scripts/run_fixtures.py my_space.json --extend-all
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from eppa import (
    build_witness,
    check_map,
    cross_check,
    enumerate_partial_automorphisms,
    extend_isometry,
    graph_from_triples,
    witness_stats,
)
from eppa.fileio import dump_json, graph_from_json, load_json, witness_from_json, witness_to_json
from eppa.graphs import EdgeLabelledGraph

# cross_check runs once more than this per witness with --verify: the first
# run is printed apart, then the median of these
WARM_VERIFY_RUNS = 4


def bundled_fixtures() -> list[tuple[str, EdgeLabelledGraph]]:
    return [
        ("two-point", graph_from_triples(["a", "b"], [("a", "b", 1)])),
        (
            "triangle-112",
            graph_from_triples(
                ["x", "y", "z"], [("x", "y", 1), ("x", "z", 1), ("y", "z", 2)]
            ),
        ),
        (
            "triangle-123",
            graph_from_triples(
                ["x", "y", "z"], [("x", "y", 1), ("x", "z", 2), ("y", "z", 3)]
            ),
        ),
        (
            "four-point",
            graph_from_triples(
                ["a", "b", "c", "d"],
                [
                    ("a", "b", 1),
                    ("b", "c", 1),
                    ("c", "d", 1),
                    ("a", "d", 1),
                    ("a", "c", 2),
                    ("b", "d", 2),
                ],
            ),
        ),
    ]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, nearest rank."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_one(name: str, g: EdgeLabelledGraph, args: argparse.Namespace) -> bool:
    """Build, reload (and extend, verify, write) one witness; False if the
    reloaded witness differs from the built one or fails its cross-check."""
    t0 = time.perf_counter()
    w = build_witness(g, vertex_cap=args.vertex_cap)
    build_s = time.perf_counter() - t0
    tracemalloc.start()  # apart from the timed build, which tracing would slow
    build_witness(g, vertex_cap=args.vertex_cap)
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()

    stats = witness_stats(w)
    t0 = time.perf_counter()
    obj = witness_to_json(w)
    text = json.dumps(obj, separators=(",", ":")) + "\n"  # ASCII, as dump_json writes it
    dump_s = time.perf_counter() - t0
    parsed = json.loads(text)
    t0 = time.perf_counter()
    loaded = witness_from_json(parsed)
    load_s = time.perf_counter() - t0
    print(f"== {name}")
    print(f"   input: {len(g)} vertices, spectrum {stats['spectrum']}")
    print(f"   tower: levels {stats['levels']} -> final {stats['final_vertices']} vertices")
    codes = len(obj["b0"] or "")
    print(f"   build: {1e3 * build_s:.2f} ms, traced peak {peak_mb:.2f} MB,"
          f" witness {len(text) / 1e6:.2f} MB,"
          f" dumped in {1e3 * dump_s:.2f} ms, loaded in {1e3 * load_s:.2f} ms")
    print(f"   file: {len(text):,} bytes, {codes:,} in B0's code string"
          f" ({100 * codes / len(text):.1f} %), {len(text) - codes:,} else")

    if args.extend_all:
        # on the loaded witness, as `eppa extend` replays one
        times = []
        for phi in enumerate_partial_automorphisms(g, len(g)):
            t0 = time.perf_counter()
            theta = extend_isometry(loaded, phi)
            times.append(time.perf_counter() - t0)
            if not check_map(theta, loaded.final, loaded.final):
                raise SystemExit(f"{name}: extension of {dict(phi.items())} is not an automorphism")
        first, rest = times[0], times[1:] or times
        p50, p90 = (1e3 * percentile(rest, q) for q in (50, 90))
        print(f"   extend: {len(times)} partial isometries in {sum(times):.3f}s;"
              f" first {1e3 * first:.2f} ms (builds the bitmask and copy-position tables),"
              f" then {p50:.2f} ms median, {p90:.2f} ms p90 per map")

    ok = loaded.final == w.final and loaded.levels == w.levels
    if not ok:
        print("   reload: the loaded witness differs from the built one")
    if args.verify:
        times = []
        for _ in range(1 + WARM_VERIFY_RUNS):
            t0 = time.perf_counter()
            report = cross_check(w)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()  # apart from the timed runs, which tracing would slow
        cross_check(w)
        verify_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        ok = ok and report.ok
        failed = [r.name for r in report.results if not r.passed and not r.skipped]
        skipped = [r.name for r in report.results if r.skipped]
        replayed = any(r.name == "extension-replay" and r.passed for r in report.results)
        print(f"   verify: {'PASS' if report.ok else 'FAIL'}, first in {1e3 * times[0]:.1f} ms"
              f" (builds the extension's tables), then {1e3 * statistics.median(times[1:]):.1f} ms"
              f" median of {WARM_VERIFY_RUNS}, traced peak {verify_mb:.2f} MB,"
              f" final checks {report.path}"
              + (", every map replayed" if replayed else "")
              + (f", {report.totals['search_assignments']} search assignments"
                 if "search_assignments" in report.totals else "")
              + (f", failed {', '.join(failed)}" if failed else "")
              + (f", skipped {', '.join(skipped)}" if skipped else ""))

    if args.output_dir:
        path = Path(args.output_dir) / f"{name}.witness.json"
        dump_json(str(path), obj)
        print(f"   wrote {path}")
    return ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("graphs", nargs="*", help="graph JSON files; default: bundled fixtures")
    ap.add_argument("--extend-all", action="store_true", help="extend every partial isometry")
    ap.add_argument("--verify", action="store_true", help="time cross_check on each witness")
    ap.add_argument("--vertex-cap", type=int, default=200_000)
    ap.add_argument("--output-dir", help="write witness files here")
    args = ap.parse_args(argv)

    if args.output_dir:
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)

    if args.graphs:
        jobs = [(Path(p).stem, graph_from_json(load_json(p))) for p in args.graphs]
    else:
        jobs = bundled_fixtures()

    results = [run_one(name, g, args) for name, g in jobs]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
