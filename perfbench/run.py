#!/usr/bin/env python3
"""Benchmark for eppa: three seeded workloads through the public API.

    python3 perfbench/run.py --workload flat-build --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The program is imported from ``src/`` of the checkout that holds this
directory.  One run prints its metrics by name with their units, a
``# meta`` line of run metadata, and as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the metrics are the per-layer ones, and the spans are written
as JSON lines under ``perfbench/out/``.  ``--workload all`` runs every
workload in a fresh process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("flat-build", "tower-build", "replay-verify")


def commit() -> str:
    """The checkout's commit, read from .git when there is one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def src_lines() -> int:
    package = os.path.join(SRC, "eppa")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eppa", "__init__.py")):
        print(f"error: no eppa package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, SRC)
    import numpy
    import workload

    os.makedirs(OUT, exist_ok=True)
    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    ledger = result.ledger

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": result.rounds,
        "extend_samples": result.extensions,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_eppa_lines": src_lines(),
        "witnesses": {name: {"bytes": size, "sha256": digest}
                      for name, (size, digest) in sorted(result.digests.items())},
    }
    if result.tracer is not None:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        result.tracer.write(path)
        meta["trace_file"] = os.path.relpath(path, ROOT)
    print("# meta " + json.dumps(meta, sort_keys=True))
    for failure in ledger.failures:
        print(f"# failed {failure}")
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload:14s} {name:48s} {value:14.6f} {unit}")
    for name, value in result.raw.items():
        print(f"# unscaled {args.workload} {name} {value:.6f}")
    frac = ledger.failed / ledger.attempted
    print(f"{args.workload:14s} {'failed_frac':48s} {frac:14.6f} ratio "
          f"({ledger.failed} of {ledger.attempted} ops)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
