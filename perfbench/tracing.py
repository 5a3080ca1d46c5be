"""Spans and counts around the program's public functions, for traced runs.

`install` replaces each traced function at every place the program looks it
up: the module that defines it, every ``eppa`` module that imported it by
name, and the ``eppa`` package itself.  The program's own call path is then
traced without any change to its code.  Spans stay in memory while the
tracer is active and are written as JSON lines at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

# (module, function) pairs, named as in the per-layer metrics.
TRACED = (
    ("pipeline", "build_witness"),
    ("pipeline", "extend_isometry"),
    ("setrep", "build_set_assignment"),
    ("setrep", "build_eppa_graph"),
    ("setrep", "extend_by_permutation"),
    ("setrep", "subset_automorphism"),
    ("levels", "build_next_level"),
    ("levels", "bad_sets"),
    ("levels", "compute_flip_set"),
    ("levels", "lift_automorphism"),
    ("completion", "shortest_path_completion"),
    ("completion", "find_induced_nonmetric_cycles"),
    ("completion", "has_nonmetric_cycle_up_to"),
    ("graphs", "EdgeLabelledGraph"),
    ("graphs", "is_metric_space"),
    ("graphs", "induced_subgraph"),
    ("fileio", "witness_to_json"),
    ("fileio", "witness_from_json"),
    ("fileio", "dump_json"),
    ("fileio", "load_json"),
    ("verifier", "cross_check"),
    ("verifier", "verify_eppa"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records a span per traced call while `active` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    def top_level_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Per span name: total self time (duration minus the children's
    durations) and the number of calls."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, tuple[float, int]] = {}
    for s, inner in zip(spans, child_time):
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + (s.end - s.start) - inner, calls + 1)
    return out


def _count_b0(counts, result, args) -> None:
    graph, _ = result
    counts["setrep.b0_vertices"] += len(graph)
    counts["setrep.b0_edges"] += graph.edge_count


def _count_graph(counts, result, args) -> None:
    counts["graphs.edges_built"] += args[0].edge_count


def _count_bad_sets(counts, result, args) -> None:
    counts["levels.bad_sets_found"] += len(result)
    counts["levels.searches"] += 1
    counts["levels.useful_searches"] += bool(result)


def _count_report(counts, result, args) -> None:
    counts["verifier.maps_searched"] += result.totals.get("partial_maps_searched", 0)
    counts["verifier.maps_replayed"] += result.totals.get("partial_maps_replayed", 0)
    counts["verifier.checks"] += len(result.results)
    counts["verifier.skipped"] += sum(r.skipped for r in result.results)


_COUNTERS = {
    "setrep.build_eppa_graph": _count_b0,
    "graphs.EdgeLabelledGraph": _count_graph,
    "levels.bad_sets": _count_bad_sets,
    "verifier.cross_check": _count_report,
}


def install(tracer: Tracer):
    """Wrap every traced function at all its lookup sites; returns a
    function that puts the originals back."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "eppa" or name.startswith("eppa.")]
    undo = []
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        original = getattr(sys.modules[f"eppa.{mod_name}"], fn_name)
        if isinstance(original, type):
            init = original.__init__
            original.__init__ = tracer.wrap(name, init, _COUNTERS.get(name))
            undo.append((original, "__init__", init))
            continue
        wrapped = tracer.wrap(name, original, _COUNTERS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics averaged over traced rounds, as name -> (value, unit)."""
    times = self_times(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        total, calls = times.get(name, (0.0, 0))
        out[f"{name}.self_s"] = (total / rounds, "s")
        out[f"{name}.calls"] = (calls / rounds, "count")
    c = tracer.counts
    for key in ("setrep.b0_vertices", "setrep.b0_edges", "graphs.edges_built",
                "levels.bad_sets_found", "verifier.maps_searched", "verifier.maps_replayed"):
        out[key] = (c[key] / rounds, "count")
    out["levels.useful_search_frac"] = (
        c["levels.useful_searches"] / c["levels.searches"] if c["levels.searches"] else 0.0, "ratio")
    out["verifier.skipped_frac"] = (
        c["verifier.skipped"] / c["verifier.checks"] if c["verifier.checks"] else 0.0, "ratio")
    return out
