"""Command-line front end.

Commands: check, complete, cycles, eppa-step, witness, extend, verify,
stats.  Human summaries go to standard output, data to --output files (or
stdout as JSON when no path is given).  Exit codes: 0 success, 1 predicate
or verification failure, 2 resource or budget exhaustion, 3 parse or usage
error, a numeric option out of range among them.  EPPA_CONFIG may name a
JSON file with default limits ({"vertex_cap": ..., "search_budget": ...},
each an integer of at least 1).  Witness files are read and
written in the `eppa-witness/8` format, which stores the input alone:
loading one builds the witness again (see `fileio`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .completion import find_induced_nonmetric_cycles, is_connected, shortest_path_completion
from .errors import (
    BudgetExhausted,
    EppaError,
    GraphFormatError,
    NotAMetricSpace,
    VertexCapExceeded,
)
from .fileio import (
    dump_json,
    format_label,
    graph_from_json,
    graph_to_codes,
    graph_to_json,
    load_json,
    map_from_json,
    map_to_json,
    report_to_json,
    witness_from_json,
    witness_to_json,
)
from .graphs import is_metric_space, metric_violation
from .pipeline import build_witness, extend_isometry, witness_stats
from .setrep import build_eppa_graph, build_set_assignment, subset_graph_size
from .verifier import cross_check


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 3, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


# the keys an EPPA_CONFIG file may set, with the type of each
_ENV_KEYS = {"vertex_cap": int, "search_budget": int}


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type when the text is no integer
    return parse


def _env_defaults() -> dict:
    path = os.environ.get("EPPA_CONFIG")
    if not path:
        return {}
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise GraphFormatError(f"config file {path} must hold a JSON object")
    for key, value in obj.items():
        if key not in _ENV_KEYS:
            raise GraphFormatError(f"config file {path}: unknown key {key!r}")
        kind = _ENV_KEYS[key]
        if type(value) is not kind:  # so a bool is not an int
            raise GraphFormatError(f"config file {path}: {key!r} must be of type "
                                   f"{kind.__name__}, got {value!r}")
        if value < 1:
            raise GraphFormatError(f"config file {path}: {key!r} must be at least 1, got {value}")
    return obj


def _emit(args, obj, what: str) -> None:
    if args.output:
        dump_json(args.output, obj)
        print(f"wrote {what} to {args.output}")
    else:
        json.dump(obj, sys.stdout)
        sys.stdout.write("\n")


def _load_graph(path: str):
    return graph_from_json(load_json(path))


def _print_cycles(g, top: int, line) -> int:
    """Print line(size, w) for each induced non-metric cycle w of g up to `top` points."""
    found = 0
    for size in range(3, min(top, len(g)) + 1):
        for w in find_induced_nonmetric_cycles(g, size):
            found += 1
            print(line(size, w))
    return found


def cmd_check(args) -> int:
    g = _load_graph(args.file)
    bad = metric_violation(g) if g.is_complete() else None
    metric = g.is_complete() and bad is None
    connected = len(g) > 0 and is_connected(g)
    print(f"vertices: {len(g)}")
    print(f"edges: {g.edge_count}")
    print(f"spectrum: {[format_label(s) for s in g.spectrum()]}")
    print(f"metric: {'yes' if metric else 'no'}")
    print(f"connected: {'yes' if connected else 'no'}")
    failed = False
    if args.metric and not metric:
        if bad:
            print(f"violating triple: {bad[0]} {bad[1]} {bad[2]}")
        failed = True
    if args.connected and not connected:
        failed = True
    if args.cycles_up_to is not None:
        found = _print_cycles(g, args.cycles_up_to, lambda _, w: (
            f"non-metric cycle on {list(w.vertices)}: long edge "
            f"{list(w.long_edge)} exceeds the rest by {format_label(w.deficit)}"))
        print(f"induced non-metric cycles up to size {args.cycles_up_to}: {found}")
        if found:
            failed = True
    return 1 if failed else 0


def cmd_complete(args) -> int:
    g = _load_graph(args.file)
    done = shortest_path_completion(g)
    _emit(args, graph_to_json(done), "completion")
    return 0


def cmd_cycles(args) -> int:
    g = _load_graph(args.file)
    top = args.max_size if args.max_size is not None else len(g)
    total = _print_cycles(g, top, lambda size, w: (
        f"size {size}: {list(w.vertices)} long edge {list(w.long_edge)} "
        f"deficit {format_label(w.deficit)}"))
    print(f"total induced non-metric cycles: {total}")
    return 0


def cmd_eppa_step(args) -> int:
    g = _load_graph(args.file)
    if not is_metric_space(g):
        raise NotAMetricSpace("input is not a finite metric space")
    subset_graph_size(g, args.vertex_cap)  # before any token is laid out
    sa = build_set_assignment(g)
    b, emb = build_eppa_graph(sa, vertex_cap=args.vertex_cap)
    print(f"subset size k: {sa.k}")
    print(f"token universe: {len(sa.universe)}")
    print(f"derived vertices: {len(b)}")
    print(f"derived edges: {b.edge_count}")
    _emit(
        args,
        {"graph": graph_to_codes(b), "embedding": map_to_json(emb), "k": sa.k,
         "universe": list(sa.universe)},
        "one-step extension graph",
    )
    return 0


def cmd_witness(args) -> int:
    g = _load_graph(args.file)
    w = build_witness(g, vertex_cap=args.vertex_cap)
    stats = witness_stats(w)
    print(json.dumps(stats, indent=2))
    _emit(args, witness_to_json(w), "witness")
    return 0


def cmd_extend(args) -> int:
    w = witness_from_json(load_json(args.witness))
    phi = map_from_json(load_json(args.map))
    theta = extend_isometry(w, phi)
    _emit(args, map_to_json(theta), "extension")
    return 0


def cmd_verify(args) -> int:
    w = witness_from_json(load_json(args.witness))
    report = cross_check(w, budget=args.budget, search_limit=args.search_limit)
    print(report.summary())
    if args.output:
        dump_json(args.output, report_to_json(report))
        print(f"wrote report to {args.output}")
    if not report.ok:
        return 1
    if report.budget_exhausted:
        return 2
    return 0


def cmd_stats(args) -> int:
    w = witness_from_json(load_json(args.witness))
    print(json.dumps(witness_stats(w), indent=2))
    return 0


def _build_parser() -> _Parser:
    env = _env_defaults()
    cap = env.get("vertex_cap", 200_000)
    budget = env.get("search_budget", 10_000_000)

    parser = _Parser(prog="eppa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the options it reads
    def output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write the command's data to this file")

    def vertex_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument("--vertex-cap", type=_at_least(1), default=cap,
                       help="largest graph any stage may build")

    p = sub.add_parser("check", help="parse a graph file and report its basic predicates")
    p.add_argument("file")
    p.add_argument("--metric", action="store_true", help="fail unless the graph is a metric space")
    p.add_argument("--connected", action="store_true", help="fail unless the graph is connected")
    p.add_argument("--cycles-up-to", type=_at_least(0), metavar="N",
                   help="list induced non-metric cycles up to size N and fail if any exist")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("complete", help="write the shortest-path completion of a connected graph")
    p.add_argument("file")
    output(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("cycles", help="list all induced non-metric cycles")
    p.add_argument("file")
    p.add_argument("--max-size", type=_at_least(0), metavar="N", help="largest cycle size to search")
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("eppa-step",
                       help="run the one-step extension construction alone")
    p.add_argument("file")
    vertex_cap(p)
    output(p)
    p.set_defaults(func=cmd_eppa_step)

    p = sub.add_parser("witness", help="run the full construction and write the witness")
    p.add_argument("file")
    vertex_cap(p)
    output(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("extend", help="extend a partial isometry using a stored witness")
    p.add_argument("witness")
    p.add_argument("map")
    output(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="re-verify every layer of a stored witness")
    p.add_argument("witness")
    p.add_argument("--search-limit", type=_at_least(0), default=150,
                   help="skip the extension-property check above this many vertices; at or "
                        "below it the brute-force search runs only where no replay passes")
    p.add_argument("--budget", type=_at_least(1), default=budget,
                   help="node budget for the short-cycle checks and the extension search")
    output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="print statistics of a stored witness")
    p.add_argument("witness")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _build_parser()
    except EppaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VertexCapExceeded, BudgetExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EppaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
