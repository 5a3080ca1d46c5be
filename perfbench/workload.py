"""One benchmark run: set-up, timed rounds, output checks and metrics.

Every workload runs the same round through the program's public API:

1. build: `build_witness` on each input (in set-up for replay-verify);
2. round trip: `witness_to_json` -> `dump_json` -> `load_json` ->
   `witness_from_json` on the inputs that are extended or verified; it gives
   the fresh witness objects the later phases use, so extension pays its
   lazy set-up in every round;
3. extend: `extend_isometry` on the partial isometries of the inputs marked
   for it (a seeded sample where there are more than MAPS_PER_INPUT), in a
   seeded order;
4. verify: `cross_check` on the inputs marked for it.

The workloads differ in their inputs and so in which layer does the work.
Every time metric is scaled to a fixed host speed by a reference loop that
runs all through the run (see `Reference`).  All program calls are looked
up on the modules when they are made, so the tracer's wrappers see the
benchmark's calls too.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

import eppa
import eppa.fileio

import tracing
from checks import LabelCodes, composable_pairs, composition_problem, copy_problem
from inputs import Space, partial_isometries, workload_inputs

# About this many partial isometries are extended per input.  Only the
# 4-point one-label space of flat-build has more (209), and extending them
# all would take as long as its build.
MAPS_PER_INPUT = 34
PAIRS_PER_INPUT = 16  # seeded composable pairs checked per input
MIN_ROUNDS = 2
# Cheap ops repeat within a round until their passes add up to this many
# seconds, at most MAX_PASSES times.
REPEAT_FLOOR_S = 0.25
MAX_PASSES = 50
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 0.5
# The reference loop runs once per this many seconds, also in the middle of
# an op.  Each op time is scaled by the loop's speed during the op, or around
# it over the REFERENCE_NEAREST nearest runs when fewer ran during it.
REFERENCE_EVERY_S = 0.01
REFERENCE_NEAREST = 9
# Time metrics are reported at the host speed at which the reference loop
# takes this long, near its fastest times on a 2-vCPU shared VM with
# Python 3.11.7 (0.8-1.0 ms; 1.4-1.6 ms is typical there).
REFERENCE_S = 0.001


def reference_loop() -> object:
    """A fixed piece of pure-Python work of the program's kind: Fraction
    arithmetic, tuple keys in a dict, and a sort."""
    total = Fraction(0)
    table = {}
    for i in range(1, 300):
        total += Fraction(i % 13 + 1, i % 7 + 2)
        table[(i % 31, i)] = total
    return min(table, key=table.__getitem__)


# One timed op: (perf_counter at its start, at its end, and its seconds
# without the reference loop's runs in between).
Sample = tuple[float, float, float]


def unscaled(sample: Sample) -> float:
    return sample[2]


class Reference:
    """Times `reference_loop` every REFERENCE_EVERY_S seconds of a run, from a
    timer signal, so also in the middle of a long op.

    The benchmark runs on a few vCPUs of a shared host, whose speed drifts by
    a quarter and more between runs and within one, as its neighbours' load
    changes.  The drift slows this loop as it slows the program, so `scaled`
    turns an op time measured at some moment into the time at a fixed host
    speed, the one at which the loop takes REFERENCE_S.  Used as a context
    manager, it runs the timer while the block runs.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter at the end of each loop run
        self.samples: list[float] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.ends.append(end)
        self.samples.append(end - start)
        self._busy = False

    def __enter__(self) -> "Reference":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _during(self, start: float, end: float) -> tuple[int, int]:
        """Indices of the loop runs that ran between `start` and `end`; a run
        ending then began after `start`, since the loop interrupts the op."""
        return bisect.bisect_right(self.ends, start), bisect.bisect_right(self.ends, end)

    def sample(self, start: float, end: float) -> Sample:
        lo, hi = self._during(start, end)
        return start, end, end - start - sum(self.samples[lo:hi])

    def scaled(self, sample: Sample) -> float:
        """The op's seconds times the loop's mean speed during it (or around
        it, when the op was short), where speed 1 means one loop per
        REFERENCE_S.

        The mean of speeds, not of times, is what the op's own progress
        integrates: a stretch where the host stalls adds time to the op and
        to one loop run, and counts as near-zero speed.
        """
        start, end, seconds = sample
        lo, hi = self._during(start, end)
        if hi - lo < REFERENCE_NEAREST:
            lo = max(0, (lo + hi) // 2 - REFERENCE_NEAREST // 2)
            hi = lo + REFERENCE_NEAREST
        return seconds * statistics.fmean(REFERENCE_S / t for t in self.samples[lo:hi])


class Ledger:
    """Counts attempted and failed operations.

    An operation fails when it raises any exception (not only the program's
    own errors) or when its output fails a check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer: tracing.Tracer | None = None
        self.reference = Reference()

    def op(self, kind: str, fn, check=None):
        """Run and time one operation; returns (result or None, sample).
        Only `fn` is timed and traced, not its check."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        sample = self.reference.sample(start, time.perf_counter())
        if self.tracer is not None:
            self.tracer.active = False
        if error is None and check is not None:
            try:
                error = check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self._fail(kind, error)
            return None, sample
        return result, sample

    def check(self, kind: str, problem: str | None) -> None:
        """Count a check of earlier results as one operation."""
        self.attempted += 1
        if problem is not None:
            self._fail(kind, problem)

    def _fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {detail}")


@dataclass
class Case:
    """One input with its bench-side references."""

    space: Space
    graph: object
    maps: list[dict[str, str]]
    partial: list[object]
    pairs: list[tuple[int, int, int]]
    witness: object = None
    codes: LabelCodes | None = None


@dataclass
class Round:
    """Op times of one round by (phase, input), as passes: several passes
    where an op is cheap; for extension, a pass holds every map of the input.
    Also the latencies of each extension by (input, map)."""

    times: dict[tuple[str, str], list[list[Sample]]] = field(default_factory=dict)
    latencies: dict[tuple[str, int], list[Sample]] = field(default_factory=dict)

    def add(self, phase: str, name: str, samples: list[Sample]) -> None:
        self.times.setdefault((phase, name), []).append(samples)

    @property
    def timed_s(self) -> float:
        return sum(map(unscaled, (s for ps in self.times.values() for p in ps for s in p)))


def phase_seconds(rounds: list[Round], phase: str, seconds=unscaled) -> float:
    """A phase's time per round: over inputs, the sum of the median time of
    one pass on that input, with each op's time given by `seconds`."""
    passes: dict[str, list[float]] = {}
    for r in rounds:
        for (p, name), ps in r.times.items():
            if p == phase:
                passes.setdefault(name, []).extend(sum(map(seconds, p)) for p in ps)
    return sum(statistics.median(ts) for ts in passes.values())


def passes(ledger: Ledger, r: Round, phase: str, name: str, fn, check, floor: float):
    """Run an op, and again while this round's passes of it took less than
    `floor` seconds (at most MAX_PASSES), so that cheap ops get enough
    samples to give a steady median.  Returns the last result, or None once
    a pass fails."""
    total = 0.0
    for _ in range(MAX_PASSES):
        result, sample = ledger.op(phase, fn, check)
        r.add(phase, name, [sample])
        total += unscaled(sample)
        if result is None or total >= floor:
            break
    return result


def make_cases(workload: str, seed: int) -> list[Case]:
    """Generate the inputs and parse them as graph files, the only form the
    program sees."""
    rng = random.Random(f"{workload}/{seed}/pairs")
    cases = []
    for space in workload_inputs(workload, seed):
        graph = eppa.fileio.graph_from_json(json.loads(json.dumps(space.document())))
        maps = sample_maps(partial_isometries(space), rng)
        pairs = composable_pairs(maps)
        cases.append(Case(
            space=space,
            graph=graph,
            maps=maps,
            partial=[eppa.PartialMap(m) for m in maps],
            pairs=rng.sample(pairs, min(PAIRS_PER_INPUT, len(pairs))),
        ))
    return cases


def sample_maps(maps: list[dict[str, str]], rng: random.Random) -> list[dict[str, str]]:
    """All maps, or about MAPS_PER_INPUT of them when there are more, drawn
    per domain size in proportion to its share, so that the mix of domain
    sizes (and the cost) is the same on every seed."""
    if len(maps) <= MAPS_PER_INPUT:
        return maps
    by_size: dict[int, list[int]] = {}
    for j, m in enumerate(maps):
        by_size.setdefault(len(m), []).append(j)
    keep = []
    for group in by_size.values():
        keep += rng.sample(group, max(1, round(MAPS_PER_INPUT * len(group) / len(maps))))
    return [maps[j] for j in sorted(keep)]


def build_all(cases: list[Case], ledger: Ledger, r: Round, floor: float) -> None:
    for case in cases:
        space = case.space
        case.witness = passes(ledger, r, "build", space.name,
                              lambda: eppa.build_witness(case.graph),
                              lambda w: copy_problem(space.points, space.edges, w), floor)


def round_trip(w, path: str):
    eppa.fileio.dump_json(path, eppa.fileio.witness_to_json(w))
    return eppa.fileio.witness_from_json(eppa.fileio.load_json(path))


def run_round(cases: list[Case], ledger: Ledger, rng: random.Random, workdir: str,
              build: bool) -> Round:
    r = Round()
    if build:
        build_all(cases, ledger, r, REPEAT_FLOOR_S)

    fresh = {}
    for case in cases:
        space = case.space
        if not (space.extend or space.verify):
            continue
        if case.witness is None:
            ledger.check("roundtrip", f"{space.name}: no witness to round-trip")
            continue
        path = os.path.join(workdir, f"{space.name}.json")
        again = os.path.join(workdir, f"{space.name}.again.json")

        def same_bytes(w2, path=path, again=again, space=space):
            eppa.fileio.dump_json(again, eppa.fileio.witness_to_json(w2))
            with open(path, "rb") as a, open(again, "rb") as b:
                if a.read() != b.read():
                    return "round trip does not re-serialize to identical bytes"
            return copy_problem(space.points, space.edges, w2)

        w2 = passes(ledger, r, "roundtrip", space.name,
                    lambda: round_trip(case.witness, path), same_bytes, REPEAT_FLOOR_S)
        if w2 is not None:
            fresh[space.name] = w2
            if case.codes is None:
                case.codes = LabelCodes(w2.final)

    jobs = [(case, j) for case in cases if case.space.extend for j in range(len(case.maps))]
    rng.shuffle(jobs)
    extended: dict[tuple[str, int], dict] = {}
    total = 0.0
    # Like a cheap op, the extensions repeat in passes; each pass after the
    # first gets witnesses loaded afresh (untimed), so every pass pays the
    # first extension's lazy set-up.
    witnesses = fresh
    for n in range(MAX_PASSES):
        if n:
            witnesses = {case.space.name: eppa.fileio.witness_from_json(eppa.fileio.load_json(
                os.path.join(workdir, f"{case.space.name}.json")))
                for case in cases if case.space.extend and case.space.name in fresh}
        per_input: dict[str, list[Sample]] = {}
        for case, j in jobs:
            name = case.space.name
            w = witnesses.get(name)
            if w is None:
                if n == 0:
                    ledger.check("extend", f"{name}: no witness to extend on")
                continue
            emb = dict(w.final_embedding.items())
            wanted = {emb[x]: emb[y] for x, y in case.maps[j].items()}
            theta, sample = ledger.op(
                "extend", lambda: eppa.extend_isometry(w, case.partial[j]),
                lambda t: case.codes.extension_problem(t, wanted))
            r.latencies.setdefault((name, j), []).append(sample)
            per_input.setdefault(name, []).append(sample)
            total += unscaled(sample)
            if theta is not None and n == 0:
                extended[(name, j)] = dict(theta.items())
        for name, samples in per_input.items():
            r.add("extend", name, samples)
        if total >= REPEAT_FLOOR_S or not per_input:
            break

    for case in cases:
        if not case.space.extend:
            continue
        for i, k, both in case.pairs:
            got = [extended.get((case.space.name, j)) for j in (i, k, both)]
            if None in got:
                ledger.check("compose", f"{case.space.name}: an extension of the pair failed")
            else:
                ledger.check("compose", composition_problem(*got))

    for case in cases:
        w = fresh.get(case.space.name)
        if w is None or not case.space.verify:
            continue
        passes(ledger, r, "verify", case.space.name, lambda: eppa.cross_check(w),
               lambda rep: None if rep.ok else "cross_check rejected the witness",
               REPEAT_FLOOR_S)
    return r


def witness_digests(cases: list[Case], workdir: str) -> dict[str, tuple[int, str]]:
    """Byte size and sha256 of each witness as `dump_json` writes it."""
    out = {}
    for case in cases:
        if case.witness is not None:
            path = os.path.join(workdir, f"{case.space.name}.final.json")
            eppa.fileio.dump_json(path, eppa.fileio.witness_to_json(case.witness))
            with open(path, "rb") as fh:
                data = fh.read()
            out[case.space.name] = (len(data), hashlib.sha256(data).hexdigest())
    return out


def map_latencies(rounds: list[Round], seconds=unscaled) -> list[float]:
    """Each extended map's median latency over the run."""
    samples: dict[tuple[str, int], list[float]] = {}
    for r in rounds:
        for key, ss in r.latencies.items():
            samples.setdefault(key, []).extend(map(seconds, ss))
    return [statistics.median(ts) for ts in samples.values()]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, q in 1..99, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    ledger: Ledger
    rounds: int
    extensions: int  # maps behind extend_p50_ms and extend_p90_ms, each with its median latency
    digests: dict[str, tuple[int, str]]
    raw: dict[str, float] = field(default_factory=dict)  # time metrics before scaling
    tracer: tracing.Tracer | None = None


def run(workload: str, seed: int, seconds: float, trace: bool, outdir: str) -> Result:
    """Set up, then run rounds for about `seconds` seconds.

    Traced runs alternate untraced and traced rounds; the traced ones give
    the per-layer metrics and the pair gives the tracing overhead.  They run
    no reference loop, so that it adds nothing to the spans, and report
    unscaled times.
    """
    replay = workload == "replay-verify"
    ledger = Ledger()
    rounds: list[Round] = []
    traced: list[Round] = []
    tracer = tracing.Tracer() if trace else None
    timer = contextlib.nullcontext() if trace else ledger.reference
    with timer, tempfile.TemporaryDirectory(dir=outdir) as workdir:
        setups: list[Sample] = []
        setup_builds = Round()
        while (len(setups) < SETUP_MIN_REPEATS
               or (sum(map(unscaled, setups)) < SETUP_MIN_SECONDS and len(setups) < 50)):
            start = time.perf_counter()
            cases = make_cases(workload, seed)
            if replay:
                build_all(cases, ledger, setup_builds, floor=0.0)
            setups.append(ledger.reference.sample(start, time.perf_counter()))

        start = time.perf_counter()
        while True:
            rng = random.Random(f"{workload}/{seed}/round{len(rounds) + len(traced)}")
            traced_round = trace and len(rounds) > len(traced)
            restore = None
            if traced_round:
                restore = tracing.install(tracer)
                ledger.tracer = tracer
            try:
                r = run_round(cases, ledger, rng, workdir, build=not replay)
            finally:
                ledger.tracer = None
                if restore is not None:
                    restore()
            (traced if traced_round else rounds).append(r)
            done = rounds + traced
            elapsed = time.perf_counter() - start
            # start another round only if it should end within half a round
            # of the deadline
            if len(done) >= MIN_ROUNDS and elapsed + 0.5 * elapsed / len(done) > seconds:
                break
        digests = witness_digests(cases, workdir)

    if trace:
        metrics = tracing.layer_metrics(tracer, len(traced))
        timed = sum(r.timed_s for r in traced)
        metrics["trace.coverage"] = (tracer.top_level_seconds() / timed, "ratio")
        metrics["trace.overhead_frac"] = (
            statistics.median(r.timed_s for r in traced)
            / statistics.median(r.timed_s for r in rounds) - 1, "ratio")
        raw = {}
    else:
        def times(seconds):
            latencies = map_latencies(rounds, seconds)
            return {
                "setup_s": statistics.median(map(seconds, setups)),
                "build_s": phase_seconds([setup_builds] if replay else rounds, "build", seconds),
                "roundtrip_s": phase_seconds(rounds, "roundtrip", seconds),
                "extend_p50_ms": percentile(latencies, 50) * 1e3,
                "extend_p90_ms": percentile(latencies, 90) * 1e3,
                "extend_all_s": phase_seconds(rounds, "extend", seconds),
                "verify_s": phase_seconds(rounds, "verify", seconds),
            }

        metrics = {name: (value, name.rsplit("_", 1)[1])
                   for name, value in times(ledger.reference.scaled).items()}
        metrics["witness_mb"] = (sum(size for size, _ in digests.values()) / 1e6, "MB")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        raw = times(unscaled)
        raw["reference_ms"] = statistics.median(ledger.reference.samples) * 1e3
    return Result(metrics, ledger, len(rounds) + len(traced),
                  len(map_latencies(rounds)), digests, raw, tracer)
