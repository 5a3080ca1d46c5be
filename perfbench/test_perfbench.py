"""Tests of the benchmark itself: failure accounting, self times and the
reference loop's scaling.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import eppa  # noqa: E402
import eppa.fileio  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
import workload  # noqa: E402


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, like the benchmark's own."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as path:
        yield path


def small_round(workdir):
    """One untraced round over the two-point space and triangle-112, with
    cross_check on the two-point one only."""
    cases = [c for c in workload.make_cases("replay-verify", 7)
             if c.space.name in ("two-point", "triangle-112")]
    for c in cases:
        c.space = dataclasses.replace(c.space, verify=c.space.name == "two-point")
    ledger = workload.Ledger()
    workload.run_round(cases, ledger, random.Random(0), workdir, build=True)
    return ledger


def kinds(ledger):
    return {f.split(":")[0] for f in ledger.failures}


def test_clean_round_has_no_failures(workdir):
    ledger = small_round(workdir)
    assert ledger.failures == []
    assert ledger.attempted > 30


def test_tampered_extension_is_a_failed_op(workdir, monkeypatch):
    honest = eppa.extend_isometry

    def swapped(w, phi):
        table = dict(honest(w, phi).items())
        u, v = sorted(table)[:2]
        table[u], table[v] = table[v], table[u]
        return eppa.PartialMap(table)

    monkeypatch.setattr(eppa, "extend_isometry", swapped)
    ledger = small_round(workdir)
    assert ledger.failed > 0
    assert kinds(ledger) <= {"extend", "compose"}
    assert "extend" in kinds(ledger)


def test_tampered_round_trip_is_a_failed_op(workdir, monkeypatch):
    honest = eppa.fileio.witness_from_json

    def off_by_one(obj):
        w = honest(obj)
        return dataclasses.replace(w, n=w.n + 1)

    monkeypatch.setattr(eppa.fileio, "witness_from_json", off_by_one)
    ledger = small_round(workdir)
    assert "roundtrip" in kinds(ledger)
    assert sum(f.startswith("roundtrip") for f in ledger.failures) == 2


def test_other_exceptions_are_failed_ops(workdir, monkeypatch):
    def broken(a, config=None):
        raise RuntimeError("not an EppaError")

    monkeypatch.setattr(eppa, "build_witness", broken)
    ledger = small_round(workdir)
    assert ledger.failed == ledger.attempted
    assert any("RuntimeError" in f for f in ledger.failures)


def test_self_times_sum_to_root_duration():
    spans = [
        tracing.Span("root", 0.0, 10.0, None),
        tracing.Span("a", 1.0, 4.0, 0),
        tracing.Span("b", 5.0, 9.0, 0),
        tracing.Span("a", 2.0, 3.5, 1),
        tracing.Span("c", 6.0, 6.5, 2),
    ]
    times = tracing.self_times(spans)
    assert sum(t for t, _ in times.values()) == pytest.approx(10.0)
    assert times["root"] == (pytest.approx(3.0), 1)
    assert times["a"] == (pytest.approx(3.0), 2)


def test_wrappers_trace_the_programs_own_calls():
    g = eppa.graph_from_triples(["a", "b", "c"], [("a", "b", 1), ("a", "c", 1), ("b", "c", 2)])
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        tracer.active = True
        eppa.build_witness(g)
        tracer.active = False
    finally:
        restore()
    names = [s.name for s in tracer.spans]
    assert names[0] == "pipeline.build_witness"
    assert "levels.build_next_level" in names
    assert "completion.find_induced_nonmetric_cycles" in names
    top = [s for s in tracer.spans if s.parent is None]
    assert len(top) == 1
    times = tracing.self_times(tracer.spans)
    assert sum(t for t, _ in times.values()) == pytest.approx(top[0].end - top[0].start)
    assert eppa.pipeline.build_next_level is eppa.levels.build_next_level
    assert not hasattr(eppa.pipeline.build_next_level, "__wrapped__")


def test_reference_scales_by_the_loop_speed_during_an_op():
    ref = workload.Reference()
    # ten loop runs, ending at 1.0 ... 1.9, each twice REFERENCE_S: half speed
    ref.ends = [1.0 + i / 10 for i in range(10)]
    ref.samples = [2 * workload.REFERENCE_S] * 10
    sample = ref.sample(0.95, 2.0)
    assert sample[2] == pytest.approx(1.05 - 20 * workload.REFERENCE_S)
    assert ref.scaled(sample) == pytest.approx(sample[2] / 2)


def test_reference_uses_the_nearest_runs_around_a_short_op():
    ref = workload.Reference()
    ref.ends = [float(i) for i in range(20)]
    ref.samples = [workload.REFERENCE_S] * 10 + [4 * workload.REFERENCE_S] * 10
    sample = ref.sample(15.2, 15.3)
    assert sample[2] == pytest.approx(0.1)
    assert ref.scaled(sample) == pytest.approx(0.1 / 4)


def test_reference_timer_runs_inside_an_op_and_is_left_out_of_its_time():
    ref = workload.Reference()
    with ref:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(ref.samples) >= 5
    sample = ref.sample(start, end)
    assert sample[2] == pytest.approx(end - start - sum(ref.samples))
    assert ref.scaled(sample) > 0
