"""Command-line behaviour: outputs, exit codes, and config plumbing."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

import eppa

from eppa.cli import main
from eppa.fileio import (
    dump_json,
    graph_from_json,
    graph_to_json,
    load_json,
    map_to_json,
    report_to_json,
    witness_from_json,
    witness_to_json,
)
from eppa import GraphFormatError, build_witness, cross_check, enumerate_partial_automorphisms

from conftest import (
    make_four_point, make_k2, make_t112, make_t113, make_t123, make_path2, recoded,
    stacked_witness_json,
)

SRC = os.path.dirname(os.path.dirname(eppa.__file__))


def write_graph(tmp_path, name, g):
    path = str(tmp_path / name)
    dump_json(path, graph_to_json(g))
    return path


def write_witness(tmp_path, name, w):
    path = str(tmp_path / name)
    dump_json(path, witness_to_json(w))
    return path


# -- check ---------------------------------------------------------------------


def test_check_reports_basics(tmp_path, capsys):
    rc = main(["check", write_graph(tmp_path, "g.json", make_k2())])
    out = capsys.readouterr().out
    assert rc == 0
    assert "vertices: 2" in out
    assert "edges: 1" in out
    assert "spectrum: ['1']" in out
    assert "metric: yes" in out
    assert "connected: yes" in out


def test_check_metric_flag_fails_with_triple(tmp_path, capsys):
    rc = main(["check", write_graph(tmp_path, "g.json", make_t113()), "--metric"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "metric: no" in out
    assert "violating triple: x y z" in out


def test_check_metric_flag_names_the_bumped_pair_on_70_points(tmp_path, capsys):
    names = [f"p{i:02d}" for i in range(70)]
    table = {(names[i], names[j]): 1 for i in range(70) for j in range(i + 1, 70)}
    table[("p30", "p61")] = 3  # 3 > 1 + 1 through any third point
    rc = main(["check", write_graph(tmp_path, "g.json", eppa.complete_graph(table)), "--metric"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "metric: no" in out
    triple = [line for line in out.splitlines() if line.startswith("violating triple: ")]
    assert len(triple) == 1
    assert {"p30", "p61"} <= set(triple[0].split()[2:])


def test_check_connected_flag(tmp_path, capsys):
    from eppa import graph_from_triples

    two = graph_from_triples(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 2)])
    rc = main(["check", write_graph(tmp_path, "g.json", two), "--connected"])
    assert rc == 1
    assert "connected: no" in capsys.readouterr().out


def test_check_cycle_listing(tmp_path, capsys):
    path = write_graph(tmp_path, "g.json", make_t113())
    rc = main(["check", path, "--cycles-up-to", "3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "non-metric cycle on ['y', 'x', 'z']" in out
    assert "induced non-metric cycles up to size 3: 1" in out

    rc = main(["check", write_graph(tmp_path, "h.json", make_t112()), "--cycles-up-to", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "induced non-metric cycles up to size 3: 0" in out


# -- complete and cycles ----------------------------------------------------------


def test_complete_writes_a_metric_space(tmp_path, capsys):
    src = write_graph(tmp_path, "p.json", make_path2())
    dst = str(tmp_path / "done.json")
    rc = main(["complete", src, "--output", dst])
    assert rc == 0
    assert f"wrote completion to {dst}" in capsys.readouterr().out
    done = graph_from_json(load_json(dst))
    assert done.label("x", "z") == 3
    assert done.is_complete()


def test_complete_to_stdout(tmp_path, capsys):
    rc = main(["complete", write_graph(tmp_path, "p.json", make_path2())])
    out = capsys.readouterr().out
    assert rc == 0
    obj = json.loads(out)
    assert ["x", "z", "3"] in obj["edges"]


def test_complete_rejects_disconnected(tmp_path, capsys):
    from eppa import graph_from_triples

    two = graph_from_triples(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 2)])
    rc = main(["complete", write_graph(tmp_path, "g.json", two)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_complete_refuses_the_empty_graph(tmp_path, capsys):
    path = str(tmp_path / "empty.json")
    dump_json(path, {"vertices": [], "edges": []})
    assert main(["complete", path]) == 3
    assert "need at least one vertex" in capsys.readouterr().err


def test_cycles_lists_and_counts(tmp_path, capsys):
    rc = main(["cycles", write_graph(tmp_path, "g.json", make_t113())])
    out = capsys.readouterr().out
    assert rc == 0
    assert "size 3: ['y', 'x', 'z'] long edge ['y', 'z'] deficit 1" in out
    assert "total induced non-metric cycles: 1" in out


# -- eppa-step ---------------------------------------------------------------------


def test_eppa_step_emits_graph_and_embedding(tmp_path, capsys):
    rc = main(["eppa-step", write_graph(tmp_path, "g.json", make_k2())])
    out = capsys.readouterr().out
    assert rc == 0
    assert "subset size k: 2" in out
    assert "token universe: 3" in out
    assert "derived vertices: 3" in out
    assert "derived edges: 3" in out
    payload = json.loads(out.splitlines()[-1])
    assert payload["k"] == 2
    assert len(payload["graph"]["vertices"]) == 3
    assert len(payload["embedding"]) == 2


def test_eppa_step_respects_vertex_cap(tmp_path, capsys):
    rc = main(
        ["eppa-step", write_graph(tmp_path, "g.json", make_t112()), "--vertex-cap", "10"]
    )
    assert rc == 2
    assert "needs 70" in capsys.readouterr().err


def test_eppa_step_rejects_non_metric(tmp_path, capsys):
    rc = main(["eppa-step", write_graph(tmp_path, "g.json", make_t113())])
    assert rc == 1
    assert "not a finite metric space" in capsys.readouterr().err


# -- witness, extend, verify, stats -------------------------------------------------


def test_witness_extend_verify_round_trip(tmp_path, capsys):
    src = write_graph(tmp_path, "g.json", make_k2())
    wpath = str(tmp_path / "w.json")
    rc = main(["witness", src, "--output", wpath])
    out = capsys.readouterr().out
    assert rc == 0
    assert '"final_vertices": 3' in out
    assert f"wrote witness to {wpath}" in out
    assert cross_check(witness_from_json(load_json(wpath))).ok

    mpath = str(tmp_path / "swap.json")
    dump_json(mpath, [["a", "b"], ["b", "a"]])
    rc = main(["extend", wpath, mpath])
    out = capsys.readouterr().out
    assert rc == 0
    theta = json.loads(out)
    assert len(theta) == 3  # total on the final space

    rc = main(["verify", wpath])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall: PASS" in out

    rc = main(["stats", wpath])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["final_vertices"] == 3


def test_extend_rejects_bad_maps(tmp_path, capsys):
    wpath = write_witness(tmp_path, "w.json", _k2_witness())
    unknown = str(tmp_path / "unknown.json")
    dump_json(unknown, [["q", "q"]])
    assert main(["extend", wpath, unknown]) == 1
    capsys.readouterr()

    collide = str(tmp_path / "collide.json")
    dump_json(collide, [["a", "a"], ["b", "a"]])
    assert main(["extend", wpath, collide]) == 1
    assert "error:" in capsys.readouterr().err


def _k2_witness():
    from eppa import build_witness

    return build_witness(make_k2())


def test_verify_budget_exhaustion_exit_code(tmp_path, capsys):
    # the (1,3,3) triangle's top-level short-cycle check counts row sweeps
    # against the budget; its replay proves the extension property, so no
    # extension search spends any
    from eppa import graph_from_triples

    t133 = graph_from_triples(["x", "y", "z"], [("x", "y", 1), ("x", "z", 3), ("y", "z", 3)])
    wpath = write_witness(tmp_path, "w.json", build_witness(t133))
    rc = main(["verify", wpath, "--budget", "2"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "search budget exhausted" in out


def test_verify_flags_tampering(t112_witness):
    # the first pair of B0, which shares no token, gets label 1; the labels
    # 1 and 2 both stay on some pair, and the final space is derived from
    # the set assignment, so it keeps that pair apart.  A witness file holds
    # the input alone, so the writer refuses the tampered witness, and the
    # verifier runs on it in memory
    base = t112_witness.levels[0]
    b0 = recoded(base.graph, 1)
    assert base.graph.codes[0, 1] == 0 and set(b0.codes.ravel().tolist()) == {0, 1, 2}
    w = dataclasses.replace(t112_witness, levels=(dataclasses.replace(base, graph=b0),))
    with pytest.raises(GraphFormatError, match="only the input's build can be written"):
        witness_to_json(w)
    result = cross_check(w)
    assert "overall: FAIL" in result.summary()
    report = report_to_json(result)
    assert report["ok"] is False
    tampered = list(base.graph.vertices[:2])
    for name in ("subset-edge-rule", "final-completion"):
        check = next(c for c in report["checks"] if c["name"] == name)
        assert not check["passed"], name
        assert check["counterexample"] == tampered, name


# inputs whose first tower level with bad sets is refused by closed form:
# (graph file, the refusal message)
UNBUILDABLE = {
    "triangle-144": (
        {"vertices": ["x", "y", "z"], "edges": [["x", "y", "1"], ["x", "z", "4"], ["y", "z", "4"]]},
        "level 4 (valuation expansion): needs at least 252 * 2^100 vertices, cap is 200000",
    ),
    "four-point-122223": (
        {"vertices": ["a", "b", "c", "d"],
         "edges": [["a", "b", "1"], ["a", "c", "2"], ["a", "d", "2"],
                   ["b", "c", "2"], ["b", "d", "2"], ["c", "d", "3"]]},
        "level 3 (valuation expansion): needs at least 125970 * 2^44352 vertices, cap is 200000",
    ),
}


def test_witness_refuses_an_unbuildable_tower_at_once(tmp_path, monkeypatch, capsys):
    # the refusal comes before B0 is built: 125,970 vertices for the four-point space
    def refuse(*args, **kwargs):
        raise AssertionError("B0 was built before the refusal")

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for case, (obj, message) in UNBUILDABLE.items():
        src = str(tmp_path / f"{case}.json")
        dump_json(src, obj)
        out = str(tmp_path / "w.json")

        with monkeypatch.context() as patch:
            patch.setattr(eppa.pipeline, "build_eppa_graph", refuse)
            t0 = time.perf_counter()
            assert main(["witness", src, "--output", out]) == 2, case
            assert time.perf_counter() - t0 < 1, case
        assert message in capsys.readouterr().err

        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "eppa.cli", "witness", src, "--output", out],
            capture_output=True, text=True, env=env, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert message in done.stderr
        # the bound leaves room for the interpreter's start-up (about 0.35 s on 2 vCPUs)
        assert elapsed < 5, f"{case} refused after {elapsed:.1f}s"
        assert not (tmp_path / "w.json").exists()


def _set(*path_and_value):
    """A mutation that sets obj[path...] = value in a witness JSON object."""
    *path, key, value = path_and_value

    def mutate(obj):
        for step in path:
            obj = obj[step]
        obj[key] = value
    return mutate


def _edit(*path_and_edit):
    """A mutation that applies `edit` to obj[path...] in a witness JSON object."""
    *path, edit = path_and_edit

    def mutate(obj):
        for step in path:
            obj = obj[step]
        edit(obj)
    return mutate


# (witness, mutation, the loader's message): t112 is the file of the
# (1,1,2) triangle, its input alone; stacked is that file with an extra
# "levels" list holding the demonstration witness's level 3 as the older
# formats wrote a level above B0 (`stacked_witness_json`).
MALFORMED_WITNESSES = {
    "one-point-input-with-levels": (
        "stacked", _set("input", {"vertices": ["z"], "edges": []}),
        "witness file must have the keys ['format', 'input'], got ['format', 'input', 'levels']"),
    "two-point-input-without-levels": (
        "t112", _edit(lambda obj: obj.update(input=graph_to_json(make_k2()), b0=None)),
        "witness file must have the keys ['format', 'input'], got ['b0', 'format', 'input']"),
    "stray-b0": ("t112", _set("b0", "1"),
                 "witness file must have the keys ['format', 'input'], "
                 "got ['b0', 'format', 'input']"),
    "input-missing": ("t112", _edit(lambda obj: obj.pop("input")),
                      "witness file must have the keys ['format', 'input'], got ['format']"),
    "levels-above-b0": ("stacked", _edit(lambda obj: None),
                        "witness file must have the keys ['format', 'input'], "
                        "got ['format', 'input', 'levels']"),
    "older-format": ("t112", _set("format", "eppa-witness/3"),
                     "unsupported witness format 'eppa-witness/3'"),
    "format-5": ("t112", _set("format", "eppa-witness/5"),
                 "unsupported witness format 'eppa-witness/5'"),
    "format-6": ("t112", _set("format", "eppa-witness/6"),
                 "unsupported witness format 'eppa-witness/6'"),
    "format-7": ("t112", _edit(lambda obj: obj.update(format="eppa-witness/7", b0="1")),
                 "unsupported witness format 'eppa-witness/7', expected 'eppa-witness/8' "
                 "(build the witness again)"),
    "input-not-metric": ("t112", _edit("input", "edges", lambda edges: edges[2].__setitem__(2, "3")),
                         "the input is not a metric space"),
    "input-without-vertices": ("t112", _set("input", {"vertices": [], "edges": []}),
                               "need at least one vertex"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WITNESSES))
def test_malformed_witness_is_a_format_error(case, t112_witness, demo_witness, tmp_path, capsys):
    which, mutate, message = MALFORMED_WITNESSES[case]
    obj = (witness_to_json(t112_witness) if which == "t112"
           else stacked_witness_json(t112_witness, demo_witness))
    mutate(obj)
    wpath = str(tmp_path / "w.json")
    dump_json(wpath, obj)
    mpath = str(tmp_path / "map.json")
    dump_json(mpath, [["y", "z"], ["z", "y"]])
    for argv in (["verify", wpath], ["extend", wpath, mpath], ["stats", wpath]):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)
        assert message in err, (argv, err)


SWAP_YZ = [["y", "z"], ["z", "y"]]


def test_extend_on_the_stacked_file_does_not_depend_on_the_hash_seed(
        t112_witness, demo_witness, tmp_path):
    # a witness file stores B0 alone, so every command refuses the file of
    # a level above B0 with exit code 3 and one message, under either string
    # hash seed
    wpath = str(tmp_path / "w.json")
    dump_json(wpath, stacked_witness_json(t112_witness, demo_witness))
    mpath = str(tmp_path / "map.json")
    dump_json(mpath, SWAP_YZ)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "eppa.cli", *argv],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
        for argv in (["verify", wpath], ["extend", wpath, mpath], ["stats", wpath])
    ]
    assert runs[0].returncode == 3 and runs[0].stderr.startswith("error: "), runs[0].stderr
    assert "got ['format', 'input', 'levels']" in runs[0].stderr
    assert [(r.returncode, r.stderr) for r in runs[1:]] == [(3, runs[0].stderr)] * 5


# Prints the error of replaying the swap of y and z on the stacked witness
# (`stacked_witness`), built in memory as the tests build it.
_EXTEND_STACKED = r"""
import importlib.util, sys
from eppa import EppaError, PartialMap, build_witness, extend_isometry
sys.path.insert(0, sys.argv[1])
import conftest
spec = importlib.util.spec_from_file_location("mutation_probe", sys.argv[2])
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
w = conftest.stacked_witness(build_witness(conftest.make_t112()), probe.demo_witness())
try:
    extend_isometry(w, PartialMap({"y": "z", "z": "y"}))
except EppaError as exc:
    print(type(exc).__name__, exc)
"""


def test_extend_on_the_stacked_witness_does_not_depend_on_the_hash_seed():
    # the stacked level's bad sets name vertices outside B0, and the error
    # names the first of them that the replay meets; string hashing differs
    # between these two seeds, so walking a bad set in set order would name
    # 'p' under one and 'r' under the other
    tests = os.path.dirname(os.path.abspath(__file__))
    probe = os.path.join(os.path.dirname(tests), "scripts", "mutation_probe.py")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _EXTEND_STACKED, tests, probe],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
    ]
    assert runs[0].returncode == 0 and runs[0].stdout.startswith("UnknownVertex "), runs[0]
    assert [(r.returncode, r.stdout) for r in runs[1:]] == [(0, runs[0].stdout)]


# Runs verify, extend and stats in-process on each (witness, map) pair of
# file names given, and prints every exit code, stdout and stderr as JSON.
_COMMANDS_ON_FILES = r"""
import contextlib, io, json, sys
from eppa.cli import main

runs = []
for w, m in zip(sys.argv[1::2], sys.argv[2::2]):
    for argv in (["verify", w], ["extend", w, m], ["stats", w]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def test_no_command_on_a_faulty_file_depends_on_the_hash_seed(t112_witness, demo_witness,
                                                              tmp_path):
    # every malformed file, the stacked one among them, under two string
    # hash seeds: the same exit codes, stdout and stderr
    stacked = stacked_witness_json(t112_witness, demo_witness)
    files = {}
    for case, (which, mutate, _) in MALFORMED_WITNESSES.items():
        obj = json.loads(json.dumps(witness_to_json(t112_witness) if which == "t112" else stacked))
        mutate(obj)
        files[f"malformed-{case}"] = obj, SWAP_YZ
    names = []
    for name, (obj, phi) in sorted(files.items()):
        dump_json(str(tmp_path / f"{name}.json"), obj)
        dump_json(str(tmp_path / f"{name}-map.json"), phi)
        names += [f"{name}.json", f"{name}-map.json"]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", _COMMANDS_ON_FILES, *names], cwd=tmp_path,
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert len(runs[0]) == 3 * len(files)
    for first, second in zip(*runs):
        assert first[1] == 3, first
        assert second == first, first[0]


def test_extend_does_not_depend_on_the_hash_seed(tmp_path):
    # the set assignment lays its tokens out in token order, with no set of
    # strings; under two string hash seeds every map of the four-point
    # witness extends to the same bytes
    wpath = write_witness(tmp_path, "w.json", build_witness(make_four_point()))
    maps = {"empty": [], "swap": [["p", "r"], ["r", "p"]],
            "three": [["p", "q"], ["q", "r"], ["r", "s"]]}
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for name, phi in maps.items():
        mpath = str(tmp_path / f"{name}.json")
        dump_json(mpath, phi)
        for seed in ("0", "1"):
            out = tmp_path / f"{name}-{seed}.json"
            done = subprocess.run(
                [sys.executable, "-m", "eppa.cli", "extend", wpath, mpath, "--output", str(out)],
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            )
            assert done.returncode == 0, done.stderr
            outputs[name, seed] = out.read_bytes()
    for name in maps:
        assert outputs[name, "0"] == outputs[name, "1"], name
    assert len({outputs[name, "0"] for name in maps}) == 3


# Runs every command in-process on each named fixture of ../inputs, from the
# current directory, and prints the exit codes and one sha256 over every
# command's exit code, stdout and stderr and every file written.
_EVERY_COMMAND = r"""
import contextlib, hashlib, io, json, pathlib, sys
from eppa.cli import main

digest, codes = hashlib.sha256(), []
for name in sys.argv[1:]:
    g, m, w = f"../inputs/{name}.json", f"../inputs/{name}-map.json", f"{name}-w.json"
    for argv in (["check", g, "--metric", "--cycles-up-to", "4"],
                 ["complete", g, "--output", f"{name}-complete.json"], ["cycles", g],
                 ["eppa-step", g, "--output", f"{name}-step.json"],
                 ["witness", g, "--output", w], ["stats", w],
                 ["extend", w, m, "--output", f"{name}-extension.json"],
                 ["verify", w, "--output", f"{name}-report.json"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(main(argv))
        digest.update(json.dumps([argv, codes[-1], out.getvalue(), err.getvalue()]).encode())
for path in sorted(pathlib.Path(".").iterdir()):
    digest.update(json.dumps(path.name).encode() + path.read_bytes())
print(json.dumps({"codes": codes, "digest": digest.hexdigest()}))
"""


def test_no_command_depends_on_the_hash_seed(tmp_path):
    # every command on the four fixtures, under two string hash seeds, with
    # the extension of a two-point map: the same exit codes, outputs and files
    fixtures = {"two-point": make_k2(), "triangle-112": make_t112(),
                "triangle-123": make_t123(), "four-point": make_four_point()}
    (tmp_path / "inputs").mkdir()
    for name, g in fixtures.items():
        write_graph(tmp_path / "inputs", f"{name}.json", g)
        swap = list(enumerate_partial_automorphisms(g, 2))[-1]
        dump_json(str(tmp_path / "inputs" / f"{name}-map.json"), map_to_json(swap))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "1"):
        (tmp_path / seed).mkdir()
        done = subprocess.run(
            [sys.executable, "-c", _EVERY_COMMAND, *fixtures], cwd=tmp_path / seed,
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert runs[0]["codes"] == [0] * 8 * len(fixtures)
    assert runs[1] == runs[0]


def test_a_file_cannot_make_a_johnson_table_larger_than_its_b0(tmp_path, monkeypatch, capsys):
    # metric spaces of 80 and 120 points with a distinct label on every
    # pair: B0 would have C(8404100, 167481) vertices for 80 points, about
    # 2^1185294.  The build, eppa-step and the loader, which is the build,
    # each refuse it off the input's codes, before any token is laid out or
    # any Johnson table built, and write a lower bound within a few bits of
    # the count as a power of two
    built = []
    real = eppa.setrep.JohnsonTable.__init__
    monkeypatch.setattr(eppa.setrep.JohnsonTable, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))

    def refuse(*args):
        raise AssertionError("tokens were laid out before the refusal")

    for module in (eppa.pipeline, eppa.cli):
        monkeypatch.setattr(module, "build_set_assignment", refuse)
    wpath = str(tmp_path / "w.json")
    for n, bits in ((80, 1185293), (120, 4360213)):
        points = [f"p{i:03d}" for i in range(n)]
        pairs = [(x, y) for i, x in enumerate(points) for y in points[i + 1:]]
        # labels from P to 2P - 1 for P pairs: any two sum past any third
        graph = {"vertices": points,
                 "edges": [[x, y, str(len(pairs) + i)] for i, (x, y) in enumerate(pairs)]}
        gpath = str(tmp_path / f"g{n}.json")
        dump_json(gpath, graph)
        dump_json(wpath, {"format": "eppa-witness/8", "input": graph})
        message = f"level 2 (set representation): needs at least 2^{bits} vertices, cap is 200000"
        for argv in (["witness", gpath], ["eppa-step", gpath], ["stats", wpath]):
            t0 = time.perf_counter()
            assert main(argv) == 2, argv
            assert time.perf_counter() - t0 < 1, argv
            assert message in capsys.readouterr().err
    assert built == []


# -- usage errors and config --------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 3
    capsys.readouterr()


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 3
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("data,message", [(b"\xff\xfe{}", "not UTF-8 text"),
                                          (b"[" * 200_000, "too deeply")],
                         ids=["utf16", "deep"])
def test_unreadable_json_is_usage_error(tmp_path, capsys, monkeypatch, data, message):
    path = tmp_path / "odd.json"
    path.write_bytes(data)
    graph = write_graph(tmp_path, "g.json", make_t112())
    for argv in (["check", str(path)], ["verify", str(path)]):
        assert main(argv) == 3
        assert message in capsys.readouterr().err
    monkeypatch.setenv("EPPA_CONFIG", str(path))
    assert main(["check", graph]) == 3
    assert message in capsys.readouterr().err


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    graph = write_graph(tmp_path, "g.json", make_t112())
    out = str(tmp_path / "absent" / "out.json")
    assert main(["complete", graph, "--output", out]) == 3
    assert "cannot write" in capsys.readouterr().err


def test_bad_label_is_usage_error(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    dump_json(path, {"vertices": ["a", "b"], "edges": [["a", "b", "6/4"]]})
    assert main(["check", path]) == 3
    assert "lowest terms" in capsys.readouterr().err


def test_a_label_past_the_digit_limit_is_usage_error(tmp_path, capsys, t112_witness):
    # a numerator or denominator of more digits than the interpreter reads
    # into an integer, in a graph file and in a witness file's input, each
    # refused as the label it is
    huge = "1" + "0" * 5000
    too_long = "label '10000000000000000000...' (5001 characters) is too long to read"
    path = str(tmp_path / "huge.json")
    dump_json(path, {"vertices": ["a", "b"], "edges": [["a", "b", huge]]})
    assert main(["check", path]) == 3
    assert f"error: edge #0 ['a', 'b']: {too_long}" in capsys.readouterr().err

    dump_json(path, {"vertices": ["a", "b"], "edges": [["a", "b", f"1/{huge}"]]})
    assert main(["check", path]) == 3
    assert "label '1/100000000000000000...' (5003 characters) is too long to read" in (
        capsys.readouterr().err)

    obj = witness_to_json(t112_witness)
    _set("input", "edges", 0, 2, huge)(obj)
    dump_json(path, obj)
    assert main(["stats", path]) == 3
    assert f"error: edge #0 ['x', 'y']: {too_long}" in capsys.readouterr().err


def test_env_config_sets_defaults(tmp_path, capsys, monkeypatch):
    cfg = str(tmp_path / "cfg.json")
    dump_json(cfg, {"vertex_cap": 10})
    monkeypatch.setenv("EPPA_CONFIG", cfg)
    rc = main(["witness", write_graph(tmp_path, "g.json", make_t112())])
    assert rc == 2
    assert "needs 70" in capsys.readouterr().err


def test_env_config_must_be_an_object(tmp_path, capsys, monkeypatch):
    cfg = str(tmp_path / "cfg.json")
    dump_json(cfg, [1, 2, 3])
    monkeypatch.setenv("EPPA_CONFIG", cfg)
    assert main(["stats", cfg]) == 3
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings,key",
    [
        ({"vertex_cap": [1]}, "vertex_cap"),
        ({"vertex_cap": True}, "vertex_cap"),
        ({"search_budget": "5"}, "search_budget"),
        ({"search_budget": 2.5}, "search_budget"),
        ({"coherent": "no"}, "coherent"),
        ({"coherent": 0}, "coherent"),
        ({"vertex_cap": 10, "colour": "red"}, "colour"),
    ],
    ids=["list-cap", "bool-cap", "string-budget", "float-budget", "string-coherent",
         "int-coherent", "unknown-key"],
)
def test_env_config_values_are_type_checked(tmp_path, capsys, monkeypatch, settings, key):
    cfg = str(tmp_path / "cfg.json")
    dump_json(cfg, settings)
    monkeypatch.setenv("EPPA_CONFIG", cfg)
    assert main(["witness", write_graph(tmp_path, "g.json", make_k2())]) == 3
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,option,config",
    [
        ("witness", ["--vertex-cap", "-5"], None),
        ("witness", ["--vertex-cap", "0"], None),
        ("verify", ["--budget", "-1"], None),
        ("verify", ["--budget", "0"], None),
        ("verify", ["--search-limit", "-1"], None),
        ("cycles", ["--max-size", "-1"], None),
        ("check", ["--cycles-up-to", "-1"], None),
        ("witness", [], {"vertex_cap": 0}),
        ("verify", [], {"search_budget": -1}),
    ],
    ids=["negative-cap", "zero-cap", "negative-budget", "zero-budget", "negative-search-limit",
         "negative-max-size", "negative-cycles-up-to", "zero-config-cap", "negative-config-budget"],
)
def test_numeric_options_out_of_range_are_usage_errors(tmp_path, capsys, monkeypatch,
                                                        command, option, config):
    operand = {"witness": write_graph(tmp_path, "g.json", make_k2()),
               "verify": write_witness(tmp_path, "w.json", eppa.build_witness(make_k2()))}
    operand["check"] = operand["cycles"] = operand["witness"]
    if config is not None:
        cfg = str(tmp_path / "cfg.json")
        dump_json(cfg, config)
        monkeypatch.setenv("EPPA_CONFIG", cfg)
    assert main([command, operand[command], *option]) == 3
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag",
    [
        ("check", ["--vertex-cap", "10"]),
        ("check", ["--output", "out.json"]),
        ("cycles", ["--budget", "5"]),
        ("complete", ["--no-coherent"]),
        ("eppa-step", ["--budget", "5"]),
        ("witness", ["--budget", "5"]),
        ("extend", ["--no-coherent"]),
        ("extend", ["--vertex-cap", "10"]),
        ("verify", ["--no-coherent"]),
        ("stats", ["--budget", "5"]),
        ("witness", ["--no-coherent"]),
    ],
)
def test_commands_refuse_options_they_do_not_read(tmp_path, capsys, command, flag):
    paths = {"file": write_graph(tmp_path, "g.json", make_k2()),
             "witness": write_witness(tmp_path, "w.json", eppa.build_witness(make_k2())),
             "map": str(tmp_path / "m.json")}
    dump_json(paths["map"], [])
    operands = {"check": ["file"], "cycles": ["file"], "complete": ["file"],
                "eppa-step": ["file"], "witness": ["file"], "extend": ["witness", "map"],
                "verify": ["witness"], "stats": ["witness"]}[command]
    assert main([command, *map(paths.__getitem__, operands), *flag]) == 3
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_flag_overrides_env_default(tmp_path, capsys, monkeypatch):
    cfg = str(tmp_path / "cfg.json")
    dump_json(cfg, {"vertex_cap": 10})
    monkeypatch.setenv("EPPA_CONFIG", cfg)
    rc = main(
        ["eppa-step", write_graph(tmp_path, "g.json", make_t112()),
         "--vertex-cap", "100"]
    )
    assert rc == 0
    capsys.readouterr()
