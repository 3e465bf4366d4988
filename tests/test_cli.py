from __future__ import annotations

import contextlib
import functools
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import sigdim
from sigdim import Graph, embed, generate_random, parse_graph
from sigdim.cli import _dumps, _fuzz_instance, embedding_from_json, main
from sigdim.graphs import MAX_N
from conftest import C3, K2, K13, planted_stars


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text(K2)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_embed_k2(tmp_path, capsys, k2_file):
    out = tmp_path / "k2.json"
    code, stdout, _ = run(capsys, "embed", k2_file, "-o", out)
    assert code == 0
    assert "d=2" in stdout and "verdict=pass" in stdout
    data = json.loads(out.read_text())
    assert data["coords"] == [[-24, 0], [0, -24]]
    assert data["r"] == 24 and data["delta"] == 2


def test_embed_output_stable(tmp_path, capsys, k2_file):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "embed", k2_file, "-o", out1)
    run(capsys, "embed", k2_file, "-o", out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_embed_isolated_vertex(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 1\n")
    code, _, stderr = run(capsys, "embed", path)
    assert code == 1
    assert "isolated vertex 2" in stderr


@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_isolated_vertex_rejected_before_the_points(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 1\n")
    argv = [command, path] + ([tmp_path / "missing.json"] if command == "verify" else [])
    code, _, stderr = run(capsys, *argv)
    assert code == 1 and stderr == "error: isolated vertex 2\n"


@pytest.mark.parametrize("command", ["embed", "oracle", "verify"])
def test_header_above_the_cap_rejected_before_the_points(tmp_path, capsys, command):
    path = tmp_path / "big.txt"
    path.write_text(f"{MAX_N + 1} 1\n0 1\n")
    argv = [command, path] + ([tmp_path / "missing.json"] if command == "verify" else [])
    code, _, stderr = run(capsys, *argv)
    assert code == 1
    assert stderr == f"error: more than {MAX_N} vertices in header '{MAX_N + 1} 1' (line 1)\n"


@pytest.mark.parametrize("line,text", [(2, "2 1\n0 " + "1" * 9000 + "\n"),
                                       (1, "9" * 8998 + " 1\n0 1\n")],
                         ids=["9000-digit-endpoint", "9000-character-header"])
def test_long_graph_line_echoed_in_short(tmp_path, capsys, line, text):
    path = tmp_path / "long.txt"
    path.write_text(text)
    code, stdout, stderr = run(capsys, "embed", path)
    assert one_line_error(code, stdout, stderr) and len(stderr) <= 120
    assert stderr.endswith(f"... ({len(text.splitlines()[line - 1])} characters) (line {line})\n")


@pytest.mark.parametrize("command,checks", [("embed", 2), ("oracle", 1), ("verify", 1)])
def test_embeddability_checked_once_per_stage(tmp_path, capsys, k2_file, command, checks):
    # embed checks in `embed` and again, for library callers, in `star_triangle_factor`.
    points = tmp_path / "k2.json"
    run(capsys, "embed", k2_file, "-o", points)
    calls = 0
    check = Graph.require_embeddable

    def counted(self):
        nonlocal calls
        calls += 1
        return check(self)

    argv = [command, k2_file] + ([points] if command == "verify" else ["-o", tmp_path / "o.json"])
    with patch.object(Graph, "require_embeddable", counted):
        assert run(capsys, *argv)[0] == 0
    assert calls == checks


def test_embed_c3(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    path.write_text(C3)
    code, stdout, _ = run(capsys, "embed", path, "-o", tmp_path / "c3.json")
    assert code == 0
    assert "d=2" in stdout


def test_sig_reads_embedding_json(tmp_path, capsys, k2_file):
    out = tmp_path / "k2.json"
    run(capsys, "embed", k2_file, "-o", out)
    code, stdout, _ = run(capsys, "sig", out)
    assert code == 0
    assert stdout == "2 1\n0 1\n"


def test_sig_reads_bare_coords(tmp_path, capsys):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"coords": [[0], [1], [10]]}))
    code, stdout, _ = run(capsys, "sig", path)
    assert code == 0
    assert stdout == "3 2\n0 1\n1 2\n"


def test_verify_roundtrip(tmp_path, capsys, k2_file):
    out = tmp_path / "k2.json"
    run(capsys, "embed", k2_file, "-o", out)
    code, stdout, _ = run(capsys, "verify", k2_file, out)
    assert code == 0
    assert json.loads(stdout)["verdict"] == "pass"


def test_verify_perturbed(tmp_path, capsys, k2_file):
    out = tmp_path / "k2.json"
    run(capsys, "embed", k2_file, "-o", out)
    data = json.loads(out.read_text())
    data["coords"][0][1] += 1
    out.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", k2_file, out)
    assert code == 2
    report = json.loads(stdout)
    assert report["verdict"] == "fail"
    assert not report["sig_equal"] or not report["radius_agree"]
    assert report["diagnostics"]


def test_verify_text_report(tmp_path, capsys, k2_file):
    out = tmp_path / "k2.json"
    run(capsys, "embed", k2_file, "-o", out)
    data = json.loads(out.read_text())
    data["trace"]["rv"][0] += 1
    out.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", k2_file, out, "--format", "text")
    lines = stdout.splitlines()
    assert code == 2
    assert "verdict: fail" in lines and "radius_agree: NO" in lines
    assert any(line.startswith("radius_mismatches: ") for line in lines)


def test_verify_writes_report_file(tmp_path, capsys, k2_file):
    out, report = tmp_path / "k2.json", tmp_path / "report.json"
    run(capsys, "embed", k2_file, "-o", out)
    code, stdout, _ = run(capsys, "verify", k2_file, out, "-o", report)
    assert code == 0 and stdout == ""
    assert json.loads(report.read_text())["verdict"] == "pass"


def test_embed_pipeline_error_exits_3(tmp_path, capsys, monkeypatch, k2_file):
    import sigdim.cli
    from sigdim import PipelineError

    def fail(g, r):
        raise PipelineError("picker", "no rule applies", step=27)

    monkeypatch.setattr(sigdim.cli, "embed", fail)
    out = tmp_path / "k2.json"
    code, stdout, stderr = run(capsys, "embed", k2_file, "-o", out)
    assert code == 3 and stdout == "" and not out.exists()
    assert json.loads(stderr) == {"stage": "picker", "message": "[picker] no rule applies",
                                  "details": {"step": 27}}


def test_oracle(tmp_path, capsys):
    path = tmp_path / "k13.txt"
    path.write_text(K13)
    code, stdout, _ = run(capsys, "oracle", path, "-o", tmp_path / "o.json")
    assert code == 0
    assert "roundtrip=ok" in stdout
    data = json.loads((tmp_path / "o.json").read_text())
    assert data["d"] == 4
    assert data["coords"][0] == [2, 1, 1, 1]


def test_fuzz_deterministic_and_clean(tmp_path, capsys):
    args = ["fuzz", "--n-min", "2", "--n-max", "2", "--p", "1/2",
            "--seed", "1", "--count", "10",
            "--bundle-dir", tmp_path / "bundles", "-o", tmp_path / "s1.json"]
    code, _, _ = run(capsys, *args)
    assert code == 0
    args[-1] = tmp_path / "s2.json"
    run(capsys, *args)
    s1 = json.loads((tmp_path / "s1.json").read_text())
    s2 = json.loads((tmp_path / "s2.json").read_text())
    assert s1 == s2
    assert s1["passed"] == 10 and s1["failed"] == 0


def test_fuzz_bundles_reproduce(tmp_path, capsys):
    # Known construction-gap seed: the bundle must reproduce via embed.
    code, stdout, _ = run(
        capsys, "fuzz", "--n-min", "18", "--n-max", "18", "--p", "1/10",
        "--seed", "2960", "--count", "1",
        "--bundle-dir", tmp_path / "bundles", "-o", tmp_path / "s.json",
    )
    assert code == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["failed"] == 1
    bundle = json.loads(open(summary["failures"][0]["bundle"]).read())
    graph_file = tmp_path / "bad.txt"
    graph_file.write_text(bundle["graph"])
    code, _, stderr = run(capsys, "embed", graph_file, "-o", tmp_path / "bad.json")
    assert code == 2
    rerun = json.loads(stderr[stderr.index("{"):])
    assert rerun["inequality_failures"] == bundle["failure"]["report"]["inequality_failures"]


def test_exhaustive_n3(tmp_path, capsys):
    code, stdout, _ = run(capsys, "exhaustive", "--max-n", "3",
                          "-o", tmp_path / "e.json")
    assert code == 0
    data = json.loads((tmp_path / "e.json").read_text())
    assert data["all_pass"]
    totals = {row["n"]: row for row in data["per_n"]}
    assert totals[2]["graphs"] == 1 and totals[3]["graphs"] == 4
    assert totals[3]["oracle_pass"] == 4 and totals[3]["pipeline_pass"] == 4


def test_exhaustive_range(capsys):
    code, _, _ = run(capsys, "exhaustive", "--max-n", "9")
    assert code == 1


def test_fuzz_embeds_each_instance_once(tmp_path, capsys, monkeypatch):
    import sigdim.cli

    # Instances may run in worker processes, so each embed appends a line to a file.
    calls = tmp_path / "embeds.log"
    embed = sigdim.cli.embed

    def counted(g, r):
        with calls.open("a") as fh:
            fh.write(".\n")
        return embed(g, r)

    monkeypatch.setattr(sigdim.cli, "embed", counted)
    code, _, _ = run(capsys, "fuzz", "--n-min", "6", "--n-max", "12", "--p", "1/2",
                     "--seed", "3", "--count", "7", "-o", tmp_path / "s.json")
    summary = json.loads((tmp_path / "s.json").read_text())
    assert code == 0 and summary["passed"] == 7
    assert len(calls.read_text().splitlines()) == 7
    assert sum(summary["bound_slack_histogram"].values()) == 7


def instance_pids(monkeypatch, log: Path, cpus: int) -> None:
    """Let fuzz see ``cpus`` CPUs, and log the pid of every ``_run_instance`` call."""
    import sigdim.cli

    run_instance = sigdim.cli._run_instance

    def logged(g, r):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run_instance(g, r)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(sigdim.cli, "_run_instance", logged)


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_fuzz_output_does_not_depend_on_workers(tmp_path, capsys, monkeypatch):
    # Seeds from 2955 at n = 18, p = 1/10 include the failing, shrunk seed 2960.
    # Three CPUs split 12 jobs into shares of 4, and 7 jobs into shares of 3, 2 and 2.
    for count in (12, 7):
        trees = []
        for cpus in (1, 2, 3):
            cwd = tmp_path / f"count{count}-cpus{cpus}"
            (cwd / "out").mkdir(parents=True)
            monkeypatch.chdir(cwd)
            instance_pids(monkeypatch, cwd / "pids.log", cpus)
            assert run(capsys, "fuzz", "--n-min", "18", "--n-max", "18", "--p", "1/10",
                       "--seed", "2955", "--count", count, "--bundle-dir", "out/b",
                       "-o", "out/s.json")[0] == 0
            pids = set(map(int, (cwd / "pids.log").read_text().split()))
            if cpus == 1:
                assert pids == {os.getpid()}
            else:  # workers only, and no more of them than CPUs
                assert os.getpid() not in pids and len(pids) <= cpus
            trees.append({str(f.relative_to(cwd)): f.read_bytes()
                          for f in sorted((cwd / "out").rglob("*.json"))})
            assert no_children_left()
        assert trees[0] == trees[1] == trees[2]
        summary = json.loads(trees[1]["out/s.json"])
        assert [f["seed"] for f in summary["failures"]] == [2960]


def test_fuzz_runs_in_process_beside_another_thread(tmp_path, capsys, monkeypatch):
    # Forking while another thread may hold a lock is unsafe, so fuzz does not pool then.
    instance_pids(monkeypatch, tmp_path / "pids.log", 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        code, _, _ = run(capsys, "fuzz", "--n-min", "6", "--n-max", "9", "--p", "1/2",
                         "--seed", "1", "--count", "4", "-o", tmp_path / "s.json")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert code == 0 and not thread.is_alive()
    assert set(map(int, (tmp_path / "pids.log").read_text().split())) == {os.getpid()}


def test_fuzz_worker_error_reaches_the_caller(tmp_path):
    # In a fresh interpreter, with a timeout: a lost error would leave the caller waiting.
    script = f"""
import json, os
import sigdim.cli
from sigdim import PipelineError

def fail(g, r):
    raise PipelineError("picker", "no rule applies", step=27)

sigdim.cli._run_instance = fail
os.sched_getaffinity = lambda pid: {{0, 1}}
try:
    sigdim.cli.main(["fuzz", "--n-min", "6", "--n-max", "9", "--p", "1/2", "--seed", "1",
                     "--count", "4", "-o", {str(tmp_path / "s.json")!r}])
except PipelineError as exc:
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        left = []
    print(json.dumps([exc.to_json(), left]))
"""
    src = str(Path(sigdim.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert json.loads(done.stdout) == [{"stage": "picker",
                                        "message": "[picker] no rule applies",
                                        "details": {"step": 27}}, []]


def test_fuzz_worker_death_reaches_the_caller(tmp_path):
    # In a fresh interpreter, with a timeout: a lost worker must not hang the caller.
    script = f"""
import os, sigdim.cli

parent = os.getpid()

def die(g, r):
    if os.getpid() != parent:
        os._exit(7)

sigdim.cli._run_instance = die
os.sched_getaffinity = lambda pid: {{0, 1}}
try:
    sigdim.cli.main(["fuzz", "--n-min", "6", "--n-max", "9", "--p", "1/2", "--seed", "1",
                     "--count", "4", "-o", {str(tmp_path / "s.json")!r}])
except RuntimeError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no children")
"""
    src = str(Path(sigdim.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    died, children = done.stdout.splitlines()
    assert "exited with status 7" in died and children == "no children"
    assert not (tmp_path / "s.json").exists()


def test_fuzz_worker_error_raised_at_its_seed(tmp_path, capsys, monkeypatch):
    # Bundles are written in seed order up to the seed that raised, as if in one process.
    from sigdim import PipelineError

    def fake(job):
        seed = job[0]
        if seed == 13:
            raise PipelineError("picker", "no rule applies", step=27)
        return None, {"seed": seed}

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sigdim.cli, "_fuzz_instance", fake)
    with pytest.raises(PipelineError, match="no rule applies"):
        main(["fuzz", "--n-min", "6", "--n-max", "9", "--p", "1/2", "--seed", "10",
              "--count", "6", "--bundle-dir", str(tmp_path), "-o", str(tmp_path / "s.json")])
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        f"counterexample-seed{seed}.json" for seed in (10, 11, 12)]
    assert no_children_left()


def test_errors_survive_pickling():
    import pickle

    from sigdim import GraphInputError, PipelineError

    exc = pickle.loads(pickle.dumps(PipelineError("schedule", "bad", k=3)))
    assert (type(exc), exc.stage, exc.details, str(exc)) == (
        PipelineError, "schedule", {"k": 3}, "[schedule] bad")
    exc = pickle.loads(pickle.dumps(GraphInputError("header", "bad header", line=1)))
    assert (type(exc), exc.kind, exc.line, str(exc)) == (
        GraphInputError, "header", 1, "bad header (line 1)")


def test_shrink_rejects_passing_instance():
    from sigdim import PipelineError, parse_graph
    from sigdim.cli import _shrink

    with pytest.raises(PipelineError, match="does not fail"):
        _shrink(parse_graph(K2), None)


def one_line_error(code, stdout, stderr):
    # Malformed input: exit code 1, one "error:" line, no traceback.
    return code == 1 and stderr.startswith("error: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("command", [["embed", "GRAPH"], ["exhaustive", "--max-n", "3"],
                                     ["fuzz", "--n-min", "4", "--n-max", "4", "--p", "1/2",
                                      "--seed", "1", "--count", "1"]])
@pytest.mark.parametrize("radius", ["0", "-3", "abc", "1/0"])
def test_bad_radius_rejected(capsys, k2_file, command, radius):
    argv = [k2_file if a == "GRAPH" else a for a in command]
    assert one_line_error(*run(capsys, *argv, "--r", radius))


def test_negative_fuzz_count_rejected(capsys):
    assert one_line_error(*run(capsys, "fuzz", "--n-min", "4", "--n-max", "4", "--p", "1/2",
                               "--seed", "1", "--count", "-3"))


@pytest.mark.parametrize("prob", ["abc", "1/0", "-1/2", "3/2"])
def test_bad_edge_probability_rejected(capsys, prob):
    assert one_line_error(*run(capsys, "fuzz", "--n-min", "4", "--n-max", "4", f"--p={prob}",
                               "--seed", "1", "--count", "1"))


@pytest.mark.parametrize("argv", [["embed"], ["embed", "GRAPH", "--format", "xml"],
                                  ["embedd", "GRAPH"],
                                  ["fuzz", "--n-min", "5", "--n-max", "4", "--p", "1/2",
                                   "--seed", "1", "--count", "1"]],
                         ids=["missing-graph", "unknown-format", "unknown-command",
                              "reversed-n-range"])
def test_usage_error_exits_1(capsys, k2_file, argv):
    # Exit code 2 means a failed certificate; a bad command line is an input error,
    # reported like every other one: a single "error:" line, no usage text.
    assert one_line_error(*run(capsys, *(k2_file if a == "GRAPH" else a for a in argv)))


@pytest.mark.parametrize("command", [["embed", "GRAPH"], ["oracle", "GRAPH"],
                                     ["exhaustive", "--max-n", "3"]])
def test_unwritable_output_rejected(tmp_path, capsys, k2_file, command):
    argv = [k2_file if a == "GRAPH" else a for a in command]
    assert one_line_error(*run(capsys, *argv, "-o", tmp_path / "missing" / "out.json"))


@pytest.mark.parametrize("command", ["embed", "oracle", "verify"])
def test_non_utf8_graph_rejected(tmp_path, capsys, k2_file, command):
    graph = tmp_path / "latin1.txt"
    graph.write_bytes(b"2 1\n0 1 \xe9\n")
    argv = [command, graph] + ([k2_file] if command == "verify" else [])
    assert one_line_error(*run(capsys, *argv))


def test_help_exits_0(capsys):
    code, stdout, _ = run(capsys, "embed", "--help")
    assert code == 0 and "usage:" in stdout


@pytest.mark.parametrize("command", ["sig", "verify"])
def test_zero_denominator_rejected(tmp_path, capsys, k2_file, command):
    out = tmp_path / "k2.json"
    run(capsys, "embed", k2_file, "-o", out)
    data = json.loads(out.read_text())
    data["coords"][0][0] = "1/0"
    out.write_text(json.dumps(data))
    argv = ["sig", out] if command == "sig" else ["verify", k2_file, out]
    assert one_line_error(*run(capsys, *argv))


@pytest.mark.parametrize("command", ["sig", "verify"])
def test_deeply_nested_points_rejected(tmp_path, capsys, k2_file, command):
    # json.loads gives up on this nesting with RecursionError, not ValueError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["sig", path] if command == "sig" else ["verify", k2_file, path]
    assert one_line_error(*run(capsys, *argv))


@pytest.mark.parametrize("points,message", [
    ([[1, 2], [3, 4], [1, 2]], "duplicate points 0 and 2"),
    ({"coords": [[], []]}, "at least one coordinate"),
    ({"coords": [[1.5], [0]]}, "not a rational: 1.5"),
    ([[True], [0]], "not a rational: True"),
], ids=["coincident", "zero-width", "float", "bool"])
def test_sig_degenerate_points_rejected(tmp_path, capsys, points, message):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(points))
    code, stdout, stderr = run(capsys, "sig", path)
    assert one_line_error(code, stdout, stderr) and message in stderr


def _short(key):
    def mutate(data):
        data["trace"][key].pop()
    return mutate


def _set_dim(data):
    data["blocks"][-1]["dims"][-1] = data["d"]


def _wrong_d(data):
    data["d"] += 1


def _ragged(data):
    data["coords"][2].pop()


def _unknown_pick(data):
    data["trace"]["picks"][0]["vertices"][0] = 99


def _missing_row(data):
    data["coords"].pop()


def _empty_dims(data):
    data["blocks"][0]["dims"] = []


def _empty_pick(data):
    # Layout-consistent: an empty class I pick has an empty block and adds no width.
    k = len(data["blocks"])
    data["trace"]["picks"].append({"k": k, "class": "I", "step": 19, "vertices": [],
                                   "roles": {}})
    data["blocks"].append({"k": k, "class": "I", "dims": [], "step": 19})


def _float_pick(data):
    vertices = data["trace"]["picks"][0]["vertices"]
    vertices[0] = float(vertices[0])  # equal to the id, so the partition check alone passes it


def _block_class(data):
    data["blocks"][0]["class"] = "II"


def _shifted_dims(data):
    data["blocks"][-1]["dims"] = [j - 1 for j in data["blocks"][-1]["dims"]]


def _retype(*path, new=float):
    """Replace the entry at path with new(entry): an equal value of another JSON type."""
    def mutate(data):
        *keys, last = path
        node = functools.reduce(operator.getitem, keys, data)
        node[last] = new(node[last])
    return mutate


def _top(key, value):
    def mutate(data):
        data[key] = value
    return mutate


def _m_entries(value):
    def mutate(data):
        data["trace"]["m"] = [value] * len(data["trace"]["m"])
    return mutate


def _roles(roles):
    def mutate(data):
        data["trace"]["picks"][0]["roles"] = roles
    return mutate


def _extra_column(data):
    # A zero column on every row and d raised to match: only the block widths disagree.
    for row in data["coords"]:
        row.append(0)
    data["d"] += 1


def _renumbered_k(data):
    for entry in data["trace"]["picks"] + data["blocks"]:
        entry["k"] += 1


def _factor_field(key, value):
    def mutate(data):
        data["trace"]["factor"][key] = value(data["trace"]["factor"][key])
    return mutate


def _self_leaves(data):
    # The matched pair (c, w) listed as the one-leaf stars {c: [c]} and {w: [w]};
    # read on K2, whose factor is one matched pair.
    factor = data["trace"]["factor"]
    c, w = factor["matching"].pop()
    factor["stars"].update({str(c): [c], str(w): [w]})


_self_leaves.graph = K2


def _dropped_triangle_vertex(data):
    # On C3 the one pick is the triangle: without vertex 2 the picks no longer
    # partition the vertices, which is checked before the factor is read.
    data["trace"]["picks"][0]["vertices"].remove(2)


_dropped_triangle_vertex.graph = C3


def _rv_entry(value):
    """A claimed radius that is no nearest-neighbour distance: it must be positive."""
    def mutate(data):
        data["trace"]["rv"][1] = value
    mutate.message = "trace.rv[1] must be a positive radius"
    return mutate
_dropped_triangle_vertex.message = "must partition"


@pytest.mark.parametrize("mutate", [_short("rv"), _short("m"), _set_dim, _wrong_d,
                                    _ragged, _unknown_pick, _missing_row, _empty_dims,
                                    _empty_pick, _block_class, _shifted_dims,
                                    _factor_field("stars", lambda s: list(s.values())),
                                    _factor_field("stars", lambda s: 0),
                                    _factor_field("triangles", lambda t: {}),
                                    _factor_field("stars", lambda s: {
                                        u: [float(x) for x in leaves] for u, leaves in s.items()}),
                                    _float_pick,
                                    _top("r", -5), _top("delta", 0), _top("delta", 99),
                                    _top("delta", "1/2"), _m_entries("x"),
                                    _m_entries(True), _retype("d"),
                                    _retype("trace", "picks", 0, "k"),
                                    _retype("trace", "picks", 1, "step"),
                                    _retype("blocks", 0, "dims", 0),
                                    _retype("coords", 1, 1),
                                    _retype("coords", 1, 0, new=bool),
                                    _top("n", 99), _roles({"x": 0.5}), _roles({"x": True}),
                                    _roles({"x": 4}), _roles({"x": -1}), _roles([1]),
                                    _extra_column, _m_entries(3), _renumbered_k,
                                    _top("extra", None), _top("delta", "4/2"),
                                    _top("trace.m", None), _self_leaves,
                                    _dropped_triangle_vertex, _rv_entry(0), _rv_entry(-3),
                                    _rv_entry("-1/3")],
                         ids=["short-rv", "short-m", "dims-range", "wrong-d", "ragged",
                              "unknown-pick", "missing-row", "empty-dims", "empty-pick",
                              "block-class", "shifted-dims", "stars-list", "stars-int",
                              "triangles-object", "float-leaves", "float-pick", "negative-r",
                              "zero-delta", "wrong-delta", "half-delta", "string-m",
                              "bool-m", "float-d", "float-k", "float-step", "float-dims",
                              "float-coord", "bool-coord", "wrong-n", "float-role",
                              "bool-role", "role-range", "negative-role", "roles-list",
                              "extra-column", "tampered-m", "renumbered-k", "extra-key",
                              "unreduced-delta", "dotted-key", "self-leaves",
                              "dropped-triangle-vertex", "rv-zero", "rv-negative",
                              "rv-negative-fraction"])
def test_malformed_embedding_json_rejected(tmp_path, capsys, mutate):
    graph = tmp_path / "g.txt"
    graph.write_text(getattr(mutate, "graph", K13))
    out = tmp_path / "g.json"
    assert run(capsys, "embed", graph, "-o", out)[0] == 0
    data = json.loads(out.read_text())
    mutate(data)
    out.write_text(json.dumps(data))
    code, stdout, stderr = run(capsys, "verify", graph, out)
    assert one_line_error(code, stdout, stderr) and getattr(mutate, "message", "") in stderr


@pytest.mark.parametrize("r", [0, "-24", "0/5"], ids=["zero", "negative-string", "zero-string"])
def test_non_positive_r_rejected(tmp_path, capsys, r):
    # The loader takes m from the picks alone, so r is checked on its own.
    graph, out = tmp_path / "g.txt", tmp_path / "g.json"
    graph.write_text(K13)
    assert run(capsys, "embed", graph, "-o", out)[0] == 0
    data = json.loads(out.read_text())
    data["r"] = r
    out.write_text(json.dumps(data))
    code, stdout, stderr = run(capsys, "verify", graph, out)
    assert one_line_error(code, stdout, stderr) and "radius must be a positive" in stderr


LONG_INPUTS = [  # where the value goes, the value
    ("--r", "1/" + "9" * 5000), ("trace.rv", "1/" + "9" * 5000),
    ("--r", "1e5000"), ("--r", "1e-5000"), ("--r", "1e10000000"),
    ("--r", "-" + "9" * 4000), ("--r", "-" + "9" * 900),
    ("--p", "9" * 900), ("--count", "-" + "9" * 900),
    ("r", "1e5000"), ("r", "-" + "9" * 900), ("trace.rv", "1e-5000"),
    ("trace.rv", [0] * 3000), ("picks", [0.5] * 3000),
]


@pytest.mark.parametrize("where, value", LONG_INPUTS, ids=[
    "--r", "trace.rv", "--r-1e5000", "--r-1e-5000", "--r-1e10000000", "--r-4000-nines",
    "--r-900-nines", "--p-900-nines", "--count-900-nines", "r-1e5000", "r-900-nines",
    "trace.rv-1e-5000", "trace.rv-list", "picks-halves"])
def test_long_rational_echoed_in_short(tmp_path, capsys, k2_file, where, value):
    # 5,000 digits exceed what int() converts, and a huge exponent would take
    # seconds to build; the error line quotes only the start of what it echoes.
    fuzz = ["fuzz", "--n-min", "4", "--n-max", "4", "--seed", "1"]
    if where == "--r":
        code, stdout, stderr = run(capsys, "embed", k2_file, "--r", value)
    elif where == "--p":
        code, stdout, stderr = run(capsys, *fuzz, "--count", "1", "--p", value)
    elif where == "--count":
        code, stdout, stderr = run(capsys, *fuzz, "--p", "1/2", "--count", value)
    else:
        out = tmp_path / "g.json"
        assert run(capsys, "embed", k2_file, "-o", out)[0] == 0
        data = json.loads(out.read_text())
        if where == "r":
            data["r"] = value
        elif where == "trace.rv":
            data["trace"]["rv"][1] = value
        else:
            data["trace"]["picks"][0]["vertices"] = value
        out.write_text(json.dumps(data))
        code, stdout, stderr = run(capsys, "verify", k2_file, out)
    assert one_line_error(code, stdout, stderr) and len(stderr) < 120
    if value == "1/" + "9" * 5000:
        assert "invalid rational '1/999" in stderr and "(5002 characters)" in stderr


@pytest.mark.parametrize("r", [None, Fraction(7, 3)], ids=["default-r", "r-7/3"])
def test_embedding_json_round_trips(r):
    # The loader rebuilds exactly what embed built from the file embed writes.
    graphs = [generate_random(n, 0.5, n) for n in range(8, 61)]
    for g in graphs + [planted_stars(200, seed) for seed in range(3)]:
        emb = embed(g, r)
        assert embedding_from_json(g, json.loads(json.dumps(emb.to_json()))) == emb


@functools.cache
def embedded(text: str) -> str:
    """``sigdim embed`` output for a graph file's text."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, out = Path(tmp) / "g.txt", Path(tmp) / "g.json"
        graph.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["embed", str(graph), "-o", str(out)]) == 0
        return out.read_text()


# Graphs of 2 to 40 vertices: the kernel refutes tampered radii at every size.
MUTATED_GRAPHS = [K2, K13, C3, generate_random(9, 0.5, 4).serialize(),
                  generate_random(40, 0.5, 1).serialize()]


@pytest.mark.parametrize("text", [K13, MUTATED_GRAPHS[-1]], ids=["k13", "gnp40"])
def test_int_and_fraction_coordinates_load_alike(tmp_path, capsys, text):
    # All-int rows load onto the grid as they are; "p/q" strings take the exact path.
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    g = parse_graph(text)
    data = json.loads(embedded(text))
    written = json.loads(embedded(text))
    for row in written["coords"][::3]:
        row[0] = f"{3 * row[0]}/3"
    reports = []
    for variant in (data, written):
        path = tmp_path / "e.json"
        path.write_text(json.dumps(variant))
        reports.append(run(capsys, "verify", graph, path))
    assert embedding_from_json(g, written).points == embedding_from_json(g, data).points
    assert reports[0] == reports[1] and reports[0][0] == 0


@st.composite
def mutated_embedding(draw):
    """Embed JSON with one entry somewhere deleted, duplicated, shifted or replaced."""
    text = draw(st.sampled_from(MUTATED_GRAPHS))
    data = json.loads(embedded(text))
    rv = data["trace"]["rv"]
    if draw(st.booleans()):  # shift a scheduled radius: the claim that verify checks first
        node, key, op = rv, draw(st.integers(0, len(rv) - 1)), "shift"
    else:  # a walk down from the root or from a list the verifier reads closely
        node = draw(st.sampled_from([data, data["trace"], data["coords"],
                                     data["trace"]["picks"], data["trace"]["factor"]]))
        while True:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
                break
            node = child
        op = draw(st.sampled_from(["delete", "duplicate", "shift", "none", "bool", "float",
                                   "string", "list", "dict"]))
    old = node[key]
    plain = isinstance(old, int) and not isinstance(old, bool)
    if op == "delete":
        del node[key]
    elif op == "duplicate" and isinstance(node, list):
        node.insert(key, old)
    elif op == "shift" and plain:
        node[key] = old + draw(st.sampled_from([-2, -1, 1, 2, 10**30]))
    else:
        node[key] = {"none": None, "bool": draw(st.booleans()),
                     "float": float(old) if plain else 0.5,
                     "string": str(old), "list": [old], "dict": {"0": old}}.get(op, old)
    return text, data


@given(mutated_embedding())
@settings(max_examples=200, deadline=None)
def test_verify_survives_mutated_embedding(case):
    # A mutated file is rejected with one "error:" line or verified; never a traceback.
    text, data = case
    with tempfile.TemporaryDirectory() as tmp:
        graph, points = Path(tmp) / "g.txt", Path(tmp) / "g.json"
        graph.write_text(text)
        points.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(graph), str(points)])
    assert code in (0, 1, 2)
    if code == 1:
        assert one_line_error(code, out.getvalue(), err.getvalue())
    else:
        assert json.loads(out.getvalue())["verdict"] == ("pass" if code == 0 else "fail")


@st.composite
def mutated_graph(draw):
    """A graph file with its header or one edge line deleted, duplicated, shifted or retyped."""
    text = draw(st.sampled_from(MUTATED_GRAPHS))
    lines = text.splitlines()
    i = draw(st.one_of(st.just(0), st.integers(0, len(lines) - 1)))  # the header, or any line
    op = draw(st.sampled_from(["delete", "duplicate", "shift", "retype"]))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        fields = lines[i].split()
        j = draw(st.integers(0, len(fields) - 1))
        x = int(fields[j])
        fields[j] = (str(x + draw(st.sampled_from([-2, -1, 1, 2]))) if op == "shift"
                     else draw(st.sampled_from([f"{x}.0", f"{x}/1", f"+{x}", "x", "", "-"])))
        lines[i] = " ".join(fields)
    return text, "\n".join(lines) + "\n"


@given(mutated_graph())
@settings(max_examples=100, deadline=None)
def test_commands_survive_mutated_graph(case):
    # A mutated graph file is rejected with one "error:" line or gets a normal outcome.
    text, mutated = case
    with tempfile.TemporaryDirectory() as tmp:
        graph, points, out = Path(tmp) / "g.txt", Path(tmp) / "g.json", Path(tmp) / "out.json"
        graph.write_text(mutated)
        points.write_text(embedded(text))
        for argv in (["embed", graph, "-o", out], ["verify", graph, points],
                     ["oracle", graph, "-o", out]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([str(a) for a in argv])
            assert code in ((0, 1, 2, 3) if argv[0] == "embed" else (0, 1, 2))
            if code == 1:
                assert one_line_error(code, stdout.getvalue(), stderr.getvalue())


_json_text = st.text(st.sampled_from('[]{}",:\\\n a\u00e9\u2603\U0001f600')) | st.text()
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _json_text,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_json_text | st.integers() | st.booleans() | st.floats(),
                                     inner)),
    max_leaves=40)


@given(_json_value)
@settings(max_examples=300, deadline=None)
def test_writer_is_json_dumps_indent2(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": []}, [1, [2], "x"], ["[", "{", 3], [3, {"k": "v"}],
    (1, (2,), ()), {1: [2], "s\n\"\u00e9": "[{"}, ["a\u2603", ["b"]], "[", 5,
])
def test_writer_edge_cases(value):
    # Empty containers, a scalar-first list holding a container, brackets in strings.
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("r", [None, "7/3"], ids=["default-r", "r-7/3"])
def test_embed_file_is_json_dumps_indent2(tmp_path, capsys, r):
    # At r = 7/3 the coordinates are "p/q" strings, so every row is text.
    g = planted_stars(60, 3)
    graph, out = tmp_path / "g.txt", tmp_path / "g.json"
    graph.write_text(g.serialize())
    assert run(capsys, "embed", graph, "-o", out, *(["--r", r] if r else []))[0] == 0
    expected = embed(g, r and Fraction(r)).to_json()
    assert out.read_text() == json.dumps(expected, indent=2) + "\n"


def test_fuzz_bundle_is_json_dumps_indent2(tmp_path, capsys):
    bundles = tmp_path / "bundles"
    assert run(capsys, "fuzz", "--n-min", "18", "--n-max", "18", "--p", "1/10",
               "--seed", "2960", "--count", "1", "--bundle-dir", bundles)[0] == 0
    _, bundle = _fuzz_instance((2960, 18, Fraction(1, 10), None))
    written = (bundles / "counterexample-seed2960.json").read_text()
    assert written == json.dumps(bundle, indent=2) + "\n"


def test_pipeline_diagnostic_is_json_dumps_indent2(capsys, monkeypatch, k2_file):
    import sigdim.cli
    from sigdim import PipelineError

    exc = PipelineError("picker", "no rule \"applies\" [here]", step=27, pair=(3, 5),
                        stars={2: [0, 1], 4: []}, seen=frozenset({4, 1}))

    def fail(g, r):
        raise exc

    monkeypatch.setattr(sigdim.cli, "embed", fail)
    code, stdout, stderr = run(capsys, "embed", k2_file)
    assert code == 3 and stdout == ""
    assert stderr == json.dumps(exc.to_json(), indent=2) + "\n"
