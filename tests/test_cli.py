from __future__ import annotations

import json

import pytest

from sigdim.cli import main
from conftest import C3, K2, K13


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

    calls = []
    embed = sigdim.cli.embed
    monkeypatch.setattr(sigdim.cli, "embed", lambda g, r: calls.append(g) or embed(g, r))
    code, _, _ = run(capsys, "fuzz", "--n-min", "6", "--n-max", "12", "--p", "1/2",
                     "--seed", "3", "--count", "7", "-o", tmp_path / "s.json")
    summary = json.loads((tmp_path / "s.json").read_text())
    assert code == 0 and summary["passed"] == 7
    assert len(calls) == 7
    assert sum(summary["bound_slack_histogram"].values()) == 7


def test_shrink_rejects_passing_instance():
    from sigdim import PipelineError, parse_graph
    from sigdim.cli import _shrink

    with pytest.raises(PipelineError, match="does not fail"):
        _shrink(parse_graph(K2), None)


def test_pipeline_error_json_encodes_fractions():
    from fractions import Fraction

    from sigdim import PipelineError

    exc = PipelineError("schedule", "bad radius", r=Fraction(7, 3), rv=[Fraction(4)])
    assert exc.to_json()["details"] == {"r": "7/3", "rv": [4]}


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
                                  ["embedd", "GRAPH"]],
                         ids=["missing-graph", "unknown-format", "unknown-command"])
def test_usage_error_exits_1(capsys, k2_file, argv):
    # Exit code 2 means a failed certificate; a bad command line is an input error,
    # reported like every other one: a single "error:" line, no usage text.
    assert one_line_error(*run(capsys, *(k2_file if a == "GRAPH" else a for a in argv)))


@pytest.mark.parametrize("command", [["embed", "GRAPH"], ["oracle", "GRAPH"],
                                     ["exhaustive", "--max-n", "3"]])
def test_unwritable_output_rejected(tmp_path, capsys, k2_file, command):
    argv = [k2_file if a == "GRAPH" else a for a in command]
    assert one_line_error(*run(capsys, *argv, "-o", tmp_path / "missing" / "out.json"))


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


@pytest.mark.parametrize("points,message", [
    ([[1, 2], [3, 4], [1, 2]], "duplicate points 0 and 2"),
    ({"coords": [[], []]}, "at least one coordinate"),
], ids=["coincident", "zero-width"])
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


def _block_class(data):
    data["blocks"][0]["class"] = "II"


def _shifted_dims(data):
    data["blocks"][-1]["dims"] = [j - 1 for j in data["blocks"][-1]["dims"]]


def _top(key, value):
    def mutate(data):
        data[key] = value
    return mutate


def _m_entries(value):
    def mutate(data):
        data["trace"]["m"] = [value] * len(data["trace"]["m"])
    return mutate


def _factor_field(key, value):
    def mutate(data):
        data["trace"]["factor"][key] = value(data["trace"]["factor"][key])
    return mutate


@pytest.mark.parametrize("mutate", [_short("rv"), _short("m"), _set_dim, _wrong_d,
                                    _ragged, _unknown_pick, _missing_row, _empty_dims,
                                    _empty_pick, _block_class, _shifted_dims,
                                    _factor_field("stars", lambda s: list(s.values())),
                                    _factor_field("stars", lambda s: 0),
                                    _factor_field("triangles", lambda t: {}),
                                    _top("r", -5), _top("delta", 0), _m_entries("x"),
                                    _m_entries(True)],
                         ids=["short-rv", "short-m", "dims-range", "wrong-d", "ragged",
                              "unknown-pick", "missing-row", "empty-dims", "empty-pick",
                              "block-class", "shifted-dims", "stars-list", "stars-int",
                              "triangles-object", "negative-r", "zero-delta", "string-m",
                              "bool-m"])
def test_malformed_embedding_json_rejected(tmp_path, capsys, mutate):
    graph = tmp_path / "k13.txt"
    graph.write_text(K13)
    out = tmp_path / "k13.json"
    assert run(capsys, "embed", graph, "-o", out)[0] == 0
    data = json.loads(out.read_text())
    mutate(data)
    out.write_text(json.dumps(data))
    assert one_line_error(*run(capsys, "verify", graph, out))
