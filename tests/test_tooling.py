from __future__ import annotations

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import sigdim
import sigdim.cli
from sigdim import embed, generate_random, parse_graph


def test_no_assert_in_package():
    # Invariants must raise: `python -O` strips assert statements.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(sigdim.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_stdlib():
    # The runtime is stdlib-only; numpy and friends being installed must not hide a slip.
    found = []
    for path in sorted(Path(sigdim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_no_private_imports_across_modules():
    # A module's underscore names are its own: what another module needs gets a public owner.
    found = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for path in sorted(Path(sigdim.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names if alias.name.startswith("_")
    ]
    assert found == []


def load_tracing():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_patch_targets_exist(tmp_path):
    # The benchmark's tracer patches sigdim names at run time; a renamed or
    # removed name must fail here, not in a traced benchmark run.
    tracing = load_tracing()
    graph, out = tmp_path / "k13.txt", tmp_path / "k13.json"
    graph.write_text("4 3\n0 1\n0 2\n0 3\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [sigdim.cli.main(["embed", str(graph), "-o", str(out)]),
                 sigdim.cli.main(["verify", str(graph), str(out)])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert sigdim.cli.json is json and "traced" not in repr(sigdim.cli.embed)
    # The recorded calls feed the per-layer counts, which read the embedding.
    sizes = tracing._observed_sizes(tracer.observed)
    assert sizes["sum"]["verify.ineq_evals.f2"] > 0


def test_traced_failing_verify_records_the_sig_sweep(tmp_path):
    # A failing verify sweeps the SIG through the names the tracer patches in
    # sigdim.verify; called by any other name, the traced sig metrics read 0.
    graph, out = tmp_path / "g.txt", tmp_path / "g.json"
    g = generate_random(40, 0.5, 1)
    graph.write_text(g.serialize())
    data = embed(g).to_json()
    data["trace"]["rv"][17] += 2
    out.write_text(json.dumps(data))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = sigdim.cli.main(["verify", str(graph), str(out)])
    finally:
        tracer.uninstall()
    assert code == 2
    assert "sig.compute_sig" in [span[0] for span in tracer.spans]


def test_cli_import_defers_process_pools():
    # Only `fuzz` forks workers and unpickles what they send; every other command,
    # and setup, skips those imports.  No command needs multiprocessing at all.
    src = str(Path(sigdim.__file__).parents[1])
    script = ("import sys, sigdim.cli; print(sorted(m for m in sys.modules "
              "if m.partition('.')[0] in ('multiprocessing', 'pickle', '_pickle') "
              "or m.startswith('concurrent.futures')))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


def test_readme_library_example_runs():
    # The README's library example is code: run it, so that it cannot drift from the package.
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    assert blocks
    src = str(root / "src")
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr


def test_readme_embedding_keys_match_writer():
    # The embedding file format is what Embedding.to_json writes; README names its keys.
    root = Path(__file__).resolve().parents[1]
    spec = re.search(r"embedding JSON\s+`\{(.*?)\}`", (root / "README.md").read_text(), re.S)
    block = re.search(r"\[\{(.*?)\}\]", spec.group(1)).group(1)
    data = embed(parse_graph("2 1\n0 1\n")).to_json()
    assert re.findall(r"\w+", re.sub(r":\s*\[.*?\]", "", spec.group(1))) == list(data)
    assert re.findall(r"\w+", block) == list(data["blocks"][0])
