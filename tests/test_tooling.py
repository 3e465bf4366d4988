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


def test_adjacency_read_through_graph_masks():
    # Neighbours are read from Graph.masks, with the mask helpers graphs.py owns:
    # no module reads `.adj`, and none outside graphs.py keeps its own lowest-bit
    # (x & -x) or vertex-mask (sum(1 << v for v in ...)) helper.
    def own_helper(node):
        if isinstance(node, ast.FunctionDef):
            return node.name.strip("_") in ("mask", "mask_of", "lowest", "members")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            return any(isinstance(b, ast.UnaryOp) and isinstance(b.op, ast.USub)
                       and ast.dump(b.operand) == ast.dump(a)
                       for a, b in ((node.left, node.right), (node.right, node.left)))
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
                and node.args and isinstance(gen := node.args[0], (ast.GeneratorExp, ast.ListComp))
                and isinstance(gen.elt, ast.BinOp) and isinstance(gen.elt.op, ast.LShift)
                and getattr(gen.elt.left, "value", None) == 1)

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(sigdim.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "adj"
        or path.name != "graphs.py" and own_helper(node)
    ]
    assert found == []


def test_exact_table_read_only_where_the_kernel_does_not_serve():
    # The threshold kernel answers every threshold question, whatever the size
    # of the point set.  PointSet.distances is read by compute_radii, and swept
    # by compute_sig at the radii read off it.
    def allowed(path, tree):
        for node in ast.walk(tree):
            name = getattr(node, "name", None)
            if path.name == "sig.py" and name in ("compute_radii", "compute_sig"):
                yield node.lineno, node.end_lineno

    found, spans = [], 0
    for path in sorted(Path(sigdim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        ranges = list(allowed(path, tree))
        spans += len(ranges)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "distances"
                  and not any(lo <= node.lineno <= hi for lo, hi in ranges)]
    assert spans == 2 and found == []


def test_field_format_read_only_by_the_kernel():
    # ThresholdKernel owns its packed-field format: verify asks it questions
    # and reads none of the attributes that lay the fields out.
    layout = {"half", "ones", "lo", "top", "both", "clamp", "pack", "width"}
    tree = ast.parse((Path(sigdim.__file__).parent / "verify.py").read_text())
    found = [f"verify.py:{node.lineno} .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in layout]
    assert found == []


def test_json_indent_passed_only_by_the_writer():
    # json.dumps(indent=...) runs CPython's pure-Python encoder; cli._dumps writes
    # the same bytes with lists of scalars encoded in C, so every indented file
    # goes through it.
    found = []
    for path in sorted(Path(sigdim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        writer = [(f.lineno, f.end_lineno) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_dumps"
                  and path.name == "cli.py"]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)
                  and not any(lo <= node.lineno <= hi for lo, hi in writer)]
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
    # (1) ranges over N(u) in every block: 2 blocks x 6 pseudo-neighbour entries
    # per verify, and both commands verify.
    assert sizes["sum"]["verify.ineq_evals.f1"] == 2 * 12


def test_traced_embed_dumps_its_file_once(tmp_path):
    # The tracer wraps json.dumps in sigdim.cli: one call per written file keeps
    # cli.json_dumps_s one span per file and cli.json_bytes the file's size.
    tracing = load_tracing()
    graph, out = tmp_path / "g.txt", tmp_path / "g.json"
    graph.write_text(generate_random(40, 0.5, 1).serialize())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = sigdim.cli.main(["embed", str(graph), "-o", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert [span[0] for span in tracer.spans].count("cli.json_dumps") == 1
    sizes = tracing._observed_sizes(tracer.observed)
    assert sizes["sum"]["cli.json_bytes"] == len(out.read_bytes()) - 1  # _emit adds "\n"


def test_traced_verify_dumps_only_its_report(tmp_path):
    # The loader compares fields as JSON text through encoders of its own: the
    # tracer's cli.json_dumps sees the report and nothing else.
    tracing = load_tracing()
    graph, emb, out = tmp_path / "g.txt", tmp_path / "g.json", tmp_path / "report.json"
    g = generate_random(40, 0.5, 1)
    graph.write_text(g.serialize())
    emb.write_text(json.dumps(embed(g).to_json()))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = sigdim.cli.main(["verify", str(graph), str(emb), "-o", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert [span[0] for span in tracer.spans].count("cli.json_dumps") == 1
    sizes = tracing._observed_sizes(tracer.observed)
    assert sizes["sum"]["cli.json_bytes"] == len(out.read_bytes()) - 1  # the report's "\n"


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


def test_graphs_imports_only_what_cli_loads_anyway():
    # Reading a graph file must add no import to setup: graphs.py may import only
    # modules that `import sigdim.cli` loads without it (json, for one).  Run with
    # graphs.py stubbed out and list what got loaded.
    src = Path(sigdim.__file__).parent
    script = ("import sys, types\n"
              "stub = types.ModuleType('sigdim.graphs')\n"
              "stub.__getattr__ = lambda name: object\n"
              "sys.modules['sigdim.graphs'] = stub\n"
              "import sigdim.cli\n"
              "print(*sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src.parent)},
                          check=True)
    loaded = set(done.stdout.split())
    imported = set()
    for node in ast.walk(ast.parse((src / "graphs.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert imported <= loaded, imported - loaded


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
