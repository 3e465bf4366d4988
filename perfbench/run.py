"""Benchmark for sigdim: embed-then-verify latency and fuzz throughput.

    python3 perfbench/run.py --workload gnp-dense --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; sigdim is imported from its ``src``.  The
workloads (see workloads.py and README.md) run closed-loop, one command at a
time, by calling ``sigdim.cli.main`` in-process.  Every output is re-checked
by checker.py, which shares no code with sigdim's verifier.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run also writes its spans and a report
(layer accounting, tracing overhead, pick census) to perfbench/work/traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checker
import workloads
from tracing import PER_LAYER, Tracer, alloc_peaks
from workloads import FuzzInput, GraphInput

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
SETUP_REPEATS = 15

END_TO_END = {"embed_cmd_s": "s", "verify_cmd_s": "s", "graphs_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def load_sigdim():
    """Import sigdim afresh from this checkout's src; returns the package."""
    for name in [m for m in sys.modules if m == "sigdim" or m.startswith("sigdim.")]:
        del sys.modules[name]
    import sigdim
    import sigdim.cli  # noqa: F401  (the entry point every workload drives)

    if not Path(sigdim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sigdim came from {sigdim.__file__}, not from {SRC}")
    return sigdim


def measure_setup(files: list[Path]):
    """Median time to import sigdim and parse the round's graph files."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = load_sigdim()
        for path in files:
            lib.parse_graph(path.read_text())
        times.append(perf_counter() - start)
    return statistics.median(times), lib


@dataclass
class Tally:
    embed_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    graph_s: float = 0.0         # time inside embed and verify commands
    fuzz_s: float = 0.0          # time inside fuzz commands
    graphs: int = 0
    fuzz_instances: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    gap: list[dict] = field(default_factory=list)


def call(cli, argv: list[str]) -> int:
    """sigdim.cli.main in-process, its own output kept off our stdout.

    Returns the exit code, or -1 when the command raised.
    """
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this operation, not the run
            traceback.print_exc(file=sys.__stderr__)
            return -1


def judge_graph(op: GraphInput, rc_embed: int, rc_verify: int, data: dict,
                report: dict, tally: Tally) -> bool:
    """Check one embed-then-verify pair; returns whether the operation failed."""
    chk = checker.check_embedding(op.n, set(op.edges), data)
    problems = []
    for key, reported in (("sig", "sig_equal"), ("radii", "radius_agree"),
                          ("bound", "bound_ok")):
        if report[reported] != chk[key]:
            problems.append(f"verify says {reported}={report[reported]}, "
                            f"the checker says {chk[key]}")
    expected = 0 if report["verdict"] == "pass" else 2
    if (rc_embed, rc_verify) != (expected, expected):
        problems.append(f"exit codes {rc_embed}/{rc_verify} for verdict {report['verdict']}")
    failed = report["verdict"] != "pass"
    if failed and op.witness:
        steps = {b["k"]: b["step"] for b in data["blocks"]}
        fails = report["inequality_failures"]
        if not fails or any(f["inequality"] != 2 or steps.get(f["k"]) != 27 for f in fails):
            problems.append("witness failed other than by the step-27 family-(2) gap")
        tally.gap.extend({"graph": op.name, "block": f["k"], "step": steps.get(f["k"]),
                          "family": f["inequality"], "pair": f["pair"],
                          "lhs": f["lhs"], "rhs": f["rhs"]} for f in fails)
    if failed and not op.witness:
        print(f"perfbench: {op.name} failed verification", file=sys.stderr)
    else:
        problems.extend(chk["problems"])
    tally.problems.extend(f"{op.name}: {p}" for p in problems)
    return failed


def run_graph(cli, op: GraphInput, work: Path, tally: Tally) -> dict | None:
    """sigdim embed, then sigdim verify, on one graph; returns the embedding."""
    graph = work / f"{op.name}.txt"
    out, rep = work / f"{op.name}.json", work / f"{op.name}.report.json"
    out.unlink(missing_ok=True)
    rep.unlink(missing_ok=True)
    tally.attempted += 1
    start = perf_counter()
    rc_embed = call(cli, ["embed", str(graph), "-o", str(out)])
    mid = perf_counter()
    rc_verify = call(cli, ["verify", str(graph), str(out), "-o", str(rep)])
    end = perf_counter()
    tally.embed_s.append(mid - start)
    tally.verify_s.append(end - mid)
    tally.graph_s += end - start
    tally.graphs += 1
    if not (out.exists() and rep.exists()):
        tally.failed += 1
        return None
    data = json.loads(out.read_text())
    if judge_graph(op, rc_embed, rc_verify, data, json.loads(rep.read_text()), tally):
        tally.failed += 1
    return data


def run_fuzz(cli, op: FuzzInput, work: Path, tally: Tally) -> dict | None:
    """One sigdim fuzz call; checks the summary's identities."""
    out = work / "fuzz.json"
    out.unlink(missing_ok=True)
    tally.attempted += op.count
    start = perf_counter()
    rc = call(cli, op.argv(str(out), str(work / "bundles")))
    tally.fuzz_s += perf_counter() - start
    tally.fuzz_instances += op.count
    if rc != 0 or not out.exists():
        tally.failed += op.count
        return None
    s = json.loads(out.read_text())
    hist = s["bound_slack_histogram"]
    if not (s["count"] == op.count and s["passed"] + s["failed"] == s["count"]
            and len(s["failures"]) == s["failed"]
            and sum(hist.values()) == s["passed"]
            and all(int(k) >= 0 for k in hist)):
        tally.problems.append(f"fuzz --seed {op.base}: summary identities fail")
    tally.failed += s["failed"]
    return s


def run_round(cli, ops: list, work: Path, tally: Tally, tracer: Tracer | None = None) -> None:
    summary = None
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if isinstance(op, FuzzInput):
            summary = run_fuzz(cli, op, work, tally)
            continue
        data = run_graph(cli, op, work, tally)
        if op.fuzz_seed is None or summary is None or data is None:
            continue
        # The fuzz call said this instance passed with some slack; the
        # re-derived embedding must agree.
        slack = str(checker.dimension_limit(op.n) - data["d"])
        if (op.fuzz_seed in {f["seed"] for f in summary["failures"]}
                or slack not in summary["bound_slack_histogram"]):
            tally.problems.append(f"{op.name}: disagrees with the fuzz summary")


def write_inputs(ops: list, work: Path) -> list[Path]:
    paths = []
    for op in ops:
        if isinstance(op, GraphInput):
            path = work / f"{op.name}.txt"
            path.write_text(op.text())
            paths.append(path)
    return paths


def timed_rounds(first: list, gen, seconds: float, work: Path):
    """Yield rounds, starting with ``first``, while the next one is expected
    to end within ``seconds``; the mean round so far is the estimate."""
    start = perf_counter()
    ops, done = first, 0
    while True:
        yield ops
        done += 1
        elapsed = perf_counter() - start
        if elapsed * (done + 1) / done > seconds:
            return
        ops = next(gen)
        write_inputs(ops, work)


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; 0 stands for a figure no operation produced."""
    done, busy = ((tally.fuzz_instances, tally.fuzz_s) if tally.fuzz_instances
                  else (tally.graphs, tally.graph_s))
    return {
        "embed_cmd_s": statistics.median(tally.embed_s) if tally.embed_s else 0.0,
        "verify_cmd_s": statistics.median(tally.verify_s) if tally.verify_s else 0.0,
        "graphs_per_s": done / busy if busy else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def layer_accounting(tracer: Tracer, plain: Tally, traced: Tally) -> dict:
    """Layer self times plus the untraced remainder add up to the untraced time."""
    untraced_s = plain.graph_s + plain.fuzz_s
    traced_s = traced.graph_s + traced.fuzz_s
    layers: dict[str, float] = {}
    for name, t in tracer.self_times().items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + t
    spanned = sum(layers.values())
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "tracing_overhead_s": traced_s - untraced_s,
        "layer_self_s": dict(sorted(layers.items())),
        "untraced_remainder_s": untraced_s - spanned,
        "note": "layer_self_s sums with untraced_remainder_s to untraced_s; "
                "the remainder is command time outside every span minus the "
                "tracing overhead",
    }


def traced_run(lib, name: str, seed: int, seconds: float, work: Path,
               first: list, gen, setup_s: float) -> tuple[dict[str, float], Tally]:
    cli = lib.cli
    plain, traced, tracer = Tally(), Tally(), Tracer()
    origin = perf_counter()
    # The allocation probe runs first so that it counts against --seconds.
    probe = next(op for op in first if isinstance(op, GraphInput))
    alloc = alloc_peaks(lib.embed, lib.verify, lib.parse_graph(probe.text()))
    for ops in timed_rounds(first, gen, seconds - (perf_counter() - origin), work):
        run_round(cli, ops, work, plain)
        tracer.install()
        try:
            run_round(cli, ops, work, traced, tracer)
        finally:
            tracer.uninstall()
    metrics = tracer.per_layer(traced.graphs + traced.fuzz_instances,
                               traced.fuzz_instances, alloc)
    class_steps = {c.value: sorted(s) for c, s in lib.picking.CLASS_STEPS.items()}
    out = WORK / "traces"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}"
    tracer.dump_spans(out / f"{stem}.spans.jsonl", origin)
    report = {
        "workload": name, "seed": seed,
        "graphs_processed": traced.graphs + traced.fuzz_instances,
        "per_layer": metrics,
        "accounting": layer_accounting(tracer, plain, traced),
        "untraced": end_to_end(plain, setup_s),
        "census": tracer.census(class_steps),
        "construction_gap": traced.gap,
    }
    (out / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"perfbench: trace report in {out / stem}.json", file=sys.stderr)
    combined = Tally(attempted=plain.attempted + traced.attempted,
                     failed=plain.failed + traced.failed,
                     problems=plain.problems + traced.problems, gap=traced.gap)
    return metrics, combined


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sigdim" / "__init__.py").is_file():
        print(f"perfbench: no sigdim sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    try:
        lib = load_sigdim()
    except ImportError as exc:
        print(f"perfbench: cannot import sigdim: {exc}", file=sys.stderr)
        return 1

    work = WORK / f"run-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gen = workloads.rounds(args.workload, args.seed, lib)
        first = next(gen)
        setup_s, lib = measure_setup(write_inputs(first, work))
        self_test = checker.self_test()
        if args.trace:
            metrics, tally = traced_run(lib, args.workload, args.seed, args.seconds,
                                        work, first, gen, setup_s)
            units = PER_LAYER
        else:
            tally = Tally()
            for ops in timed_rounds(first, gen, args.seconds, work):
                run_round(lib.cli, ops, work, tally)
            metrics = end_to_end(tally, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = self_test + tally.problems
    if not tally.attempted or tally.failed == tally.attempted:
        problems.append("no operation completed")
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    for g in sorted({(g["graph"], g["block"], g["step"], g["family"]) for g in tally.gap}):
        print("perfbench: construction gap in %s: block %d, step %d, family (%d)" % g,
              file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
