"""Command-line front end.

Commands:
  embed       graph file -> embedding JSON + verification summary
  sig         points JSON -> edge list of its sphere-of-influence graph
  verify      graph file + embedding JSON -> verification report
  oracle      graph file -> the n-dimensional 2I+A realization, round-tripped
  fuzz        seeded random graphs through embed+verify, shrinking failures
  exhaustive  every labeled graph without isolated vertices up to max-n

Exit codes: 0 success, 1 input error, 2 verification failure,
3 pipeline diagnostic (a construction guarantee failed on this input).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .embedding import Embedding, dimension_bound, embed
from .errors import GraphInputError, PipelineError
from .factor import StarTriangleFactor
from .graphs import Graph, generate_exhaustive, parse_graph, sample_gnp
from .matching import Matching
from .picking import PickClass, PickedSet, PickSequence
from .pseudo import build_pseudo, RadiusSchedule
from .rationals import parse_rational, rat_from_json
from .sig import PointSet, compute_sig, oracle_embed_2ia
from .verify import verify

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_PIPELINE = 3


def _read_graph(path: str) -> Graph:
    text = Path(path).read_text()
    g = parse_graph(text)
    g.require_embeddable()
    return g


def _emit(data: Any, out: str | None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _render_report(report: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = [f"verdict: {report['verdict']}"]
    for key in ("sig_equal", "radius_agree", "bound_ok"):
        lines.append(f"{key}: {'yes' if report[key] else 'NO'}")
    fails = report["inequality_failures"]
    lines.append(f"inequality failures: {len(fails)}")
    for f in fails[:20]:
        lines.append(
            f"  block {f['k']} ineq ({f['inequality']}) pair {tuple(f['pair'])}: "
            f"{f['lhs']} vs {f['rhs']}"
        )
    for key, value in report["diagnostics"].items():
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _summary_stream(out: str | None):
    # Keep stdout clean when it carries the JSON payload.
    return sys.stdout if out else sys.stderr


def embedding_from_json(g: Graph, data: dict[str, Any]) -> Embedding:
    """Rebuild a full Embedding from the JSON written by `embed`; reject a malformed one."""
    trace = data["trace"]
    rows = [[rat_from_json(x) for x in row] for row in data["coords"]]
    if not len(rows) == len(trace["m"]) == len(trace["rv"]) == g.n:
        raise ValueError(f"coords, trace.m and trace.rv need one entry per vertex, n={g.n}")
    points = PointSet.from_rows(rows)
    fd = trace["factor"]
    if not (isinstance(fd["stars"], dict) and isinstance(fd["triangles"], list)
            and isinstance(fd["matching"], list)):
        raise ValueError("trace.factor needs a stars object and triangles and matching lists")
    factor = StarTriangleFactor(
        stars={int(u): frozenset(s) for u, s in fd["stars"].items()},
        triangles=frozenset(tuple(t) for t in fd["triangles"]),
        residual=Matching(frozenset(tuple(e) for e in fd["matching"])),
    )
    picks = PickSequence(tuple(
        PickedSet(p["k"], tuple(p["vertices"]), PickClass(p["class"]),
                  p["step"], dict(p["roles"]))
        for p in trace["picks"]
    ))
    pn = build_pseudo(factor, picks)
    picked = sorted(v for p in picks.picks for v in p.vertices)
    if (picked != list(range(g.n)) or set(pn.n1) != set(range(g.n))
            or not all(p.vertices for p in picks.picks)):
        raise ValueError("trace.picks must partition the vertices into non-empty sets "
                         "and trace.factor cover them")
    if [p.k for p in picks.picks] != list(range(picks.count)):
        raise ValueError("picks must be numbered 0, 1, ... in order")
    r, delta = rat_from_json(data["r"]), rat_from_json(data["delta"])
    if not (r > 0 and delta > 0 and all(type(x) is int for x in trace["m"])):
        raise ValueError("r and delta must be positive and trace.m entries integers")
    sched = RadiusSchedule(r, delta, dict(enumerate(trace["m"])),
                           {v: rat_from_json(x) for v, x in enumerate(trace["rv"])})
    emb = Embedding(g, factor, picks, pn, sched, points)
    if data["blocks"] != emb.blocks_json():
        raise ValueError("blocks must follow from trace.picks, in pick order")
    if not data["d"] == points.d == sum(len(b["dims"]) for b in data["blocks"]):
        raise ValueError(f"d and the block widths must sum to the coordinate width {points.d}")
    return emb


def cmd_embed(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    try:
        emb = embed(g, args.r)
    except PipelineError as exc:
        print(json.dumps(exc.to_json(), indent=2), file=sys.stderr)
        return EXIT_PIPELINE
    report = verify(g, emb)
    _emit(emb.to_json(), args.out)
    print(f"d={emb.d} bound={dimension_bound(g.n)[0]} verdict={report.verdict}",
          file=_summary_stream(args.out))
    if report.verdict != "pass":
        sys.stderr.write(_render_report(report.to_json(), args.format))
        return EXIT_VERIFY
    return EXIT_OK


def cmd_sig(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.points).read_text())
        rows = data["coords"] if isinstance(data, dict) else data
        g = compute_sig(PointSet.from_rows([[rat_from_json(x) for x in row] for row in rows]))
    except (OSError, ValueError, KeyError, TypeError) as exc:  # coincident points raise too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(g.serialize())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args.graph)
        emb = embedding_from_json(g, json.loads(Path(args.points).read_text()))
    except (OSError, ValueError, KeyError, TypeError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = verify(g, emb)
    rendered = _render_report(report.to_json(), args.format)
    if args.out:
        Path(args.out).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK if report.verdict == "pass" else EXIT_VERIFY


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    ps = oracle_embed_2ia(g)
    ok = compute_sig(ps).edges == g.edges
    _emit(ps.to_json(), args.out)
    print(f"d={ps.d} roundtrip={'ok' if ok else 'MISMATCH'}",
          file=_summary_stream(args.out))
    return EXIT_OK if ok else EXIT_VERIFY


def _run_instance(g: Graph, r: Fraction | None) -> tuple[int | None, dict[str, Any] | None]:
    """Embed + verify once: (d, None) when clean, else (d or None, failure record)."""
    try:
        emb = embed(g, r)
    except PipelineError as exc:
        return None, {"kind": "pipeline", "diagnostic": exc.to_json()}
    report = verify(g, emb)
    if report.verdict == "pass":
        return emb.d, None
    return emb.d, {"kind": "verification", "report": report.to_json(),
                   "picks": emb.picks.to_json(), "d": emb.d}


def _shrink(g: Graph, r: Fraction | None) -> tuple[Graph, dict[str, Any]]:
    """Greedily delete vertices while embed+verify still fails."""
    _, failure = _run_instance(g, r)
    if failure is None:
        raise PipelineError("shrink", "instance to shrink does not fail", graph=g.serialize())
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            cand = g.delete_vertex(v)
            if cand.n < 2 or cand.isolated_vertices():
                continue
            _, f = _run_instance(cand, r)
            if f is not None:
                g, failure = cand, f
                improved = True
                break
    return g, failure


def cmd_fuzz(args: argparse.Namespace) -> int:
    if not 2 <= args.n_min <= args.n_max:
        print("error: need 2 <= n-min <= n-max", file=sys.stderr)
        return EXIT_INPUT
    if args.count < 0:
        print(f"error: --count must be non-negative, got {args.count}", file=sys.stderr)
        return EXIT_INPUT
    outdir = Path(args.bundle_dir)
    passed = 0
    failures = []
    slack_hist: dict[int, int] = {}
    for i in range(args.count):
        seed = args.seed + i
        span = args.n_max - args.n_min + 1
        n = args.n_min + seed % span
        g, repairs = sample_gnp(n, args.p, seed)
        d, failure = _run_instance(g, args.r)
        if failure is None:
            passed += 1
            slack = dimension_bound(n)[0] - d
            slack_hist[slack] = slack_hist.get(slack, 0) + 1
            continue
        small, small_failure = _shrink(g, args.r)
        bundle = {
            "graph": g.serialize(),
            "shrunk_graph": small.serialize(),
            "seed": seed,
            "n": n,
            "p": str(args.p),
            "repaired_edges": [list(e) for e in repairs],
            "r": None if args.r is None else str(args.r),
            "failure": failure,
            "shrunk_failure": small_failure,
        }
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / f"counterexample-seed{seed}.json"
        path.write_text(json.dumps(bundle, indent=2) + "\n")
        failures.append({"seed": seed, "n": n, "bundle": str(path)})
    summary = {
        "count": args.count,
        "passed": passed,
        "failed": len(failures),
        "failures": failures,
        "bound_slack_histogram": {str(k): v for k, v in sorted(slack_hist.items())},
    }
    _emit(summary, args.out)
    return EXIT_OK


def cmd_exhaustive(args: argparse.Namespace) -> int:
    if not 2 <= args.max_n <= 6:
        print("error: need 2 <= max-n <= 6", file=sys.stderr)
        return EXIT_INPUT
    per_n = []
    all_ok = True
    for n in range(2, args.max_n + 1):
        graphs = pipeline_pass = oracle_pass = 0
        failures = []
        for g in generate_exhaustive(n):
            graphs += 1
            if compute_sig(oracle_embed_2ia(g)).edges == g.edges:
                oracle_pass += 1
            _, failure = _run_instance(g, args.r)
            if failure is None:
                pipeline_pass += 1
            elif len(failures) < 5:
                failures.append({"graph": g.serialize(), "failure": failure})
        ok = pipeline_pass == graphs and oracle_pass == graphs
        all_ok = all_ok and ok
        per_n.append({
            "n": n,
            "graphs": graphs,
            "pipeline_pass": pipeline_pass,
            "oracle_pass": oracle_pass,
            "failures": failures,
        })
    _emit({"per_n": per_n, "all_pass": all_ok}, args.out)
    return EXIT_OK if all_ok else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.exit(EXIT_INPUT, f"error: {message}\n")  # one line, no usage


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sigdim",
        description="Sphere-of-influence realizations under the sup-norm",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a graph and verify the result")
    p.add_argument("graph")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--r", default=None, help="radius override, e.g. 100 or 7/3")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("sig", help="sphere-of-influence graph of a point set")
    p.add_argument("points")
    p.set_defaults(func=cmd_sig)

    p = sub.add_parser("verify", help="verify an embedding JSON against a graph")
    p.add_argument("graph")
    p.add_argument("points")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="n-dimensional 2I+A realization")
    p.add_argument("graph")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fuzz", help="random graphs through embed+verify")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--p", required=True, help="edge probability, e.g. 1/2")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--r", default=None)
    p.add_argument("--bundle-dir", default="counterexamples")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("exhaustive", help="all labeled graphs up to max-n")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--r", default=None)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_exhaustive)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a rejected command line is an input error
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        if getattr(args, "r", None) is not None:
            args.r = parse_rational(args.r)
            if args.r <= 0:
                raise ValueError(f"radius must be positive, got {args.r}")
        if getattr(args, "p", None) is not None:
            args.p = parse_rational(args.p)
            if not 0 <= args.p <= 1:
                raise ValueError(f"edge probability must lie in [0, 1], got {args.p}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (GraphInputError, OSError) as exc:  # a bad graph file, an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
