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
import os
import sys
import threading
from contextlib import contextmanager, suppress
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterator, NoReturn

from .embedding import Embedding, block_dims, dimension_bound, embed
from .errors import GraphInputError, PipelineError, shorten
from .factor import StarTriangleFactor, validate_factor
from .graphs import Graph, generate_exhaustive, parse_graph, sample_gnp
from .matching import Matching
from .picking import PickClass, PickedSet, PickSequence
from .pseudo import build_pseudo, schedule_m, RadiusSchedule
from .rationals import parse_rational, rat_from_json
from .sig import PointSet, compute_sig, oracle_embed_2ia
from .verify import verify

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_PIPELINE = 3


def _read_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise GraphInputError("malformed", f"cannot decode graph file {path}: {exc}") from None
    return parse_graph(text)


_scalar = json.JSONEncoder().encode
_sorted = json.JSONEncoder(sort_keys=True).encode  # json.dumps(v, sort_keys=True)


@cache
def _separated(level: int) -> Callable[[Any], str]:
    """A C encoder whose item separator starts a line indented ``level`` steps."""
    return json.JSONEncoder(separators=(",\n" + "  " * level, ": ")).encode


def _key(k: Any) -> str:
    if isinstance(k, str):
        return _scalar(k)
    if isinstance(k, (int, float)) or k is None:
        return '"' + _scalar(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _indented(v: Any, level: int) -> str:
    """``json.dumps(v, indent=2)`` for a value whose items sit ``level`` steps in.

    A list of scalars is encoded in one C call and only its brackets are
    re-spaced.  It counts as one when its first item is no container and its
    text has no bracket after the opening one; a string may hold a bracket,
    and then the list is walked item by item like any other.
    """
    if type(v) is int:
        return repr(v)
    if not (isinstance(v, (list, tuple, dict)) and v):
        return _scalar(v)  # empty containers too: "[]" and "{}"
    pad = "\n" + "  " * level
    if isinstance(v, dict):
        items = [_key(k) + ": " + _indented(x, level + 1) for k, x in v.items()]
        return f"{{{pad}{(',' + pad).join(items)}{pad[:-2]}}}"
    if not isinstance(v[0], (list, tuple, dict)):
        text = _separated(level)(v)
        if text.find("[", 1) == text.find("{", 1) == -1:
            return f"[{pad}{text[1:-1]}{pad[:-2]}]"
    return f"[{pad}{(',' + pad).join([_indented(x, level + 1) for x in v])}{pad[:-2]}]"


class _Indent2(json.JSONEncoder):
    """Hands ``json.dumps`` the layout of ``indent=2`` from ``_indented``."""

    def encode(self, o: Any) -> str:
        return _indented(o, 1)


def _dumps(data: Any) -> str:
    """Exactly ``json.dumps(data, indent=2)``, with every list of scalars encoded in C.

    CPython's own C encoder runs only without ``indent``.  The one top-level
    ``json.dumps`` call per file is what a tracer of ``json.dumps`` sees.
    """
    return json.dumps(data, indent=2, cls=_Indent2)


def _emit(data: Any, out: str | None) -> None:
    text = _dumps(data) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _render_report(report: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return _dumps(report) + "\n"
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


def _ints(values, what: str = "vertex ids") -> tuple[int, ...]:
    """A JSON list of integers; a float or a bool equal to one is not one."""
    ids = tuple(values)
    if not all(type(v) is int for v in ids):
        raise ValueError(f"{what} must be integers, got {shorten(str(list(ids)))}")
    return ids


def _roles(roles, n: int) -> dict[str, int]:
    """A pick's JSON roles: an object whose values are vertex ids below n."""
    if not (isinstance(roles, dict)
            and all(0 <= v < n for v in _ints(roles.values(), "pick roles"))):
        raise ValueError(f"pick roles must be an object of vertex ids below n={n}")
    return dict(roles)


def _fields(data: dict[str, Any]) -> dict[tuple[str, ...], str]:
    """An embedding file's fields but coords as JSON text, keyed by path (trace one level down)."""
    fields = {(k,): v for k, v in data.items() if k not in ("coords", "trace")}
    fields.update((("trace", k), v) for k, v in data["trace"].items())
    return {k: _sorted(v) for k, v in fields.items()}


def embedding_from_json(g: Graph, data: dict[str, Any]) -> Embedding:
    """Rebuild a full Embedding from the JSON written by `embed`; reject a malformed one.

    Only the sources are read: ``coords``, ``r``, the claimed radii ``trace.rv``,
    ``trace.factor``, and each pick's ``vertices``, ``class``, ``step`` and
    ``roles``; picks are numbered by position.  The derived fields (``n``,
    ``d``, ``delta``, ``blocks``, each pick's ``k`` and ``trace.m``) are rebuilt
    as ``embed`` builds them.  Every field of the file but ``coords`` must then
    be exactly what ``Embedding.to_json`` writes, compared as JSON text, so that
    0.0 or true does not pass for 0 or 1, nor "4/2" for 2.  The sources must
    also agree with each other: the picks partition the vertices, the factor is
    a star-triangle factor of ``g`` (else ``PipelineError``), the block
    widths sum to the coordinate width, and every radius is positive.
    """
    trace = data["trace"]
    rows = data["coords"]
    if not len(rows) == len(trace["rv"]) == g.n:
        raise ValueError(f"coords and trace.rv need one entry per vertex, n={g.n}")
    points = PointSet.from_rows(rows)
    fd = trace["factor"]
    if not (isinstance(fd["stars"], dict) and isinstance(fd["triangles"], list)
            and isinstance(fd["matching"], list)):
        raise ValueError("trace.factor needs a stars object and triangles and matching lists")
    factor = StarTriangleFactor(
        stars={int(u): frozenset(_ints(s)) for u, s in fd["stars"].items()},
        triangles=frozenset(_ints(t) for t in fd["triangles"]),
        residual=Matching(frozenset(_ints(e) for e in fd["matching"])),
    )
    picks = PickSequence(tuple(
        PickedSet(k, _ints(p["vertices"]), PickClass(p["class"]), p["step"],
                  _roles(p["roles"], g.n))
        for k, p in enumerate(trace["picks"])
    ))
    picked = sorted(v for p in picks.picks for v in p.vertices)
    if picked != list(range(g.n)) or not all(p.vertices for p in picks.picks):
        raise ValueError("trace.picks must partition the vertices into non-empty sets")
    validate_factor(g, factor)
    pn = build_pseudo(factor, picks)
    _ints([p.step for p in picks.picks], "pick steps")
    if sum(map(len, block_dims(picks))) != points.d:
        raise ValueError(f"the block widths must sum to the coordinate width {points.d}")
    r = rat_from_json(data["r"])
    if r <= 0:
        raise ValueError(f"radius must be a positive int or Fraction, got {shorten(repr(r))}")
    rv = dict(enumerate(map(rat_from_json, trace["rv"])))
    if low := [v for v, x in rv.items() if x <= 0]:
        raise ValueError(f"trace.rv[{low[0]}] must be a positive radius")
    sched = RadiusSchedule(r, schedule_m(pn, picks), rv)
    emb = Embedding(g, factor, picks, pn, sched, points)
    ours, theirs = _fields(emb.to_json(coords=False)), _fields(data)
    differ = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
    if differ:
        raise ValueError("fields differ from what embed writes for these sources: "
                         + ", ".join(map(".".join, differ)))
    return emb


def cmd_embed(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    try:
        emb = embed(g, args.r)
    except PipelineError as exc:
        print(_dumps(exc.to_json()), file=sys.stderr)
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
        g = compute_sig(PointSet.from_rows(rows))
    except (OSError, ValueError, KeyError, TypeError,  # coincident points raise too
            RecursionError) as exc:  # a file nested too deeply for json.loads
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(g.serialize())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args.graph)
        g.require_embeddable()
        emb = embedding_from_json(g, json.loads(Path(args.points).read_text()))
    except (OSError, ValueError, KeyError, TypeError, RecursionError, PipelineError) as exc:
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
    ok = compute_sig(ps).masks == g.masks
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
            if cand.n < 2 or not all(cand.masks):
                continue
            _, f = _run_instance(cand, r)
            if f is not None:
                g, failure = cand, f
                improved = True
                break
    return g, failure


def _fuzz_instance(job: tuple[int, int, Fraction, Fraction | None]
                   ) -> tuple[int | None, dict[str, Any] | None]:
    """One fuzz instance: (d, None) when clean, else (d or None, its failure bundle)."""
    seed, n, p, r = job
    g, repairs = sample_gnp(n, p, seed)
    d, failure = _run_instance(g, r)
    if failure is None:
        return d, None
    small, small_failure = _shrink(g, r)
    return d, {
        "graph": g.serialize(),
        "shrunk_graph": small.serialize(),
        "seed": seed,
        "n": n,
        "p": str(p),
        "repaired_edges": [list(e) for e in repairs],
        "r": None if r is None else str(r),
        "failure": failure,
        "shrunk_failure": small_failure,
    }


def _fuzz_share(share: list[tuple], fd: int) -> NoReturn:
    """Run ``share`` in a forked worker, pickle its outcome to ``fd``, and exit.

    The outcome is ``(results, error)``: the results of the jobs finished, in
    order, and the exception raised by the job after them, or None.  The
    worker leaves through ``os._exit`` whatever happens, so it never returns
    into the caller's stack, runs no atexit handler and flushes no inherited
    buffer.  It exits 0 only once the whole outcome is written.
    """
    status = 1
    try:
        import pickle

        results, error = [], None
        try:
            for job in share:
                results.append(_fuzz_instance(job))
        except Exception as exc:  # the parent raises it at this job's position
            error = exc
        with open(fd, "wb") as out:
            pickle.dump((results, error), out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


@contextmanager
def _fuzz_results(jobs: list[tuple]) -> Iterator[Iterator[tuple]]:
    """The results of ``_fuzz_instance`` over ``jobs``, in job order.

    With two or more jobs and CPUs this process may use, it forks w workers,
    one per CPU but no more than there are jobs, and worker i runs
    ``jobs[i::w]``: sizes cycle with the seed, so every share gets the same
    mix.  Forking copies the loaded modules, so workers start at once.  Each
    worker pickles its results to its own pipe when its share is done.  A
    worker's exception is raised here at the position of the job that raised
    it; a worker that dies first raises RuntimeError naming its exit status.
    No worker outlives the ``with`` block.  Forking beside another thread is
    unsafe, so a process that runs other threads, has one CPU or no fork, or
    has one job runs the jobs itself.
    """
    try:
        workers = min(len(os.sched_getaffinity(0)), len(jobs))
    except AttributeError:  # no sched_getaffinity on this platform
        workers = 1
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        yield map(_fuzz_instance, jobs)
        return
    import pickle  # here, so that no other command pays for the import
    import signal

    pids: list[int] = []
    reads: list[int] = []  # the read end of each worker's pipe
    unreaped: set[int] = set()

    def received() -> Iterator[tuple]:
        outcomes: list[Any] = [None] * workers
        for j in range(len(jobs)):
            k, i = divmod(j, workers)
            if outcomes[i] is None:
                # To EOF before waitpid: an outcome can be larger than the pipe holds.
                with open(reads[i], "rb", closefd=False) as fh:
                    data = fh.read()
                status = os.waitpid(pids[i], 0)[1]
                unreaped.discard(pids[i])
                code = os.waitstatus_to_exitcode(status)
                if code != 0:
                    raise RuntimeError(f"fuzz worker {pids[i]} exited with status {code} "
                                       "before sending its results")
                outcomes[i] = pickle.loads(data)
            results, error = outcomes[i]
            if k == len(results):
                raise error
            yield results[k]

    try:
        for i in range(workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _fuzz_share(jobs[i::workers], write)
            finally:  # in the parent: a later worker holding it open would withhold EOF
                os.close(write)
            pids.append(pid)
            unreaped.add(pid)
        yield received()
    finally:
        for pid in unreaped:
            # Reaped already if an interrupt came between waitpid and discard.
            with suppress(ChildProcessError):
                # WNOHANG reaps a worker that has exited.  One still running is
                # still this process's child, so its pid cannot have been reused.
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        for read in reads:
            os.close(read)


def cmd_fuzz(args: argparse.Namespace) -> int:
    if not 2 <= args.n_min <= args.n_max:
        print("error: need 2 <= n-min <= n-max", file=sys.stderr)
        return EXIT_INPUT
    if args.count < 0:
        print(f"error: --count must be non-negative, got {shorten(str(args.count))}",
              file=sys.stderr)
        return EXIT_INPUT
    outdir = Path(args.bundle_dir)
    span = args.n_max - args.n_min + 1
    seeds = range(args.seed, args.seed + args.count)
    jobs = [(seed, args.n_min + seed % span, args.p, args.r) for seed in seeds]
    passed = 0
    failures = []
    slack_hist: dict[int, int] = {}
    with _fuzz_results(jobs) as results:
        for (seed, n, _, _), (d, bundle) in zip(jobs, results):
            if bundle is None:
                passed += 1
                slack = dimension_bound(n)[0] - d
                slack_hist[slack] = slack_hist.get(slack, 0) + 1
                continue
            outdir.mkdir(parents=True, exist_ok=True)
            path = outdir / f"counterexample-seed{seed}.json"
            path.write_text(_dumps(bundle) + "\n")
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
            if compute_sig(oracle_embed_2ia(g)).masks == g.masks:
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
                raise ValueError(f"radius must be positive, got {shorten(str(args.r))}")
        if getattr(args, "p", None) is not None:
            args.p = parse_rational(args.p)
            if not 0 <= args.p <= 1:
                raise ValueError(f"edge probability must lie in [0, 1], got {shorten(str(args.p))}")
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
