"""Spans around sigdim's public functions, and the per-layer metrics from them.

The tracer replaces names in sigdim's module namespaces with wrappers at run
time, so the program's own calls go through them; no program file changes.
Each wrapper records name, start, end and parent span in memory.  Counts that
need the call's arguments or result (matching size, factor shape, picks, SIG
pairs, inequality evaluations) are kept as references and computed after the
traced pass, so that computing them does not add to any span.

``check_inequalities`` is deliberately not wrapped: ``verify`` calls it once
per block with one shared integer grid, and timing it from outside would
rebuild that grid per block and measure a different program.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

# (module, attribute, span name).  A name imported into several modules is
# patched in each module that calls it.
PATCHES = [
    ("sigdim.cli", "cmd_embed", "cli.embed"),
    ("sigdim.cli", "cmd_verify", "cli.verify"),
    ("sigdim.cli", "cmd_fuzz", "cli.fuzz"),
    ("sigdim.cli", "parse_graph", "graphs.parse"),
    ("sigdim.cli", "embed", "embedding.embed"),
    ("sigdim.cli", "verify", "verify.verify"),
    ("sigdim.cli", "embedding_from_json", "cli.embedding_from_json"),
    ("sigdim.cli", "build_pseudo", "pseudo.build_pseudo"),
    ("sigdim.embedding", "maximum_matching", "matching.maximum_matching"),
    ("sigdim.embedding", "star_triangle_factor", "factor.star_triangle_factor"),
    ("sigdim.embedding", "validate_factor", "factor.validate_factor"),
    ("sigdim.embedding", "pick_vertices", "picking.pick_vertices"),
    ("sigdim.embedding", "validate_picks", "picking.validate_picks"),
    ("sigdim.embedding", "build_pseudo", "pseudo.build_pseudo"),
    ("sigdim.embedding", "radius_schedule", "pseudo.radius_schedule"),
    ("sigdim.embedding", "validate_schedule", "pseudo.validate_schedule"),
    ("sigdim.embedding", "assign_block", "embedding.assign_block"),
    ("sigdim.verify", "compute_sig", "sig.compute_sig"),
    ("sigdim.verify", "compute_radii", "sig.compute_radii"),
]

COMMANDS = ("cli.embed", "cli.verify", "cli.fuzz")

# Per-layer metrics: name -> unit.  Times are seconds per graph processed.
PER_LAYER = {
    "graphs.parse_s": "s",
    "matching.maximum_matching_s": "s",
    "matching.size": "count",
    "factor.star_triangle_factor_s": "s",
    "factor.validate_factor_s": "s",
    "factor.stars": "count",
    "factor.leaves": "count",
    "factor.triangles": "count",
    "picking.pick_vertices_s": "s",
    "picking.validate_picks_s": "s",
    "picking.picks": "count",
    "pseudo.build_pseudo_s": "s",
    "pseudo.radius_schedule_s": "s",
    "pseudo.validate_schedule_s": "s",
    "embedding.embed_s": "s",
    "embedding.assign_block_s": "s",
    "embedding.self_s": "s",
    "embedding.dims": "count",
    "embedding.to_json_s": "s",
    "embedding.alloc_peak_kib": "KiB",
    "sig.from_rows_s": "s",
    "sig.compute_sig_s": "s",
    "sig.compute_radii_s": "s",
    "sig.pairs": "count",
    "sig.coord_diffs": "count",
    "verify.verify_s": "s",
    "verify.inequality_self_s": "s",
    "verify.ineq_evals.f1": "count",
    "verify.ineq_evals.f2": "count",
    "verify.ineq_evals.f3": "count",
    "verify.ineq_evals.f4": "count",
    "verify.ineq_evals.f5": "count",
    "verify.ineq_failures": "count",
    "verify.alloc_peak_kib": "KiB",
    "cli.json_dumps_s": "s",
    "cli.json_loads_s": "s",
    "cli.embedding_from_json_s": "s",
    "cli.json_bytes": "B",
    "cli.embed_calls_per_instance": "count",
    "cli.fuzz_self_s": "s",
}


class _JsonProxy:
    """Stands in for the json module inside sigdim.cli, with traced dumps/loads."""

    def __init__(self, dumps: Callable, loads: Callable):
        self.dumps = dumps
        self.loads = loads

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


class Tracer:
    """Installs span wrappers into sigdim's namespaces and collects spans."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, parent, start, end, op]
        self.stack: list[int] = []
        self.observed: list[tuple[str, tuple, Any]] = []
        self.op = 0
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, observe: bool = True) -> Callable:
        spans, stack, observed = self.spans, self.stack, self.observed

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else None, 0.0, 0.0, self.op])
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid][2], spans[sid][3] = start, end
            if observe:
                observed.append((name, args, result))
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        # vars() keeps a staticmethod wrapper intact for the restore.
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr, span in PATCHES:
            module = sys.modules[module_name]
            self._set(module, attr, self.wrap(span, getattr(module, attr),
                                              observe=not span.startswith("cli.")))
        point_set = sys.modules["sigdim.sig"].PointSet
        self._set(point_set, "from_rows",
                  staticmethod(self.wrap("sig.from_rows", point_set.from_rows)))
        emb_cls = sys.modules["sigdim.embedding"].Embedding
        self._set(emb_cls, "to_json", self.wrap("embedding.to_json", emb_cls.to_json, False))
        cli = sys.modules["sigdim.cli"]
        self._set(cli, "json", _JsonProxy(self.wrap("cli.json_dumps", json.dumps),
                                          self.wrap("cli.json_loads", json.loads, False)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- derived figures ----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span time per name minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, _, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[sid]
        return dict(out)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def per_layer(self, graphs: int, fuzz_instances: int,
                  alloc: dict[str, float]) -> dict[str, float]:
        """The per-layer metrics; times and work counts are per graph processed."""
        total, own = self.totals(), self.self_times()
        count = Counter(s[0] for s in self.spans)
        sizes = _observed_sizes(self.observed)

        def per_graph(x: float) -> float:
            return x / graphs

        sig_children = sum(total.get(f"sig.{f}", 0.0)
                           for f in ("from_rows", "compute_sig", "compute_radii"))
        m: dict[str, float] = {
            "embedding.self_s": per_graph(own.get("embedding.embed", 0.0)),
            "verify.inequality_self_s": per_graph(
                total.get("verify.verify", 0.0) - sig_children),
            "embedding.alloc_peak_kib": alloc["embed"],
            "verify.alloc_peak_kib": alloc["verify"],
        }
        for metric, unit in PER_LAYER.items():
            span = metric[:-2]
            if unit == "s" and metric not in m and span in total:
                m[metric] = per_graph(total[span])
        m.update(sizes["mean"])
        m.update((k, per_graph(v)) for k, v in sizes["sum"].items())
        # The fuzz loop is the command that embeds twice per instance, so on a
        # workload that runs it the ratio is taken over its instances only.
        if fuzz_instances:
            fuzz_spans = {i for i, s in enumerate(self.spans) if s[0] == "cli.fuzz"}
            inside = sum(1 for s in self.spans
                         if s[0] == "embedding.embed" and s[1] in fuzz_spans)
            m["cli.embed_calls_per_instance"] = inside / fuzz_instances
            m["cli.fuzz_self_s"] = own.get("cli.fuzz", 0.0) / fuzz_instances
        else:
            m["cli.embed_calls_per_instance"] = count["embedding.embed"] / count["cli.embed"]
            m["cli.fuzz_self_s"] = per_graph(sum(own.get(c, 0.0) for c in COMMANDS))
        for metric in PER_LAYER:
            m.setdefault(metric, 0.0)
        return m

    def census(self, class_steps: dict[str, list[int]]) -> dict[str, Any]:
        """Picks per class and per step over the distinct graphs picked."""
        by_class: Counter = Counter()
        by_step: Counter = Counter()
        seen = set()
        for name, args, result in self.observed:
            if name != "picking.pick_vertices":
                continue
            key = (args[0].n, args[0].edges)
            if key in seen:
                continue
            seen.add(key)
            for p in result.picks:
                by_class[p.cls.value] += 1
                by_step[p.step] += 1
        steps = sorted({s for ss in class_steps.values() for s in ss})
        return {
            "graphs": len(seen),
            "picks_by_class": {c: by_class[c] for c in class_steps},
            "picks_by_step": {str(s): by_step[s] for s in steps},
            "classes_never_reached": [c for c in class_steps if not by_class[c]],
            "steps_never_reached": [s for s in steps if not by_step[s]],
        }

    def dump_spans(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for sid, (name, parent, start, end, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "op": op, "start": start - origin,
                                     "end": end - origin}) + "\n")


def _ineq_domains(g, emb) -> list[int]:
    """Pairs each inequality family (1)-(5) ranges over, summed over blocks."""
    index = emb.picks.index_of()
    leaf_center = emb.factor.leaf_center
    blocks = emb.picks.count
    f1 = blocks * sum(len(s) for s in emb.pseudo.n1.values())
    f2 = f3 = f4 = 0
    for p in emb.picks.picks:
        k = p.k
        for u in p.vertices:
            cu = leaf_center.get(u)
            for v in range(g.n):
                if v == u:
                    continue
                iv = index[v]
                share = cu is not None and cu == leaf_center.get(v)
                non_edge = not g.has_edge(u, v)
                if iv <= k:
                    f2 += 1
                    f3 += non_edge and share
                if iv >= k:
                    f4 += non_edge and not share
    return [f1, f2, f3, f4, blocks * len(g.edges)]


def _observed_sizes(observed) -> dict[str, dict[str, float]]:
    """Work counts summed over the pass ("sum"), shape counts per call ("mean")."""
    sums: dict[str, float] = defaultdict(float)
    values: dict[str, list[float]] = defaultdict(list)
    for name, args, result in observed:
        if name == "matching.maximum_matching":
            values["matching.size"].append(result.size())
        elif name == "factor.star_triangle_factor":
            values["factor.stars"].append(len(result.stars))
            values["factor.leaves"].append(sum(len(s) for s in result.stars.values()))
            values["factor.triangles"].append(len(result.triangles))
        elif name == "picking.pick_vertices":
            values["picking.picks"].append(result.count)
        elif name == "embedding.embed":
            values["embedding.dims"].append(result.d)
        elif name in ("sig.compute_sig", "sig.compute_radii"):
            n = len(args[0].points)
            sums["sig.pairs"] += n * (n - 1) // 2
            sums["sig.coord_diffs"] += n * (n - 1) // 2 * args[0].d
        elif name == "verify.verify":
            g, emb = args[0], args[1]
            for i, c in enumerate(_ineq_domains(g, emb), start=1):
                sums[f"verify.ineq_evals.f{i}"] += c
            sums["verify.ineq_failures"] += len(result.inequality_failures)
        elif name == "cli.json_dumps":
            sums["cli.json_bytes"] += len(result)
    return {"sum": sums, "mean": {k: sum(v) / len(v) for k, v in values.items()}}


def alloc_peaks(embed: Callable, verify: Callable, graph) -> dict[str, float]:
    """Peak KiB tracemalloc sees above the starting level in embed and verify."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        emb = embed(graph)
        embed_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        verify(graph, emb)
        verify_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"embed": embed_peak / 1024, "verify": verify_peak / 1024}

