"""Certification of an embedding against its source graph.

Four independent checks, all in exact arithmetic:

  * the recomputed sphere-of-influence graph equals the input graph;
  * every nearest-neighbor radius equals the scheduled r(v);
  * the dimension respects the n-based bound;
  * the per-block inequality suite (1)-(5) holds on its quantifier domains:
      (1) |c_k(u) - c_k(nu)| <= r(u)            for pseudo-neighbors nu,
      (2) |c_k(v) - c_k(u)| >= max(r(u), r(v))  for u in P_k, v picked <= k,
      (3) |c_k(v) - c_k(u)| >= r(u) + r(v)      non-edges inside one star,
                                                 v picked <= k,
      (4) same bound for non-edges not sharing a star, v picked >= k,
      (5) |c_k(v) - c_k(u)| < r(u) + r(v)       for every edge.

The suite is diagnostic: taken over all k it implies the first two checks,
but the direct recomputation is the authoritative criterion.  The verifier
never consults the embedder's case decisions, only the coordinate matrix,
the graph, and the pipeline trace (picks, factor, schedule).

Radii join the coordinates on the point set's integer grid (a radius off it,
from outside input, makes both finer).  Each sup-distance rho is computed once,
in the point set's distance table, which the SIG and the radii both read.  A
block's distance never exceeds rho, so rho(u,nu) <= r(u), or rho(u,v) < r(u) +
r(v) on an edge, clears that pair of (1) or (5) in every block; only the other
pairs are re-evaluated, block by block, as a full per-block scan orders them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any

from .embedding import Embedding, block_dims, dimension_bound
from .graphs import Graph
from .rationals import rat_to_json, to_grid
from .sig import compute_radii, compute_sig


@dataclass(frozen=True)
class InequalityFailure:
    k: int
    ineq: int
    pair: tuple[int, int]
    lhs: Fraction
    rhs: Fraction

    def to_json(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "inequality": self.ineq,
            "pair": list(self.pair),
            "lhs": rat_to_json(self.lhs),
            "rhs": rat_to_json(self.rhs),
        }


@dataclass
class VerificationReport:
    sig_equal: bool
    radius_agree: bool
    bound_ok: bool
    inequality_failures: list[InequalityFailure]
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        ok = (self.sig_equal and self.radius_agree and self.bound_ok
              and not self.inequality_failures)
        return "pass" if ok else "fail"

    def to_json(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "sig_equal": self.sig_equal,
            "radius_agree": self.radius_agree,
            "bound_ok": self.bound_ok,
            "inequality_failures": [f.to_json() for f in self.inequality_failures],
            "diagnostics": self.diagnostics,
        }


class _Grid:
    """What the suite reads for every block, on one integer scale, built once."""

    def __init__(self, g: Graph, emb: Embedding):
        points, rv = emb.points, emb.schedule.rv
        self.scale = lcm(points.scale, *(x.denominator for x in rv.values()))
        up = self.scale // points.scale
        grid, table = points.grid, points.distances
        if up != 1:  # scheduled radii off the coordinate grid
            grid, table = ([[x * up for x in row] for row in mat] for mat in (grid, table))
        n = g.n
        self.cols = list(zip(*grid))
        self.dims = block_dims(emb.picks)
        self.rv = to_grid((rv[v] for v in range(n)), self.scale)
        self.index = emb.picks.index_of()
        self.center = [emb.factor.leaf_center.get(v) for v in range(n)]
        self.adj = [set(a) for a in g.adj]
        self.far_pseudo = [(u, nu) for u in range(n) for nu in emb.pseudo.n1[u]
                           if table[u][nu] > self.rv[u]]
        self.long_edges = [(u, v) for u, v in g.sorted_edges()
                           if table[u][v] >= self.rv[u] + self.rv[v]]


def check_inequalities(g: Graph, emb: Embedding, k: int,
                       grid: _Grid | None = None) -> list[InequalityFailure]:
    """Evaluate families (1)-(5) for block k; returns one entry per violation."""
    if grid is None:
        grid = _Grid(g, emb)
    cols = [grid.cols[j] for j in grid.dims[k]]
    rv, index, center = grid.rv, grid.index, grid.center
    fails: list[InequalityFailure] = []

    def record(ineq: int, u: int, v: int, lhs: int, rhs: int) -> None:
        fails.append(InequalityFailure(k, ineq, (u, v), Fraction(lhs, grid.scale),
                                       Fraction(rhs, grid.scale)))

    def block_dist(u: int, v: int) -> int:
        return max(abs(c[u] - c[v]) for c in cols)

    for u, nu in grid.far_pseudo:
        lhs = block_dist(u, nu)
        if lhs > rv[u]:
            record(1, u, nu, lhs, rv[u])

    for u in emb.picks.picks[k].vertices:
        ru, cu, adj = rv[u], center[u], grid.adj[u]
        diffs = [[abs(x - c[u]) for x in c] for c in cols]
        for v, lhs in enumerate(diffs[0] if len(diffs) == 1 else map(max, *diffs)):
            if v == u:
                continue
            both, apart = ru + rv[v], v not in adj
            share = cu is not None and cu == center[v]
            if index[v] <= k:
                if lhs < max(ru, rv[v]):
                    record(2, u, v, lhs, max(ru, rv[v]))
                if apart and share and lhs < both:
                    record(3, u, v, lhs, both)
            if index[v] >= k and apart and not share and lhs < both:
                record(4, u, v, lhs, both)

    for u, v in grid.long_edges:
        lhs = block_dist(u, v)
        if lhs >= rv[u] + rv[v]:
            record(5, u, v, lhs, rv[u] + rv[v])
    return fails


def verify(g: Graph, emb: Embedding) -> VerificationReport:
    if emb.graph.n != g.n:
        raise ValueError(f"embedding is for n={emb.graph.n}, graph has n={g.n}")

    diagnostics: dict[str, Any] = {}

    try:
        realized = compute_sig(emb.points)
        radii = compute_radii(emb.points)
    except ValueError as exc:
        diagnostics["degenerate"] = str(exc)
        return VerificationReport(False, False, False, [], diagnostics)

    sig_equal = realized.edges == g.edges
    if not sig_equal:
        diagnostics["missing_edges"] = [list(e) for e in sorted(g.edges - realized.edges)[:10]]
        diagnostics["extra_edges"] = [list(e) for e in sorted(realized.edges - g.edges)[:10]]

    mismatches = [(v, radii[v], emb.schedule.rv[v])
                  for v in range(g.n) if radii[v] != emb.schedule.rv[v]]
    radius_agree = not mismatches
    if mismatches:
        diagnostics["radius_mismatches"] = [
            {"vertex": v, "actual": rat_to_json(a), "scheduled": rat_to_json(s)}
            for v, a, s in mismatches[:10]
        ]

    general, refined = dimension_bound(g.n)
    bound_ok = emb.d <= general and (refined is None or emb.d <= refined)
    if not bound_ok:
        diagnostics["dimension"] = {"d": emb.d, "general": general, "refined": refined}

    grid = _Grid(g, emb)
    failures: list[InequalityFailure] = []
    for k in range(emb.picks.count):
        failures.extend(check_inequalities(g, emb, k, grid))

    return VerificationReport(sig_equal, radius_agree, bound_ok, failures, diagnostics)
