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
from outside input, makes both finer).  Every check is a threshold question,
so none needs rho itself.  The scheduled radii are a claim that
``compute_radii`` confirms with ``sig.ThresholdKernel``; the SIG is one kernel
sweep at r(u) + r(v).  The exact distance table is built only when a claim
fails, lies off the grid or below 1, or when the point set is small.  A
block's distance never exceeds rho, so rho(u,nu) <= r(u), or rho(u,v) < r(u)
+ r(v) on an edge, clears that pair of (1) or (5) in every block; only the
other pairs are re-evaluated, block by block, as a full per-block scan orders
them.  For (2)-(4), ``_Screen`` runs the kernel over the columns, so one
subtraction holds u against every v, and decides each family with vertex
masks: picked before, at or after k, non-neighbours, and for (3) u's star
mates.  Only a u it flags gets the exact per-pair pass, so the failure list
is that of a full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import sub
from typing import Any

from .embedding import Embedding, block_dims, dimension_bound
from .graphs import Graph
from .rationals import rat_to_json, to_grid
from .sig import ThresholdKernel, compute_radii, compute_sig


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
        points, scheduled = emb.points, emb.schedule.rv
        self.scale = lcm(points.scale, *(x.denominator for x in scheduled.values()))
        up = self.scale // points.scale
        n = g.n
        self.cols = list(zip(*points.grid))
        if up != 1:  # scheduled radii off the coordinate grid
            self.cols = [[x * up for x in col] for col in self.cols]
        self.dims = block_dims(emb.picks)
        self.rv = to_grid((scheduled[v] for v in range(n)), self.scale)
        self.index = emb.picks.index_of()
        self.center = [emb.factor.leaf_center.get(v) for v in range(n)]
        self.screen = None if points.small else _Screen(self, g, emb)
        rv, n1 = self.rv, emb.pseudo.n1
        # A block's distance never exceeds rho, so only these pairs can fail
        # (1) or (5) in some block.
        if up == 1 and min(rv) >= 0 and not points.small:
            self.far_pseudo, self.long_edges = [], []
            for u, (a, closer) in enumerate(zip(g.adj, points.closer(rv))):
                within, closer = set(points.kernel.near(u, n1[u], rv[u] + 1)), set(closer)
                self.far_pseudo.extend((u, v) for v in n1[u] if v not in within)
                self.long_edges.extend((u, v) for v in a if v > u and v not in closer)
        else:  # a small table, or radii off the grid or below 0: the radius check built it
            table = points.distances
            self.far_pseudo = [(u, v) for u in range(n) for v in n1[u] if table[u][v] * up > rv[u]]
            self.long_edges = [(u, v) for u, a in enumerate(g.adj) for v in a
                               if v > u and table[u][v] * up >= rv[u] + rv[v]]


class _Screen:
    """Block distances from one u to every v at once, against (2), (3) and (4).

    ``sig.ThresholdKernel`` over the columns: its row j is column j packed
    over all points, field v holding c_j[v].  Taking a row from u's value
    spread over every field, plus the threshold, leaves the kernel's test of
    |c_j[u] - c_j[v]| < t in the fields of v; radii fold in field by field.
    Thresholds and radii are clamped, which can only flag more pairs: the
    screen picks the u that the exact per-pair pass must visit, nothing more.
    """

    def __init__(self, grid: _Grid, g: Graph, emb: Embedding):
        n, self.rv, self.dims = g.n, grid.rv, grid.dims
        self.kernel = kernel = ThresholdKernel(grid.cols)
        self.by_rv = kernel.pack([kernel.clamp(r) for r in grid.rv] * 2)  # r(v) in both fields of v
        # Top bits of the vertices picked at k, at k or before, and at k or after.
        picked = [kernel.spread(sum(1 << v for v in p.vertices)) for p in emb.picks.picks]
        every = (1 << n) - 1
        self.early, top = list(accumulate(picked)), kernel.spread(every)
        self.late = [top - e + p for e, p in zip(self.early, picked)]
        self.apart = [kernel.spread(every & ~mask & ~(1 << u)) for u, mask in enumerate(g.masks)]
        self.mates = [0] * n  # top bits of the leaves of u's star, for a leaf u
        for leaves in emb.factor.stars.values():
            star = kernel.spread(sum(1 << v for v in leaves))
            for v in leaves:
                self.mates[v] = star

    def within(self, rows: list[int], values: list[int], t: int, fold: bool) -> int:
        """Top bit of field v set iff |values[j] - c_j[v]| < t (+ r(v) if fold) for all j."""
        kernel = self.kernel
        out, base = kernel.top, kernel.half - 1 + kernel.clamp(t) + kernel.m
        for row, a in zip(rows, values):  # m + a spread over fields v, m - a over fields n + v
            out &= (base - a) * kernel.ones + 2 * a * kernel.lo - (row - self.by_rv if fold else row)
        return kernel.both(out)

    def may_fail(self, k: int, u: int, cols: list) -> bool:
        """Whether some v may fail (2), (3) or (4) against u, picked at k.

        (3) and (4) share the test |c(u) - c(v)| < r(u) + r(v) on non-edges:
        (4) for every v picked at k or after, (3) for u's star mates picked at
        k or before.
        """
        t = self.rv[u]
        rows, values = [self.kernel.rows[j] for j in self.dims[k]], [c[u] for c in cols]
        two = self.within(rows, values, t, False) | self.within(rows, values, 0, True)
        return bool(two & (self.early[k] - self.kernel.spread(1 << u))
                    or self.within(rows, values, t, True) & self.apart[u]
                    & (self.late[k] | self.early[k] & self.mates[u]))


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
        ru, cu, mask = rv[u], center[u], g.masks[u]
        if grid.screen and not grid.screen.may_fail(k, u, cols):
            continue
        diffs = [map(abs, map(sub, c, repeat(c[u]))) for c in cols]
        for v, lhs in enumerate(diffs[0] if len(diffs) == 1 else map(max, *diffs)):
            if v == u:
                continue
            both, apart = ru + rv[v], not mask >> v & 1
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

    rv = [emb.schedule.rv[v] for v in range(g.n)]
    try:
        radii = compute_radii(emb.points, rv)
        realized = compute_sig(emb.points, radii)
    except ValueError as exc:
        diagnostics["degenerate"] = str(exc)
        return VerificationReport(False, False, False, [], diagnostics)

    sig_equal = realized.edges == g.edges
    if not sig_equal:
        diagnostics["missing_edges"] = [list(e) for e in sorted(g.edges - realized.edges)[:10]]
        diagnostics["extra_edges"] = [list(e) for e in sorted(realized.edges - g.edges)[:10]]

    mismatches = [(v, radii[v], rv[v]) for v in range(g.n) if radii[v] != rv[v]]
    radius_agree = not mismatches
    if mismatches:
        diagnostics["radius_mismatches"] = [
            {"vertex": v, "actual": rat_to_json(a), "scheduled": rat_to_json(s)}
            for v, a, s in mismatches[:10]
        ]

    general, refined = dimension_bound(g.n)
    bound_ok = emb.d <= general
    if not bound_ok:
        diagnostics["dimension"] = {"d": emb.d, "general": general, "refined": refined}

    grid = _Grid(g, emb)
    failures: list[InequalityFailure] = []
    for k in range(emb.picks.count):
        failures.extend(check_inequalities(g, emb, k, grid))

    return VerificationReport(sig_equal, radius_agree, bound_ok, failures, diagnostics)
