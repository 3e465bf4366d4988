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

The suite is the certificate.  Every scheduled radius is positive (``_Grid``
raises otherwise), so every grid radius is at least 1.  Take the suite over
all k, with every u holding a pseudo-neighbor nu != u, and the blocks covering
every coordinate, so that a bound in every block is a bound on rho:

  * radii: (2) covers every pair from its later-picked end, so rho(u,v) >=
    max(r(u), r(v)) >= 1; (1) then attains r(u) at nu;
  * non-edges: (3) covers a non-edge inside one star from its later-picked
    end, and (4) any other from its earlier-picked end: rho >= r(u) + r(v);
  * edges: (5) gives rho < r(u) + r(v).

A clean suite under those conditions thus certifies the first two checks, and
``verify`` recomputes them only otherwise; that path builds every failing
report.  The verifier never consults the embedder's case decisions, only the
coordinate matrix, the graph, and the pipeline trace (picks, factor, schedule).

Radii join the coordinates on one integer grid (a radius off the point set's
grid, from outside input, puts a copy of it on a finer one, made once); only
the report holds Fractions.  Every check is a threshold question, so none
needs rho itself.  When recomputed, the SIG is one ``sig.ThresholdKernel``
sweep at the scheduled radii r(u) + r(v), and they are the radii iff every u
has a neighbor in it at distance r(u) and none closer (``_recompute``).  The
kernel serves point sets of every size, and is verify's only distance path:
the table of exact distances is built only when that rule fails, to find the
true radii.  A block's distance never exceeds rho, so rho(u,nu) <= r(u), or
rho(u,v) < r(u) + r(v) on an edge, clears that pair of (1) or (5) in every
block; one kernel test per pseudo-neighbor and per edge finds the other
pairs, which are re-evaluated, block by block, as a full per-block scan
orders them.  ``_Grid`` builds the (2)-(4) domains once for each u picked at
k, from the pick order ``PickSequence.earlier`` and the star masks
``StarTriangleFactor.mates``: (2) the v picked at or before k; (3) u's star
mates picked at or before k, and (4) the v outside u's star picked at or
after k, both among u's non-neighbours.  A star mate picked after k is in no
domain.  The domains are spread over the fields of the column kernel
(``ThresholdKernel.within``), where one subtraction holds u against every v;
the fields left set in a domain are that family's failing v
(``ThresholdKernel.gather``), and only those pairs get a block distance, so
the failure list is that of a full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any

from .embedding import Embedding, block_dims, dimension_bound
from .graphs import Graph, members
from .rationals import rat_to_json, to_grid
from .sig import PointSet, ThresholdKernel, compute_radii, compute_sig


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
    """What the suite reads for every block, built once: ``points`` and ``rv`` share a grid."""

    def __init__(self, g: Graph, emb: Embedding):
        points, scheduled, n = emb.points, emb.schedule.rv, g.n
        scale = lcm(points.scale, *(x.denominator for x in scheduled.values()))
        if scale != points.scale:
            points = PointSet(points.d, tuple(tuple(to_grid(p, scale)) for p in points.points), scale)
        self.points, self.cols = points, list(zip(*points.grid))
        self.dims = block_dims(emb.picks)
        self.rv = rv = to_grid((scheduled[v] for v in range(n)), scale)
        if low := [v for v, r in enumerate(rv) if r < 1]:
            raise ValueError(f"scheduled radius of vertex {low[0]} is not positive")
        # Field v of the column kernel's row j holds c_j[v], so one subtraction
        # holds u against every v in a block (``ThresholdKernel.within``).
        self.kernel = kernel = ThresholdKernel(self.cols, points.bound)
        self.by_rv = kernel.fields(rv)
        # domains[u] = (f2, f3 | f4, f3): the v that (2) reads for u, and the v
        # that (3) or (4) read, as top bits; f3, a vertex mask, names the family.
        earlier, mates, top = emb.picks.earlier, emb.factor.mates, (1 << n) - 1
        self.domains = [(0, 0, 0)] * n
        for k, p in enumerate(emb.picks.picks):
            for u in p.vertices:
                star, apart = mates.get(u, 0), top & ~(g.masks[u] | 1 << u)
                f3, f4 = apart & earlier[k + 1] & star, apart & ~(earlier[k] | star)
                self.domains[u] = (kernel.spread(earlier[k + 1] & ~(1 << u)),
                                   kernel.spread(f3 | f4), f3)
        n1 = list(map(members, emb.pseudo.near))  # N(u), in vertex order
        # A block's distance never exceeds rho, so only these pairs can fail
        # (1) or (5) in some block: one kernel test per pseudo-neighbor and
        # per edge finds them, no C(n, 2) sweep.
        near, rows = points.kernel.near, points.kernel.lowered(rv)
        self.far_pseudo, self.long_edges = [], []
        for u in range(n):
            edges = members(g.masks[u] & -(2 << u))
            within, close = set(near(u, n1[u], rv[u] + 1)), set(near(u, edges, rv[u], rows))
            self.far_pseudo.extend((u, v) for v in n1[u] if v not in within)
            self.long_edges.extend((u, v) for v in edges if v not in close)


def check_inequalities(g: Graph, emb: Embedding, k: int,
                       grid: _Grid | None = None) -> list[InequalityFailure]:
    """Evaluate families (1)-(5) for block k; returns one entry per violation.

    (2) reads every v picked at k or before.  (3) and (4) share the test
    |c(u) - c(v)| < r(u) + r(v) on non-neighbours: (3) reads u's star mates
    picked at k or before, (4) the v outside u's star picked at k or after.
    Neither reads a star mate picked after k.  The column kernel decides all
    three for one u against every v, and its fields are the failing v.
    """
    if grid is None:
        grid = _Grid(g, emb)
    cols, rows = [grid.cols[j] for j in grid.dims[k]], [grid.kernel.rows[j] for j in grid.dims[k]]
    rv, by_rv, within, gather = grid.rv, grid.by_rv, grid.kernel.within, grid.kernel.gather
    fails: list[InequalityFailure] = []

    def record(ineq: int, u: int, v: int, lhs: int, rhs: int) -> None:
        fails.append(InequalityFailure(k, ineq, (u, v), Fraction(lhs, grid.points.scale),
                                       Fraction(rhs, grid.points.scale)))

    def block_dist(u: int, v: int) -> int:
        return max(abs(c[u] - c[v]) for c in cols)

    for u, nu in grid.far_pseudo:
        lhs = block_dist(u, nu)
        if lhs > rv[u]:
            record(1, u, nu, lhs, rv[u])

    for u in emb.picks.picks[k].vertices:
        ru, values, (f2, f34, f3) = rv[u], [c[u] for c in cols], grid.domains[u]
        two = gather((within(rows, values, ru) | within(rows, values, 0, by_rv)) & f2)
        apart = gather(within(rows, values, ru, by_rv) & f34)
        for v in members(two | apart):
            lhs = block_dist(u, v)
            if two >> v & 1:
                record(2, u, v, lhs, max(ru, rv[v]))
            if apart >> v & 1:
                record(3 if f3 >> v & 1 else 4, u, v, lhs, ru + rv[v])

    for u, v in grid.long_edges:
        lhs = block_dist(u, v)
        if lhs >= rv[u] + rv[v]:
            record(5, u, v, lhs, rv[u] + rv[v])
    return fails


def _recompute(points: PointSet, rv: list[int]) -> tuple[list[int], Graph]:
    """The radii of ``points`` and their SIG, trying the grid radii ``rv`` first.

    Take rv >= 0 and w a nearest neighbor of u, and let each u pass both
    tests: some v joined to u in the SIG at rv has rho(u,v) <= rv[u], and
    none has rho(u,v) < rv[u].  A w with rho(u,w) < rv[u] <= rv[u] + rv[w]
    would be joined and fail the second, so rho(u,w) = rv[u].  A coincident
    pair then has both claims 0 and is not joined, against the first test.
    So rv are the radii iff each u passes both tests, which exact radii do.
    Otherwise the radii come from the exact table.
    """
    realized, near = compute_sig(points, rv), points.kernel.near
    if all((within := near(u, a, r + 1)) and not near(u, within, r)
           for u, (a, r) in enumerate(zip(map(members, realized.masks), rv))):
        return list(rv), realized
    radii = compute_radii(points)
    return radii, compute_sig(points, radii)


def verify(g: Graph, emb: Embedding) -> VerificationReport:
    if emb.graph.n != g.n:
        raise ValueError(f"embedding is for n={emb.graph.n}, graph has n={g.n}")

    diagnostics: dict[str, Any] = {}
    grid = _Grid(g, emb)
    failures = [f for k in range(emb.picks.count) for f in check_inequalities(g, emb, k, grid)]
    sig_equal = radius_agree = True  # what a clean suite implies, by the module docstring
    if (failures or grid.dims[-1].stop != emb.d
            or not all(x & ~(1 << u) for u, x in enumerate(emb.pseudo.near))):
        try:
            radii, realized = _recompute(grid.points, grid.rv)
        except ValueError as exc:
            diagnostics["degenerate"] = str(exc)
            return VerificationReport(False, False, False, [], diagnostics)

        sig_equal = realized.edges == g.edges
        if not sig_equal:
            diagnostics["missing_edges"] = [list(e) for e in sorted(g.edges - realized.edges)[:10]]
            diagnostics["extra_edges"] = [list(e) for e in sorted(realized.edges - g.edges)[:10]]

        mismatches = [v for v in range(g.n) if radii[v] != grid.rv[v]]
        radius_agree = not mismatches
        if mismatches:
            diagnostics["radius_mismatches"] = [
                {"vertex": v, "actual": rat_to_json(Fraction(radii[v], grid.points.scale)),
                 "scheduled": rat_to_json(emb.schedule.rv[v])}
                for v in mismatches[:10]
            ]

    general, refined = dimension_bound(g.n)
    bound_ok = emb.d <= general
    if not bound_ok:
        diagnostics["dimension"] = {"d": emb.d, "general": general, "refined": refined}

    return VerificationReport(sig_equal, radius_agree, bound_ok, failures, diagnostics)
