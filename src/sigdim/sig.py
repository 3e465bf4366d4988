"""Sphere-of-influence graphs over exact rational point sets (sup-norm).

Each point gets an open ball whose radius is its exact nearest-neighbor
distance; two points are joined iff their balls intersect, i.e. iff
rho(u,v) < r_u + r_v with rho the coordinatewise max metric.  The comparison
is strict and exact: the constructions verified here place non-edges exactly
on the boundary rho = r_u + r_v, where floating point would misclassify.

``oracle_embed_2ia`` is the unconditional n-dimensional realization taking
point v to row v of 2I + A; it is the reference oracle for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub

from .graphs import Graph
from .rationals import common_scale, rat_to_json, to_grid

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class PointSet:
    """Point i is ``grid[i] / scale``; scale is a common denominator, not always the least."""

    d: int
    grid: tuple[tuple[int, ...], ...]
    scale: int

    @staticmethod
    def from_rows(rows) -> PointSet:
        """Rows of ints or Fractions onto the grid of their common denominator."""
        if len(rows) < 2:
            raise ValueError("need at least two points")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"ragged point set, widths {sorted(widths)}")
        scale = common_scale(x for r in rows for x in r)
        return PointSet(widths.pop(), tuple(tuple(to_grid(r, scale)) for r in rows), scale)

    @property
    def points(self) -> tuple[Point, ...]:
        """The points as exact rationals, derived from the grid."""
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.grid)

    def to_json(self) -> dict:
        rows = self.grid if self.scale == 1 else self.points
        return {"d": self.d, "coords": [[rat_to_json(x) for x in p] for p in rows]}

    @cached_property
    def distances(self) -> list[list[int]]:
        """Symmetric matrix of grid sup-distances, each pair computed once; read-only."""
        rows = self.grid
        table: list[list[int]] = []
        for u, a in enumerate(rows):
            table.append([t[u] for t in table] + [0] + [_dist(a, b) for b in rows[u + 1:]])
        return table


def _dist(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return max(map(abs, map(sub, a, b)))


def _grid_radii(ps: PointSet) -> list[int]:
    """Nearest-neighbor distance per point on the grid; coincident points raise."""
    table = ps.distances
    radius = [min(row[:u] + row[u + 1:]) for u, row in enumerate(table)]
    if 0 in radius:
        u = radius.index(0)
        raise ValueError(f"duplicate points {u} and {table[u].index(0, u + 1)}")
    return radius


def compute_radii(ps: PointSet) -> list[Fraction]:
    """Exact nearest-neighbor sup-norm distance per point."""
    return [Fraction(b, ps.scale) for b in _grid_radii(ps)]


def compute_sig(ps: PointSet) -> Graph:
    """Edge uv iff rho(u,v) < r_u + r_v, decided in exact integer arithmetic."""
    radius = _grid_radii(ps)
    edges = [(u, v) for u, row in enumerate(ps.distances)
             for v in range(u + 1, len(row)) if row[v] < radius[u] + radius[v]]
    return Graph(len(radius), frozenset(edges))


def oracle_embed_2ia(g: Graph) -> PointSet:
    """Rows of 2I + A: coordinate v is 2 at v, 1 at neighbors, 0 elsewhere."""
    g.require_embeddable()
    rows = []
    for v in range(g.n):
        row = [0] * g.n
        row[v] = 2
        for u in g.neighbors(v):
            row[u] = 1
        rows.append(row)
    return PointSet.from_rows(rows)
