"""Sphere-of-influence graphs over exact rational point sets (sup-norm).

Each point gets an open ball whose radius is its exact nearest-neighbor
distance; two points are joined iff their balls intersect, i.e. iff
rho(u,v) < r_u + r_v with rho the coordinatewise max metric.  The comparison
is strict and exact: the constructions verified here place non-edges exactly
on the boundary rho = r_u + r_v, where floating point would misclassify.

An edge is a threshold question on grid integers, radii included, so the
SIG needs no rho itself.  ``ThresholdKernel`` decides rho(u,v) < t on rows packed
into one int each, at any size; ``compute_sig`` asks it once per pair, at
r_u + r_v for given radii >= 0.  The exact distance table (``PointSet.distances``)
has two readers: ``compute_radii``, and ``compute_sig`` without radii, which
sweeps the table at the radii it finds there.  ``verify`` checks scheduled
radii, all positive, on the SIG swept at them, so it builds the table only
when they are not the radii; when its inequality suite passes it makes no
sweep at all.  It tests its pseudo-neighbor and edge pairs one by one, and
runs the same kernel over the columns of a point set (``within``): a block's
distances from one point to all, whose failing fields ``gather`` reads off.

``oracle_embed_2ia`` is the unconditional n-dimensional realization taking
point v to row v of 2I + A; it is the reference oracle for everything else.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, repeat
from operator import add, lshift, sub
from typing import Iterable

from .graphs import Graph, members
from .rationals import common_scale, rat_from_json, rat_to_json, to_grid

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class PointSet:
    """Point i is ``grid[i] / scale``; scale is a common denominator, not always the least."""

    d: int
    grid: tuple[tuple[int, ...], ...]
    scale: int

    @staticmethod
    def from_rows(rows) -> PointSet:
        """Rows of ints, Fractions or JSON "p/q" strings on their common denominator's grid.

        Rows of ints alone are the scale-1 grid as they stand.  A float or a
        bool is not a rational, even when it equals one.
        """
        types = set(map(type, chain.from_iterable(rows)))
        if not types <= {int, Fraction}:
            rows = [[x if type(x) is Fraction else rat_from_json(x) for x in r] for r in rows]
        if len(rows) < 2:
            raise ValueError("need at least two points")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"ragged point set, widths {sorted(widths)}")
        d = widths.pop()
        if d == 0:
            raise ValueError("points need at least one coordinate")
        if types == {int}:
            return PointSet(d, tuple(map(tuple, rows)), 1)
        scale = common_scale(x for r in rows for x in r)
        return PointSet(d, tuple(tuple(to_grid(r, scale)) for r in rows), scale)

    @property
    def points(self) -> tuple[Point, ...]:
        """The points as exact rationals, derived from the grid."""
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.grid)

    def to_json(self) -> dict:
        if self.scale == 1:  # grid integers are their own JSON
            return {"d": self.d, "coords": list(map(list, self.grid))}
        return {"d": self.d, "coords": [[rat_to_json(x) for x in p] for p in self.points]}

    @cached_property
    def distances(self) -> list[list[int]]:
        """Symmetric matrix of grid sup-distances, each pair computed once; read-only."""
        rows = self.grid
        table: list[list[int]] = []
        for u, a in enumerate(rows):
            table.append([t[u] for t in table] + [0] + [_dist(a, b) for b in rows[u + 1:]])
        return table

    @cached_property
    def bound(self) -> int:
        """max |x| over the grid, found once for the row and the column kernel."""
        return max(max(map(max, self.grid)), -min(map(min, self.grid)))

    @cached_property
    def kernel(self) -> ThresholdKernel:
        """The grid rows packed for threshold tests, built once."""
        return ThresholdKernel(self.grid, self.bound)


class ThresholdKernel:
    """Decides rho(u,v) < t for integer rows, each packed into one int.

    The packed-field format is defined here and only here.  With
    m = max |coord|, a coordinate difference d_j lies in [-2m, 2m].
    ``rows[u]`` packs m + a_j into field j and m - a_j into field d + j;
    fields are ``width`` = B bits, the smallest B with K = 2**(B-1) > 6m + 1
    (``half`` is K), and the biases cancel in a difference of two rows.  A
    threshold t is clamped into [0, 2m + 1]: below 0 the test is false as at
    0, above 2m + 1 it is true as at 2m + 1.  Then ``rows[u] + (K + t - 1) *
    ones - rows[v]`` holds K + t - 1 + d_j and K + t - 1 - d_j in the two
    fields of coordinate j.  Each lies in [0, 2**B), so no field borrows from
    the next, and |d_j| < t iff both are >= K, i.e. have their top bit set:
    one subtraction and one AND with ``top`` decide every coordinate at once;
    ``both`` reads the coordinates one by one.

    A threshold may also be split as t + s[v], with s[v] folded into row v
    (``lowered``), or into the fields of v (``fields``, for ``within``).  Both
    parts are then non-negative and clamped on their own; their sum stays
    below 4m + 3, which K > 6m + 1 leaves room for.

    The caller passes m (``PointSet.bound``), so that the row and the column
    kernel of one point set share one scan; any larger m would serve too.
    """

    def __init__(self, grid, m: int):
        self.m = m
        self.width, d = (6 * m + 1).bit_length() + 1, len(grid[0])  # bits per field: K > 6m + 1
        self.half, self.limit, self._shift = 1 << (self.width - 1), 2 * m + 1, self.width * d
        self.lo = self.pack([1] * d)  # a one in each field j < d
        self.ones = self.lo + (self.lo << self._shift)
        self.top = self.ones * self.half
        self._spread = _spread_table(self.width)
        self.rows = []
        for row in grid:
            plus = self.pack(map(add, row, repeat(m)))
            self.rows.append(plus + ((2 * m * self.lo - plus) << self._shift))

    def clamp(self, t: int) -> int:
        return min(max(t, 0), self.limit)

    def pack(self, values: Iterable[int]) -> int:
        """values[i] in field i."""
        return pack_fields(values, self.width)

    def both(self, x: int) -> int:
        """Top bit of field j < d set iff fields j and d + j of x both have theirs set."""
        return x & (x >> self._shift) & self.top

    def spread(self, mask: int) -> int:
        """Top bit of field i set for each set bit i of a mask >= 0."""
        return int.from_bytes(b"".join([self._spread[b] for b in mask.to_bytes(
            -(-mask.bit_length() // 8), "little")]), "little")

    def gather(self, x: int) -> int:
        """The mask of the fields whose top bit is set in x >= 0: the inverse of ``spread``."""
        return x and int(bin(x >> (self.width - 1))[:1:-1][::self.width][::-1], 2)

    def fields(self, s: list[int]) -> int:
        """s[v] >= 0, clamped, in both fields of v: the ``raised`` of ``within``."""
        return self.pack([self.clamp(x) for x in s] * 2)

    def within(self, rows: list[int], values: list[int], t: int, raised: int = 0) -> int:
        """Top bit of field v set iff |values[i] - rows[i][v]| < t + s[v] for every i.

        Row i holds its entry v in field v; t >= 0, and ``raised`` is ``fields(s)`` or 0.
        """
        out, sign = self.top, self.ones - 2 * self.lo  # -1 in the fields v < d, +1 above
        hi = (self.half - 1 + self.clamp(t) + self.m) * self.ones + raised
        for row, a in zip(rows, values):  # fields v, d + v: K - 1 + t + s[v] +/- (a - entry v)
            out &= hi - a * sign - row
        return self.both(out)

    def lowered(self, s: list[int]) -> list[int]:
        """The rows, row v lowered by s[v] >= 0, for thresholds t + s[v] in ``near``."""
        if min(s) < 0:
            raise ValueError("threshold parts must be non-negative")
        return [row - self.clamp(x) * self.ones for row, x in zip(self.rows, s)]

    def near(self, u: int, vs: Iterable[int], t: int, rows: list[int] | None = None) -> list[int]:
        """The v of ``vs`` with rho(u,v) < t, or < t + s[v] given rows = lowered(s), t >= 0."""
        if rows is None:
            rows = self.rows
        elif t < 0:
            raise ValueError("threshold parts must be non-negative")
        hi, top = self.rows[u] + (self.half + self.clamp(t) - 1) * self.ones, self.top
        return [v for v in vs if (hi - rows[v]) & top == top]


@cache
def _spread_table(width: int) -> tuple[bytes, ...]:
    """Entry b: top bits of the fields i < 8 with bit i of b set; one table per field width."""
    table, half = [0], 1 << (width - 1)
    for i in range(8):
        table += [x + (half << (width * i)) for x in table]
    return tuple(x.to_bytes(width, "little") for x in table)


# array typecodes by item width in bits; a later code of the same width wins.
_ARRAY_CODES = {8 * array(code).itemsize: code for code in "QLIHB"}


def pack_fields(values: Iterable[int], width: int) -> int:
    """sum(x_i << (width * i)) for values x_i in [0, 2**width), built from bytes."""
    if width in _ARRAY_CODES:  # the fields are machine words: one C-level copy
        fields = array(_ARRAY_CODES[width], values)
        if sys.byteorder == "big":
            fields.byteswap()
        return int.from_bytes(fields.tobytes(), "little")
    vals, shifts = list(values), range(0, 8 * width, width)
    # Eight fields fill a whole number of bytes, so each group packs on its own.
    return int.from_bytes(b"".join([sum(map(lshift, vals[i:i + 8], shifts)).to_bytes(width, "little")
                                    for i in range(0, len(vals), 8)]), "little")


def _dist(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return max(map(abs, map(sub, a, b)))


def compute_radii(ps: PointSet) -> list[int]:
    """Exact nearest-neighbor sup-norm distance per point, in grid units, from the exact table.

    Coincident points raise.
    """
    table = ps.distances
    radius = [min(row[:u] + row[u + 1:]) for u, row in enumerate(table)]
    if 0 in radius:
        u = radius.index(0)
        raise ValueError(f"duplicate points {u} and {table[u].index(0, u + 1)}")
    return radius


def compute_sig(ps: PointSet, radius: list[int] | None = None) -> Graph:
    """Edge uv iff rho(u,v) < r_u + r_v, decided in exact integer arithmetic.

    Given grid radii >= 0 are taken as they are and swept by the kernel, r_v
    folded into row v (a negative one raises); without them ``compute_radii``
    finds the radii in the exact table, which the sweep then reads.
    """
    n = len(ps.grid)
    if radius is None:
        radius, table = compute_radii(ps), ps.distances
        edges = [(u, v) for u, r in enumerate(radius) for v in range(u + 1, n)
                 if table[u][v] < r + radius[v]]
    else:
        near, rows = ps.kernel.near, ps.kernel.lowered(radius)
        edges = [(u, v) for u, r in enumerate(radius) for v in near(u, range(u + 1, n), r, rows)]
    return Graph(n, frozenset(edges))


def oracle_embed_2ia(g: Graph) -> PointSet:
    """Rows of 2I + A: coordinate v is 2 at v, 1 at neighbors, 0 elsewhere."""
    g.require_embeddable()
    rows = []
    for v, mask in enumerate(g.masks):
        row = [0] * g.n
        row[v] = 2
        for u in members(mask):
            row[u] = 1
        rows.append(row)
    return PointSet.from_rows(rows)
