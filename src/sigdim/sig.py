"""Sphere-of-influence graphs over exact rational point sets (sup-norm).

Each point gets an open ball whose radius is its exact nearest-neighbor
distance; two points are joined iff their balls intersect, i.e. iff
rho(u,v) < r_u + r_v with rho the coordinatewise max metric.  The comparison
is strict and exact: the constructions verified here place non-edges exactly
on the boundary rho = r_u + r_v, where floating point would misclassify.

Both are threshold questions, so neither needs rho itself.
``ThresholdKernel`` decides rho(u,v) < t on rows packed into one int each.
``compute_sig`` asks it once per pair, at r_u + r_v; ``compute_radii``,
given claimed radii, confirms them on the pairs of that same sweep.  The
exact distance table (``PointSet.distances``) is built only when radii must
be found rather than confirmed (no claim, a claim off the grid or below 1,
or a claim that fails) and for small point sets, where it is cheaper than
packing the rows.  ``verify`` runs the same kernel over the columns of a
point set, to screen a block's distances from one point to all others.

``oracle_embed_2ia`` is the unconditional n-dimensional realization taking
point v to row v of 2I + A; it is the reference oracle for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add, lshift, sub
from typing import Iterable

from .graphs import Graph
from .rationals import common_scale, rat_to_json, to_grid

Point = tuple[Fraction, ...]

# n^2 * d at or below which verification reads the exact distance table: packing
# rows for the kernel costs more there (break-even between n = 30 and 40 at p = 1/2).
SMALL_TABLE = 40_000


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
        d = widths.pop()
        if d == 0:
            raise ValueError("points need at least one coordinate")
        scale = common_scale(x for r in rows for x in r)
        return PointSet(d, tuple(tuple(to_grid(r, scale)) for r in rows), scale)

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

    @cached_property
    def kernel(self) -> ThresholdKernel:
        """The grid rows packed for threshold tests, built once."""
        return ThresholdKernel(self.grid)

    @property
    def small(self) -> bool:
        """Whether the exact table is cheaper than packing rows for the kernel."""
        return len(self.grid) ** 2 * self.d <= SMALL_TABLE

    @cached_property
    def _closer(self) -> dict[tuple[int, ...], list[list[int]]]:
        return {}

    def closer(self, radius: list[int]) -> list[list[int]]:
        """closer(r)[u]: the v > u with rho(u,v) < r_u + r_v, for grid radii r >= 0.

        One sweep per radius vector, of the exact table when it is small or
        already built and of the kernel otherwise; the result is kept, so the
        radius check, the SIG and the verifier's edge prefilter share it.
        """
        key, n = tuple(radius), len(radius)
        if key in self._closer:
            return self._closer[key]
        if self.small or "distances" in vars(self):
            table = self.distances
            found = [[v for v in range(u + 1, n) if table[u][v] < r + radius[v]]
                     for u, r in enumerate(radius)]
        else:
            rows = self.kernel.lowered(radius)
            found = [self.kernel.near(u, range(u + 1, n), r, rows) for u, r in enumerate(radius)]
        self._closer[key] = found
        return found


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
    (``lowered``).  Both parts are then non-negative and clamped on their
    own; their sum stays below 4m + 3, which K > 6m + 1 leaves room for.
    """

    def __init__(self, grid):
        self.m = m = max(max(map(abs, row), default=0) for row in grid)
        self.width, d = (6 * m + 1).bit_length() + 1, len(grid[0])  # bits per field: K > 6m + 1
        self.half, self.limit, self._shift = 1 << (self.width - 1), 2 * m + 1, self.width * d
        self.lo = self.pack([1] * d)  # a one in each field j < d
        self.ones = self.lo + (self.lo << self._shift)
        self.top = self.ones * self.half
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

    @cached_property
    def _spread(self) -> list[bytes]:
        # Entry b: top bits of the fields i < 8 with bit i of b set, in ``width`` bytes.
        table = [0]
        for i in range(8):
            table += [x + (self.half << (self.width * i)) for x in table]
        return [x.to_bytes(self.width, "little") for x in table]

    def spread(self, mask: int) -> int:
        """Top bit of field i set for each set bit i of a mask >= 0."""
        return int.from_bytes(b"".join([self._spread[b] for b in mask.to_bytes(
            -(-mask.bit_length() // 8), "little")]), "little")

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


def pack_fields(values: Iterable[int], width: int) -> int:
    """sum(x_i << (width * i)) for values x_i in [0, 2**width), built from bytes."""
    if width % 8 == 0:
        return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(width // 8),
                                           repeat("little"))), "little")
    vals, shifts = list(values), range(0, 8 * width, width)
    # Eight fields fill a whole number of bytes, so each group packs on its own.
    return int.from_bytes(b"".join([sum(map(lshift, vals[i:i + 8], shifts)).to_bytes(width, "little")
                                    for i in range(0, len(vals), 8)]), "little")


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


def _confirms(ps: PointSet, claim: list[int]) -> bool:
    """Whether claim[u] is the nearest-neighbor distance of every point u.

    For u < v let c = max(claim_u, claim_v).  rho(u,v) > c leaves both
    claims standing; otherwise rho must equal c, which witnesses every
    endpoint that claims c.  Claims are at least 1, so c < claim_u + claim_v
    and only the pairs of ``ps.closer(claim)`` need a look; a confirmed
    claim also rules out coincident points.
    """
    if min(claim) < 1:
        return False
    near, by_claim = ps.kernel.near, ps.kernel.lowered(claim)
    seen = [False] * len(claim)
    for u, vs in enumerate(ps.closer(claim)):
        cu = claim[u]
        low = [v for v in vs if claim[v] <= cu]  # c = claim_u
        high = [v for v in vs if claim[v] > cu]  # c = claim_v
        at_u, at_v = near(u, low, cu + 1), near(u, high, 1, by_claim)
        if near(u, at_u, cu) or near(u, at_v, 0, by_claim):
            return False  # rho below the larger claim
        seen[u] = seen[u] or bool(at_u)
        for v in at_v + [v for v in at_u if claim[v] == cu]:
            seen[v] = True
    return all(seen)


def compute_radii(ps: PointSet, claim: list[Fraction] | None = None) -> list[Fraction]:
    """Exact nearest-neighbor sup-norm distance per point.

    ``claim`` holds expected radii (rationals).  When they lie on the point
    set's grid and the kernel confirms them, they are the answer and no
    distance is computed; otherwise the radii come from the exact table.
    """
    radius = None
    if claim is not None and not ps.small and all(ps.scale % x.denominator == 0 for x in claim):
        radius = to_grid(claim, ps.scale)
    if radius is None or not _confirms(ps, radius):
        radius = _grid_radii(ps)
    return [Fraction(b, ps.scale) for b in radius]


def compute_sig(ps: PointSet, radii: list[Fraction] | None = None) -> Graph:
    """Edge uv iff rho(u,v) < r_u + r_v, decided in exact integer arithmetic.

    ``radii`` are the point set's radii as ``compute_radii`` returns them;
    they are taken as given.  Without them the exact table supplies them.
    """
    radius = _grid_radii(ps) if radii is None else to_grid(radii, ps.scale)
    edges = [(u, v) for u, vs in enumerate(ps.closer(radius)) for v in vs]
    return Graph(len(radius), frozenset(edges))


def oracle_embed_2ia(g: Graph) -> PointSet:
    """Rows of 2I + A: coordinate v is 2 at v, 1 at neighbors, 0 elsewhere."""
    g.require_embeddable()
    rows = []
    for v in range(g.n):
        row = [0] * g.n
        row[v] = 2
        for u in g.adj[v]:
            row[u] = 1
        rows.append(row)
    return PointSet.from_rows(rows)
