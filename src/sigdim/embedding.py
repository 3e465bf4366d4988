"""Per-group coordinate blocks and the full embedding pipeline.

Every picked group P_k contributes one block of dimensions:

  class I    one dimension per vertex,
  class II   ceil(log2(m+1)) sign-vector dimensions for an m-vertex group,
  class III  one dimension,
  class IV-VIII  two dimensions.

Blocks follow each other in pick order, so the pick sequence alone fixes the
layout: ``block_dims`` derives it, and nothing else stores it.

Within a block, *all* vertices of the graph receive coordinates from a case
table keyed on pseudo-neighborhood membership, pick order relative to k, and
adjacency to the group's members.  The tables are transcribed row for row.
Adjacency, pick order and pseudo-neighborhoods are bitmasks (``Graph.masks``,
per block the vertices picked before k, and per vertex N(v), N2(v)).  A block
is a list of columns, one per dimension, each holding all n values.  The
named vertices (the group's roles and their pseudo-neighborhoods) get their
rows one vertex at a time, each adjacency choice one lookup keyed by v's
adjacency code to the roles.  Every other vertex is filled by mask: one
table row covers a whole set of vertices.  Class VIII's c-side and class
VII's q-side are written once, as mirrors of the a-side and the p-side: the
two roles exchanged and the two coordinates swapped.  A vertex matching no
row is a construction failure and raises a structured diagnostic instead of
inventing a value; of several, it names the one the table's vertex-by-vertex
walk meets first.  Tables work in integer units of delta = r/(6n) (r = 6n,
r(v) = 6n - 2m(v)); ``embed`` scales every column by delta's numerator once
and transposes the columns into points once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Any, Callable

from .errors import PipelineError
from .factor import StarTriangleFactor, star_triangle_factor, validate_factor
from .graphs import Graph, lowest, mask_of, members
from .matching import maximum_matching
from .picking import PickClass, PickedSet, PickSequence, pick_vertices, validate_picks
from .pseudo import (PseudoNeighborhood, RadiusSchedule, build_pseudo,
                     default_radius, radius_schedule, validate_schedule)
from .rationals import ceil_log2, rat_to_json
from .sig import PointSet

Vec = tuple[int, ...]
Columns = list[list[int]]  # a block: one list of n values per dimension


@dataclass(frozen=True)
class Embedding:
    graph: Graph
    factor: StarTriangleFactor
    picks: PickSequence
    pseudo: PseudoNeighborhood
    schedule: RadiusSchedule
    points: PointSet

    @property
    def d(self) -> int:
        return self.points.d

    def to_json(self, coords: bool = True) -> dict[str, Any]:
        """The embedding file; with ``coords=False``, every field of it but coords."""
        sched = self.schedule
        return {
            "n": self.graph.n,
            "d": self.d,
            "r": rat_to_json(sched.r),
            "delta": rat_to_json(sched.delta),
            "blocks": [{"k": p.k, "class": p.cls.value, "dims": list(dims), "step": p.step}
                       for p, dims in zip(self.picks.picks, block_dims(self.picks))],
            **({"coords": self.points.to_json()["coords"]} if coords else {}),
            "trace": {
                "picks": self.picks.to_json(),
                "factor": self.factor.to_json(),
                "m": [sched.m[v] for v in range(self.graph.n)],
                "rv": [rat_to_json(sched.rv[v]) for v in range(self.graph.n)],
            },
        }


def dimension_bound(n: int) -> tuple[int, int | None]:
    """General bound floor(2n/3)+2; refined ceil(2n/3)+1 when 3 does not divide n.

    The refined bound is the general one: when 3 does not divide n,
    ceil(2n/3) = floor(2n/3) + 1.  It is returned because reports name it.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    general = 2 * n // 3 + 2
    refined = None if n % 3 == 0 else -(-2 * n // 3) + 1
    return general, refined


def block_width(cls: PickClass, size: int) -> int:
    if cls is PickClass.RANDOM:
        return size
    if cls is PickClass.RESIDUAL:
        return ceil_log2(size + 1)
    if cls is PickClass.NONADJACENT_PAIR:
        return 1
    return 2


def block_dims(picks: PickSequence) -> list[range]:
    """Block k's dimensions: the next block_width(class, |P_k|) after block k-1's."""
    dims, first = [], 0
    for p in picks.picks:
        width = block_width(p.cls, len(p.vertices))
        dims.append(range(first, first + width))
        first += width
    return dims


class _Ctx:
    """Shared lookups for the block builders: radii in delta units, and masks of
    N(v), N2(v) and N(v) | N2(v) per vertex.  Star leaves are ``f.leaves``, and
    the vertices picked before block k ``picks.earlier[k]``."""

    def __init__(self, g: Graph, f: StarTriangleFactor, picks: PickSequence,
                 pn: PseudoNeighborhood, sched: RadiusSchedule):
        self.g = g
        self.f = f
        self.picks = picks
        self.pn = pn
        self.full = (1 << g.n) - 1
        self.r = 6 * g.n
        self.rv = [self.r - 2 * sched.m[v] for v in range(g.n)]
        self.half = [-x // 2 for x in self.rv]  # class VIII, outside and picked before k
        self.n1 = [mask_of(pn.n1[v]) for v in range(g.n)]
        # N2(v) is the union of N(u) over u in N(v).
        self.n2 = [reduce(or_, map(self.n1.__getitem__, pn.n1[v]), 0) for v in range(g.n)]
        self.related = list(map(or_, self.n1, self.n2))

    def reach(self, vertices) -> int:
        """N_k of a picked group, as a mask: the union of N(v) and N2(v) over the group."""
        return reduce(or_, map(self.related.__getitem__, vertices))

    def unreachable(self, k: int, table: str, vertex: int, **extra: Any) -> PipelineError:
        return PipelineError(
            "embedder",
            f"block {k}, table {table}: no row matches vertex {vertex}",
            k=k, table=table, vertex=vertex, **extra,
        )


def _bits(mask: int, *vertices: int) -> int:
    """The bits of mask at the given vertices as one number, the first vertex highest."""
    code = 0
    for u in vertices:
        code = code << 1 | mask >> u & 1
    return code


def _put(cols: Columns, v: int, row: Vec) -> None:
    for col, x in zip(cols, row):
        col[v] = x


def _fill(cols: Columns, named: int, row: Callable[[int], Vec],
          stray: int = 0, fail: Callable[[int], PipelineError] | None = None) -> Columns:
    """Overwrite the bulk columns with row(v) for each named vertex v, in vertex
    order.  The lowest stray vertex, one no row matches, then raises fail(v),
    unless a named row below it raised first: the order of a walk over all v."""
    below = (1 << lowest(stray)) - 1 if stray else -1  # -1: every vertex
    for v in members(named & below):
        _put(cols, v, row(v))
    if stray:
        raise fail(lowest(stray))
    return cols


# ---------------------------------------------------------------------------
# class I: one dimension per picked vertex

def _block_random(ctx: _Ctx, pick: PickedSet) -> Columns:
    rv = ctx.rv
    columns = []
    for w in pick.vertices:
        col = rv[:]  # v neither w, nor in N(w), nor adjacent to w
        for v in members(ctx.g.masks[w]):
            col[v] -= 1
        for v in members(ctx.n1[w]):
            col[v] = 0
        col[w] = -rv[w]
        columns.append(col)
    return columns


# ---------------------------------------------------------------------------
# class II: residual leaf group on sign vectors

def _sign_vector(i: int, width: int) -> tuple[int, ...]:
    # i is 1-based; bit pattern of i-1, most significant first, 0 -> +1.
    bits = i - 1
    return tuple(-1 if bits >> (width - 1 - j) & 1 else 1 for j in range(width))


def _block_residual(ctx: _Ctx, pick: PickedSet) -> Columns:
    rv = ctx.rv
    group = pick.vertices
    m = len(group)
    width = ceil_log2(m + 1)
    vec_of = {v: _sign_vector(i + 1, width) for i, v in enumerate(group)}
    outside_vec = _sign_vector(m + 1, width)
    near = reduce(or_, map(ctx.n1.__getitem__, group))
    second = reduce(or_, map(ctx.n2.__getitem__, group))

    def row(v: int) -> Vec:
        if v in vec_of:
            return tuple(rv[v] * s for s in vec_of[v])
        if near >> v & 1:
            return (0,) * width
        return tuple(rv[v] * s for s in outside_vec)

    # The bulk: v outside N(P) and N2(P).
    cols = [[(x - 1) * s for x in rv] for s in outside_vec]
    return _fill(cols, near | second | mask_of(group), row)


# ---------------------------------------------------------------------------
# class III: non-adjacent pair on one dimension

def _block_pair(ctx: _Ctx, pick: PickedSet) -> Columns:
    rv = ctx.rv
    k = pick.k
    half = ctx.r // 2 - (k + 1)
    p, q = pick.roles["p"], pick.roles["q"]
    p_side = ctx.related[p] & ~(1 << p)
    q_side = ctx.related[q] & ~(1 << q)
    both = p_side & q_side & ~(1 << q)
    if both:
        raise ctx.unreachable(k, "III", lowest(both), reason="both sides")
    col = [0] * ctx.g.n
    for v in members(q_side):
        col[v] = half
    for v in members(p_side):
        col[v] = -half
    col[q] = rv[q] + half
    col[p] = -rv[p] - half
    return [col]


# ---------------------------------------------------------------------------
# class IV: triple inside the final clique

def _block_clique(ctx: _Ctx, pick: PickedSet) -> Columns:
    rv, r, n1, n = ctx.rv, ctx.r, ctx.n1, ctx.g.n
    k = pick.k
    trio = pick.vertices
    related_pairs = [
        (a, b) for a, b in combinations(trio, 2) if ctx.related[a] >> b & 1
    ]

    if not related_pairs:
        # All three in distinct factor components.
        x = min(trio, key=lambda v: (-rv[v], v))
        y, z = sorted(set(trio) - {x})

        def row(v: int) -> Vec:
            if v == x:
                return (0, 0)
            if v == y:
                return (0, r)
            if v == z:
                return (r, 0)
            if n1[x] >> v & 1:
                return (rv[v], rv[v])
            if n1[y] >> v & 1:
                return (rv[v], r)
            return (r, rv[v])  # v in N(z)

        return _fill([[r] * n, [r] * n], mask_of(trio) | n1[x] | n1[y] | n1[z], row)
    if len(related_pairs) == 1:
        p_, q_ = related_pairs[0]
        (s_,) = (v for v in trio if v not in related_pairs[0])
        n_pq = (n1[p_] | n1[q_]) & ~(1 << p_ | 1 << q_)

        def row(v: int) -> Vec:
            if v == p_:
                return (0, r - rv[v])
            if v == q_:
                return (0, r)
            if v == s_:
                return (r, 0)
            if n_pq >> v & 1:
                return (rv[v], r)
            return (r, rv[v])  # v in N(s)

        return _fill([[r] * n, [r] * n], mask_of(trio) | n_pq | n1[s_], row)
    if len(related_pairs) == 3:
        if tuple(sorted(trio)) not in ctx.f.triangles:
            raise ctx.unreachable(k, "IV", trio[0], reason="related but not a triangle")
        p_, q_, s_ = sorted(trio)
        cols = [[x - 1 for x in rv], [x - 1 for x in rv]]
        _put(cols, p_, (-rv[p_], 0))
        _put(cols, q_, (-rv[q_], -rv[q_]))
        _put(cols, s_, (0, -rv[s_]))
        return cols
    raise ctx.unreachable(k, "IV", trio[0], reason="two related pairs")


# ---------------------------------------------------------------------------
# class V: outside vertex + two leaves of the last star

def _block_two_leaf(ctx: _Ctx, pick: PickedSet) -> Columns:
    rv = ctx.rv
    k = pick.k
    half = ctx.r // 2 - (k + 1)
    v0, w1, w2, w = (pick.roles[r_] for r_ in ("v0", "w1", "w2", "w"))
    star = ctx.n1[w]  # the leaf set
    v0_side = ctx.related[v0] & ~(1 << v0)
    early_or_v0 = ctx.picks.earlier[k] | ctx.g.masks[v0]

    def row(v: int) -> Vec:
        if v == w1:
            return (-rv[w] - half, rv[w])
        if v == w2:
            return (-rv[w] - half, -rv[w])
        if v == v0:
            return (rv[v0] + half, rv[v0])
        if v == w:
            return (-half, 0)
        if star >> v & 1:
            if early_or_v0 >> v & 1:
                return (rv[w] - half, -rv[w] + 1)
            return (rv[w] - half, -rv[w])
        return (half, 0)  # v in v0's component

    named = mask_of((v0, w1, w2, w)) | star | v0_side
    # The bulk: v outside the pick's reach.
    cols = [[x - half - 1 for x in rv], [1 - x for x in rv]]
    return _fill(cols, named, row, ctx.reach(pick.vertices) & ~named,
                 lambda v: ctx.unreachable(k, "V", v))


# ---------------------------------------------------------------------------
# class VI: leaf + adjacent outside pair (exactly two edges)

def _block_one_leaf_edge(ctx: _Ctx, pick: PickedSet) -> Columns:
    rv = ctx.rv
    k = pick.k
    r = ctx.r
    half = r // 2 - (k + 1)
    w0, v1, v2, w = (pick.roles[r_] for r_ in ("w0", "v1", "v2", "w"))
    star = ctx.n2[w0]  # = the whole leaf set of w's star
    v1_side = ctx.related[v1] & ~(1 << v1)
    v2_side = ctx.related[v2] & ~(1 << v2)
    subcase_b = ctx.related[v1] >> v2 & 1
    early, adj = ctx.picks.earlier[k], ctx.g.masks
    early_or_v1 = early | adj[v1]

    def row(v: int) -> Vec:
        if v == w0:
            return (rv[w0] - 1, rv[w0] + half)
        if v == v1:
            if subcase_b:
                return (-rv[v1], -half)
            return (-rv[v1], rv[v1] - half - 1)
        if v == v2:
            if subcase_b:
                return (-rv[v2] + 1, -rv[v2] - half)
            return (rv[v2] - 1, -rv[v2] - half)
        if v == w:
            # the star center, always picked before this block
            if not early >> v & 1:
                raise ctx.unreachable(k, "VI", v, reason="center picked late")
            if subcase_b:
                return (rv[v] - 1, half)
            return (r - 2 * (k + 1), half)
        if star >> v & 1:
            if subcase_b:
                if early >> v & 1:
                    return (rv[v] - 1, -rv[v] + half)
                if adj[v2] >> v & 1:
                    return (rv[v] - 1, half)
                return (rv[v], half)
            if early >> v & 1:
                return (-rv[v] + r - 2 * (k + 1), -rv[v] + half)
            if adj[v1] >> v & 1:
                return (rv[v] - 1, half)
            return (rv[v], half)
        if subcase_b:
            return (0, -half)  # v in v1's or v2's component
        if v1_side >> v & 1:
            return (0, 0)
        # subcase a only: v2's own component
        if early_or_v1 >> v & 1:
            return (rv[v] - 1, -half)
        return (rv[v], -half)

    named = mask_of((w0, v1, v2, w)) | star | v1_side | v2_side
    # The bulk: v outside the pick's reach.
    col = rv[:]
    for v in members((early if subcase_b else early_or_v1) & ~named):
        col[v] -= 1
    return _fill([col, [0] * ctx.g.n], named, row, ctx.reach(pick.vertices) & ~named,
                 lambda v: ctx.unreachable(k, "VI", v))


# ---------------------------------------------------------------------------
# class VII: triple with exactly one edge

def _block_one_edge(ctx: _Ctx, pick: PickedSet) -> Columns:
    rv, adj, leaves = ctx.rv, ctx.g.masks, ctx.f.leaves
    k = pick.k
    early = ctx.picks.earlier[k]
    base = -ctx.r + 2 * (k + 1)
    mhalf = -ctx.r // 2 + (k + 1)
    p, q, s = (pick.roles[r_] for r_ in ("p", "q", "s"))
    close = ctx.related[q] >> p & 1  # p,q share a factor component

    tk = None
    for tri in ctx.f.triangles:
        if p in tri and q in tri:
            (tk,) = (v for v in tri if v not in (p, q))
    reach = ctx.reach(pick.vertices)
    s_side, p_side, q_side = (ctx.related[x] for x in (s, p, q))
    xs = base + rv[s]
    s_leaf = (xs - 1, -rv[s]) if close else (-rv[s], -rv[s])

    def side(v: int, x: int, y: int, table: str) -> Vec:
        # Written for p's side (x = p, y = q) when p and q are far apart;
        # q's side is its mirror image.
        if early >> v & 1:
            row = (base + rv[x], mhalf) if (ctx.n2[x] & leaves) >> v & 1 else (base, 0)
        else:
            code = _bits(adj[v], y, s)
            if not code:
                raise ctx.unreachable(k, table, v, adjacency=(False, False))
            # by (v ~ y, v ~ s)
            row = (None, (base, base + rv[x]), (-rv[x], 0), (base, 0))[code]
        return row if x == p else row[::-1]

    def row(v: int) -> Vec:
        if v == p:
            if close:
                return (base - rv[p], base)
            return (base - rv[p], base + rv[p] - 1)
        if v == q:
            if close:
                return (base - 1, base - rv[q])
            return (base + rv[q] - 1, base - rv[q])
        if v == s:
            return (rv[s], rv[s])
        if v == tk:
            if (early | adj[s]) >> v & 1:
                return (base, base)
            return (-rv[v], -rv[v])
        if s_side >> v & 1:
            if early >> v & 1:
                return s_leaf if (ctx.n2[s] & leaves) >> v & 1 else (0, 0)
            # by (v ~ p, v ~ q)
            return ((xs, xs), (xs, 0), (0, xs), (0, 0))[_bits(adj[v], p, q)]
        if p_side >> v & 1:
            return side(v, p, q, "VII.p-side")
        return side(v, q, p, "VII.q-side")

    named = mask_of((p, q, s)) | s_side
    if not close:
        named |= p_side | q_side
    elif tk is not None:  # p, q and tk are a factor triangle
        named |= 1 << tk
    # The bulk: v outside the pick's reach.  If picked before k, v takes mhalf;
    # else, by (v ~ p, v ~ q, v ~ s), base + r(v) where v ~ s but not the
    # column's own role (p, then q), -r(v) where v ~ p, q but not s, and mhalf
    # where v ~ s and the column's role.
    late = ctx.full & ~(early | reach)
    p_adj, q_adj, s_adj = (adj[x] & late for x in (p, q, s))
    pq_only = p_adj & q_adj & ~s_adj
    cols = [[mhalf] * ctx.g.n, [mhalf] * ctx.g.n]
    for col, own in zip(cols, (p_adj, q_adj)):
        for v in members(s_adj & ~own):
            col[v] = base + rv[v]
        for v in members(pq_only):
            col[v] = -rv[v]

    def fail(v: int) -> PipelineError:
        if reach >> v & 1:
            return ctx.unreachable(k, "VII", v)
        code = _bits(adj[v], p, q, s)
        return ctx.unreachable(k, "VII.outside", v,
                               adjacency=tuple(bool(code >> i & 1) for i in (2, 1, 0)))

    # v in the reach but not named, or late, outside it, and adjacent to neither
    # s nor both of p, q, matches no row.
    stray = reach & ~named | late & ~s_adj & ~(p_adj & q_adj)
    return _fill(cols, named, row, stray, fail)


# ---------------------------------------------------------------------------
# class VIII: independent triple, no two in one star

def _super_roles(ctx: _Ctx, pick: PickedSet) -> tuple[int, int, int]:
    if pick.step in (7, 9, 10, 11):
        leaves = sorted(v for v in pick.vertices if ctx.f.leaves >> v & 1)
        if leaves:
            b = leaves[0]
            a, c = sorted(set(pick.vertices) - {b})
            return a, b, c
    a, b, c = sorted(pick.vertices)
    return a, b, c


def _block_super(ctx: _Ctx, pick: PickedSet) -> Columns:
    rv, adj = ctx.rv, ctx.g.masks
    k = pick.k
    early = ctx.picks.earlier[k]
    base = -ctx.r + 2 * (k + 1)
    mhalf = -ctx.r // 2 + (k + 1)
    a, b, c = _super_roles(ctx, pick)
    reach = ctx.reach(pick.vertices)
    xb = base + rv[b]
    # a's rows are written out; c's are their mirror image: a and c exchanged,
    # the two coordinates swapped.
    other = {a: c, c: a}

    def oriented(x: int, row: Vec) -> Vec:
        return row[::-1] if x == c else row

    def near(x: int, v: int, guard_central: bool) -> Vec:
        """v's row in role x's component, unless a leaf of N2(x) picked before k."""
        if x == b:
            if early >> v & 1:
                return (1, 1)
            code = _bits(adj[v], a, c)
            if not code and guard_central and v in ctx.f.stars:
                # This case is proven impossible: a star center adjacent to
                # neither a nor c would have joined the pick earlier.
                raise ctx.unreachable(k, "VIII.near-b", v, reason="star center")
            # by (v ~ a, v ~ c)
            return ((xb, xb), (xb, 1), (1, xb), (1, 1))[code]
        if early >> v & 1:
            return oriented(x, (base, 0))
        # by (v ~ b, v ~ the other end)
        rows = ((-rv[x], 0), (-rv[x] + 1, 0), (base, base + rv[x]), (base, 0))
        return oriented(x, rows[_bits(adj[v], b, other[x])])

    def second_leaf(x: int, v: int) -> Vec:
        """The row of v, a leaf of N2(x) picked before k, set by x's link's row."""
        # v in N2(x) - {x} makes x a leaf of v's star; a leaf's one pseudo-neighbor is its link.
        link = oriented(x, out[next(iter(ctx.pn.n1[x]))])
        if x != b:
            return oriented(x, (base, -rv[x]) if link[0] != base else (base + rv[x], mhalf))
        row = {(1, 1): (1 - rv[b], 1 - rv[b]), (1, xb): (1 - rv[b], base),
               (xb, 1): (base, 1 - rv[b])}.get(link)
        if row is None:
            raise ctx.unreachable(k, "VIII.second-b", v, link_value=link)
        return row

    # The rows of the pick's reach, which they cover exactly: the roles, then
    # N(x) and N2(x) for each role x.
    out: dict[int, Vec] = {x: oriented(x, (base - rv[x], rv[x])) for x in (a, c)}
    out[b] = (1 + rv[b], 1 + rv[b])
    for x in (a, b, c):
        for v in sorted(ctx.pn.n1[x] - {a, b, c}):
            out[v] = near(x, v, guard_central=True)
    for x in (a, b, c):
        for v in sorted(ctx.pn.n2[x] - {x} - set(out)):
            if early >> v & 1 and ctx.f.leaves >> v & 1:
                out[v] = second_leaf(x, v)
            else:
                out[v] = near(x, v, guard_central=False)

    # The bulk: v outside the reach takes -r(v)/2 if picked before k; else,
    # with y = -r(v) and x = base + r(v), by its adjacency to a, b and c:
    #   v not ~ b:  y, or y + 1 where v ~ the column's far end;
    #   v ~ b:      y + 2, or x where v is not ~ the column's own end.
    # Column 0 is written for a (far end c), column 1 is its mirror for c.
    cols = [ctx.half[:], ctx.half[:]]
    col0, col1 = cols
    late = ctx.full & ~(early | reach)
    b_adj = adj[b] & late
    for v in members(late & ~b_adj):
        col0[v] = col1[v] = -rv[v]
    for v in members(b_adj):
        col0[v] = col1[v] = 2 - rv[v]
    for col, own, far in ((col0, adj[a], adj[c]), (col1, adj[c], adj[a])):
        for v in members(late & ~b_adj & far):
            col[v] += 1
        for v in members(b_adj & ~own):
            col[v] = base + rv[v]
    for v, (x0, x1) in out.items():
        col0[v], col1[v] = x0, x1
    return cols


_BUILDERS = {
    PickClass.RANDOM: _block_random,
    PickClass.RESIDUAL: _block_residual,
    PickClass.NONADJACENT_PAIR: _block_pair,
    PickClass.CLIQUE_TRIPLE: _block_clique,
    PickClass.TWO_LEAF_TRIPLE: _block_two_leaf,
    PickClass.ONE_LEAF_EDGE_TRIPLE: _block_one_leaf_edge,
    PickClass.ONE_EDGE_TRIPLE: _block_one_edge,
    PickClass.SUPER_TRIPLE: _block_super,
}


def assign_block(ctx: _Ctx, k: int) -> Columns:
    """Block k's columns, one per dimension: every vertex's coordinate there, in delta units."""
    pick = ctx.picks.picks[k]
    return _BUILDERS[pick.cls](ctx, pick)


def check_accounting(g: Graph, picks: PickSequence) -> None:
    """n = 3*(#triples) + 2*(#pairs) + |residual| + sum of plain-set sizes."""
    triples = pairs = residual = plain = 0
    for p in picks.picks:
        if p.cls is PickClass.RANDOM:
            plain += len(p.vertices)
        elif p.cls is PickClass.RESIDUAL:
            residual += len(p.vertices)
        elif p.cls is PickClass.NONADJACENT_PAIR:
            pairs += 1
        else:
            triples += 1
    if g.n != 3 * triples + 2 * pairs + residual + plain:
        raise PipelineError(
            "embedder",
            f"accounting identity failed: n={g.n} vs "
            f"3*{triples} + 2*{pairs} + {residual} + {plain}",
            triples=triples, pairs=pairs, residual=residual, plain=plain,
        )


def embed(g: Graph, r: int | Fraction | None = None) -> Embedding:
    """Full pipeline: matching, factor, picking, schedule, coordinate blocks."""
    g.require_embeddable()
    m0 = maximum_matching(g)
    f = star_triangle_factor(g, m0)
    validate_factor(g, f)
    picks = pick_vertices(g, f)
    validate_picks(g, f, picks)
    check_accounting(g, picks)
    pn = build_pseudo(f, picks)
    sched = radius_schedule(pn, picks, r if r is not None else default_radius(g.n))
    validate_schedule(f, pn, picks, sched)

    ctx = _Ctx(g, f, picks, pn, sched)
    cols = [col for k in range(picks.count) for col in assign_block(ctx, k)]

    d = len(cols)
    limit = dimension_bound(g.n)[0]
    if d > limit:
        raise PipelineError("embedder", f"dimension {d} exceeds bound {limit}",
                            d=d, bound=limit)
    num, den = sched.delta.numerator, sched.delta.denominator
    for col in cols:  # in place: the grid's rows then share the scaled ints
        col[:] = map(num.__mul__, col)
    grid = tuple(zip(*cols))
    return Embedding(g, f, picks, pn, sched, PointSet(d, grid, den))
