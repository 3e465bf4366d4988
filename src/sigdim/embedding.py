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
Adjacency and pick order are bitmasks (``Graph.masks``, and per block the
vertices picked before k), and each adjacency choice is one lookup keyed by
v's adjacency code to the group's roles.  Class VIII's c-side and class VII's
q-side are written once, as mirrors of the a-side and the p-side: the two
roles exchanged and the two coordinates swapped.  A vertex matching no row is
a construction failure and raises a structured diagnostic instead of
inventing a value.  Tables work in integer units of delta = r/(6n) (r = 6n,
r(v) = 6n - 2m(v)); ``embed`` scales by delta once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any

from .errors import PipelineError
from .factor import StarTriangleFactor, star_triangle_factor, validate_factor
from .graphs import Graph
from .matching import maximum_matching
from .picking import PickClass, PickedSet, PickSequence, pick_vertices, validate_picks
from .pseudo import (PseudoNeighborhood, RadiusSchedule, build_pseudo,
                     default_radius, radius_schedule, validate_schedule)
from .rationals import ceil_log2, rat_to_json
from .sig import PointSet

Vec = tuple[int, ...]


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
    """Shared lookups for the block builders: radii in delta units.  Star leaves
    are ``f.leaves``, and the vertices picked before block k ``picks.earlier[k]``."""

    def __init__(self, g: Graph, f: StarTriangleFactor, picks: PickSequence,
                 pn: PseudoNeighborhood, sched: RadiusSchedule):
        self.g = g
        self.f = f
        self.picks = picks
        self.pn = pn
        self.r = 6 * g.n
        self.rv = [self.r - 2 * sched.m[v] for v in range(g.n)]

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


# ---------------------------------------------------------------------------
# class I: one dimension per picked vertex

def _block_random(ctx: _Ctx, pick: PickedSet) -> dict[int, Vec]:
    rv = ctx.rv
    columns = []
    for w in pick.vertices:
        near, adj = ctx.pn.n1[w], ctx.g.masks[w]
        col: dict[int, int] = {}
        for v in range(ctx.g.n):
            if v == w:
                col[v] = -rv[w]
            elif v in near:
                col[v] = 0
            elif adj >> v & 1:
                col[v] = rv[v] - 1
            else:
                col[v] = rv[v]
        columns.append(col)
    return {v: tuple(col[v] for col in columns) for v in range(ctx.g.n)}


# ---------------------------------------------------------------------------
# class II: residual leaf group on sign vectors

def _sign_vector(i: int, width: int) -> tuple[int, ...]:
    # i is 1-based; bit pattern of i-1, most significant first, 0 -> +1.
    bits = i - 1
    return tuple(-1 if bits >> (width - 1 - j) & 1 else 1 for j in range(width))


def _block_residual(ctx: _Ctx, pick: PickedSet) -> dict[int, Vec]:
    rv = ctx.rv
    members = list(pick.vertices)
    m = len(members)
    width = ceil_log2(m + 1)
    vec_of = {v: _sign_vector(i + 1, width) for i, v in enumerate(members)}
    outside_vec = _sign_vector(m + 1, width)
    near = frozenset().union(*(ctx.pn.n1[v] for v in members))
    second = frozenset().union(*(ctx.pn.n2[v] for v in members))

    out: dict[int, Vec] = {}
    for v in range(ctx.g.n):
        if v in vec_of:
            out[v] = tuple(rv[v] * s for s in vec_of[v])
        elif v in near:
            out[v] = (0,) * width
        elif v in second:
            out[v] = tuple(rv[v] * s for s in outside_vec)
        else:
            out[v] = tuple((rv[v] - 1) * s for s in outside_vec)
    return out


# ---------------------------------------------------------------------------
# class III: non-adjacent pair on one dimension

def _block_pair(ctx: _Ctx, pick: PickedSet) -> dict[int, Vec]:
    rv = ctx.rv
    k = pick.k
    half = ctx.r // 2 - (k + 1)
    p, q = pick.roles["p"], pick.roles["q"]
    p_side = ctx.pn.related(p) - {p}
    q_side = ctx.pn.related(q) - {q}
    out: dict[int, Vec] = {}
    for v in range(ctx.g.n):
        if v == p:
            val = -rv[p] - half
        elif v == q:
            val = rv[q] + half
        elif v in p_side:
            if v in q_side:
                raise ctx.unreachable(k, "III", v, reason="both sides")
            val = -half
        elif v in q_side:
            val = half
        else:
            val = 0
        out[v] = (val,)
    return out


# ---------------------------------------------------------------------------
# class IV: triple inside the final clique

def _block_clique(ctx: _Ctx, pick: PickedSet) -> dict[int, Vec]:
    rv, r = ctx.rv, ctx.r
    k = pick.k
    trio = pick.vertices
    related_pairs = [
        (a, b) for a, b in combinations(trio, 2) if b in ctx.pn.related(a)
    ]

    out: dict[int, Vec] = {}
    if not related_pairs:
        # All three in distinct factor components.
        x = min(trio, key=lambda v: (-rv[v], v))
        y, z = sorted(set(trio) - {x})
        for v in range(ctx.g.n):
            if v == x:
                out[v] = (0, 0)
            elif v == y:
                out[v] = (0, r)
            elif v == z:
                out[v] = (r, 0)
            elif v in ctx.pn.n1[x]:
                out[v] = (rv[v], rv[v])
            elif v in ctx.pn.n1[y]:
                out[v] = (rv[v], r)
            elif v in ctx.pn.n1[z]:
                out[v] = (r, rv[v])
            else:
                out[v] = (r, r)
    elif len(related_pairs) == 1:
        p_, q_ = related_pairs[0]
        (s_,) = (v for v in trio if v not in related_pairs[0])
        n_pq = (ctx.pn.n1[p_] | ctx.pn.n1[q_]) - {p_, q_}
        for v in range(ctx.g.n):
            if v == p_:
                out[v] = (0, r - rv[v])
            elif v == q_:
                out[v] = (0, r)
            elif v == s_:
                out[v] = (r, 0)
            elif v in n_pq:
                out[v] = (rv[v], r)
            elif v in ctx.pn.n1[s_]:
                out[v] = (r, rv[v])
            else:
                out[v] = (r, r)
    elif len(related_pairs) == 3:
        if tuple(sorted(trio)) not in ctx.f.triangles:
            raise ctx.unreachable(k, "IV", trio[0], reason="related but not a triangle")
        p_, q_, s_ = sorted(trio)
        for v in range(ctx.g.n):
            if v == p_:
                out[v] = (-rv[v], 0)
            elif v == q_:
                out[v] = (-rv[v], -rv[v])
            elif v == s_:
                out[v] = (0, -rv[v])
            else:
                out[v] = (rv[v] - 1, rv[v] - 1)
    else:
        raise ctx.unreachable(k, "IV", trio[0], reason="two related pairs")
    return out


# ---------------------------------------------------------------------------
# class V: outside vertex + two leaves of the last star

def _block_two_leaf(ctx: _Ctx, pick: PickedSet) -> dict[int, Vec]:
    rv = ctx.rv
    k = pick.k
    half = ctx.r // 2 - (k + 1)
    v0, w1, w2, w = (pick.roles[r_] for r_ in ("v0", "w1", "w2", "w"))
    star = ctx.pn.n1[w]  # the leaf set
    v0_side = ctx.pn.related(v0) - {v0}
    reach = ctx.pn.reach(pick.vertices)
    early_or_v0 = ctx.picks.earlier[k] | ctx.g.masks[v0]

    out: dict[int, Vec] = {}
    for v in range(ctx.g.n):
        if v == w1:
            out[v] = (-rv[w] - half, rv[w])
        elif v == w2:
            out[v] = (-rv[w] - half, -rv[w])
        elif v == v0:
            out[v] = (rv[v0] + half, rv[v0])
        elif v == w:
            out[v] = (-half, 0)
        elif v in star:
            if early_or_v0 >> v & 1:
                out[v] = (rv[w] - half, -rv[w] + 1)
            else:
                out[v] = (rv[w] - half, -rv[w])
        elif v in v0_side:
            out[v] = (half, 0)
        elif v not in reach:
            out[v] = (rv[v] - half - 1, -rv[v] + 1)
        else:
            raise ctx.unreachable(k, "V", v)
    return out


# ---------------------------------------------------------------------------
# class VI: leaf + adjacent outside pair (exactly two edges)

def _block_one_leaf_edge(ctx: _Ctx, pick: PickedSet) -> dict[int, Vec]:
    rv = ctx.rv
    k = pick.k
    r = ctx.r
    half = r // 2 - (k + 1)
    w0, v1, v2, w = (pick.roles[r_] for r_ in ("w0", "v1", "v2", "w"))
    star = ctx.pn.n2[w0]  # = the whole leaf set of w's star
    v1_side = ctx.pn.related(v1) - {v1}
    v2_side = ctx.pn.related(v2) - {v2}
    reach = ctx.pn.reach(pick.vertices)
    subcase_b = v2 in ctx.pn.related(v1)
    early, adj = ctx.picks.earlier[k], ctx.g.masks
    early_or_v1 = early | adj[v1]

    out: dict[int, Vec] = {}
    for v in range(ctx.g.n):
        if v == w0:
            out[v] = (rv[w0] - 1, rv[w0] + half)
        elif v == v1:
            if subcase_b:
                out[v] = (-rv[v1], -half)
            else:
                out[v] = (-rv[v1], rv[v1] - half - 1)
        elif v == v2:
            if subcase_b:
                out[v] = (-rv[v2] + 1, -rv[v2] - half)
            else:
                out[v] = (rv[v2] - 1, -rv[v2] - half)
        elif v == w:
            # the star center, always picked before this block
            if not early >> v & 1:
                raise ctx.unreachable(k, "VI", v, reason="center picked late")
            if subcase_b:
                out[v] = (rv[v] - 1, half)
            else:
                out[v] = (r - 2 * (k + 1), half)
        elif v in star:
            if subcase_b:
                if early >> v & 1:
                    out[v] = (rv[v] - 1, -rv[v] + half)
                elif adj[v2] >> v & 1:
                    out[v] = (rv[v] - 1, half)
                else:
                    out[v] = (rv[v], half)
            else:
                if early >> v & 1:
                    out[v] = (-rv[v] + r - 2 * (k + 1), -rv[v] + half)
                elif adj[v1] >> v & 1:
                    out[v] = (rv[v] - 1, half)
                else:
                    out[v] = (rv[v], half)
        elif v in v1_side or (subcase_b and v in v2_side):
            if subcase_b:
                out[v] = (0, -half)
            else:
                out[v] = (0, 0)
        elif v in v2_side:
            # subcase a only: v2's own component
            if early_or_v1 >> v & 1:
                out[v] = (rv[v] - 1, -half)
            else:
                out[v] = (rv[v], -half)
        elif v not in reach:
            if subcase_b:
                out[v] = (rv[v] - 1, 0) if early >> v & 1 else (rv[v], 0)
            else:
                if early_or_v1 >> v & 1:
                    out[v] = (rv[v] - 1, 0)
                else:
                    out[v] = (rv[v], 0)
        else:
            raise ctx.unreachable(k, "VI", v)
    return out


# ---------------------------------------------------------------------------
# class VII: triple with exactly one edge

# v outside the pick's reach, not picked before k: rows of y = -r(v),
# x = base + r(v) and h = mhalf, by (v ~ p, v ~ q, v ~ s); None: no row.
_ONE_EDGE_OUTSIDE = (
    None, lambda y, x, h: (x, x),
    None, lambda y, x, h: (x, h),
    None, lambda y, x, h: (h, x),
    lambda y, x, h: (y, y), lambda y, x, h: (h, h),
)


def _block_one_edge(ctx: _Ctx, pick: PickedSet) -> dict[int, Vec]:
    rv, adj, leaves = ctx.rv, ctx.g.masks, ctx.f.leaves
    k = pick.k
    early = ctx.picks.earlier[k]
    base = -ctx.r + 2 * (k + 1)
    mhalf = -ctx.r // 2 + (k + 1)
    p, q, s = (pick.roles[r_] for r_ in ("p", "q", "s"))
    close = p in ctx.pn.related(q)  # p,q share a factor component

    tk = None
    for tri in ctx.f.triangles:
        if p in tri and q in tri:
            (tk,) = (v for v in tri if v not in (p, q))
    reach = ctx.pn.reach(pick.vertices)
    s_side, p_side, q_side = (ctx.pn.related(x) for x in (s, p, q))
    xs = base + rv[s]
    s_leaf = (xs - 1, -rv[s]) if close else (-rv[s], -rv[s])

    def side(v: int, x: int, y: int, table: str) -> Vec:
        # Written for p's side (x = p, y = q) when p and q are far apart;
        # q's side is its mirror image.
        if early >> v & 1:
            row = (base + rv[x], mhalf) if v in ctx.pn.n2[x] and leaves >> v & 1 else (base, 0)
        else:
            code = _bits(adj[v], y, s)
            if not code:
                raise ctx.unreachable(k, table, v, adjacency=(False, False))
            # by (v ~ y, v ~ s)
            row = (None, (base, base + rv[x]), (-rv[x], 0), (base, 0))[code]
        return row if x == p else row[::-1]

    def outsider(v: int) -> Vec:
        if early >> v & 1:
            return (mhalf, mhalf)
        code = _bits(adj[v], p, q, s)
        row = _ONE_EDGE_OUTSIDE[code]
        if row is None:
            raise ctx.unreachable(k, "VII.outside", v,
                                  adjacency=tuple(bool(code >> i & 1) for i in (2, 1, 0)))
        return row(-rv[v], base + rv[v], mhalf)

    out: dict[int, Vec] = {}
    for v in range(ctx.g.n):
        if v == p:
            if close:
                out[v] = (base - rv[p], base)
            else:
                out[v] = (base - rv[p], base + rv[p] - 1)
        elif v == q:
            if close:
                out[v] = (base - 1, base - rv[q])
            else:
                out[v] = (base + rv[q] - 1, base - rv[q])
        elif v == s:
            out[v] = (rv[s], rv[s])
        elif close and v == tk:
            if (early | adj[s]) >> v & 1:
                out[v] = (base, base)
            else:
                out[v] = (-rv[v], -rv[v])
        elif v in s_side:
            if early >> v & 1:
                out[v] = s_leaf if v in ctx.pn.n2[s] and leaves >> v & 1 else (0, 0)
            else:
                # by (v ~ p, v ~ q)
                out[v] = ((xs, xs), (xs, 0), (0, xs), (0, 0))[_bits(adj[v], p, q)]
        elif not close and v in p_side:
            out[v] = side(v, p, q, "VII.p-side")
        elif not close and v in q_side:
            out[v] = side(v, q, p, "VII.q-side")
        elif v not in reach:
            out[v] = outsider(v)
        else:
            raise ctx.unreachable(k, "VII", v)
    return out


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


# v outside the pick's reach, not picked before k: rows of y = -r(v) and
# x = base + r(v), by (v ~ a, v ~ b, v ~ c).
_SUPER_OUTSIDE = (
    lambda y, x: (y, y), lambda y, x: (y + 1, y),
    lambda y, x: (x, x), lambda y, x: (x, y + 2),
    lambda y, x: (y, y + 1), lambda y, x: (y + 1, y + 1),
    lambda y, x: (y + 2, x), lambda y, x: (y + 2, y + 2),
)


def _block_super(ctx: _Ctx, pick: PickedSet) -> dict[int, Vec]:
    rv, adj = ctx.rv, ctx.g.masks
    k = pick.k
    early = ctx.picks.earlier[k]
    base = -ctx.r + 2 * (k + 1)
    mhalf = -ctx.r // 2 + (k + 1)
    a, b, c = _super_roles(ctx, pick)
    reach = ctx.pn.reach(pick.vertices)
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

    for v in range(ctx.g.n):
        if v in out:
            continue
        if v in reach:
            raise ctx.unreachable(k, "VIII", v)
        if early >> v & 1:
            out[v] = (-rv[v] // 2, -rv[v] // 2)
            continue
        out[v] = _SUPER_OUTSIDE[_bits(adj[v], a, b, c)](-rv[v], base + rv[v])
    return out


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


def assign_block(ctx: _Ctx, k: int) -> dict[int, Vec]:
    """Block k's columns: each vertex's coordinates there, in delta units."""
    pick = ctx.picks.picks[k]
    values = _BUILDERS[pick.cls](ctx, pick)
    width = block_width(pick.cls, len(pick.vertices))
    missing = [v for v in range(ctx.g.n) if len(values.get(v, ())) != width]
    if missing:
        raise PipelineError("embedder", f"block {k} left vertices {missing} without "
                            f"a {width}-dimensional value", k=k, vertices=missing)
    return values


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
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for k in range(picks.count):
        values = assign_block(ctx, k)
        for v, row in enumerate(rows):
            row.extend(values[v])

    d = len(rows[0])
    limit = dimension_bound(g.n)[0]
    if d > limit:
        raise PipelineError("embedder", f"dimension {d} exceeds bound {limit}",
                            d=d, bound=limit)
    num, den = sched.delta.numerator, sched.delta.denominator
    grid = tuple(tuple(x * num for x in row) for row in rows)
    return Embedding(g, f, picks, pn, sched, PointSet(d, grid, den))
