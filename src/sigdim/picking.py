"""Ordered vertex-group selection driving the coordinate assignment.

The selection runs in phases over the star-triangle factor:

  * While at least three stars survive, take a triple of centers/leaves from
    three distinct stars (steps 3-11 of the selection procedure), preferring
    an independent triple of centers, then triples with one or two leaves
    substituted, finally three leaves (always independent).
  * The last one or two star centers are picked as a plain pair/singleton
    (steps 18-19).
  * From the unpicked remainder: independent triples with no two vertices in
    one leaf group (step 22), then triples carrying exactly one edge
    (step 24), then the leaf-group endgame (steps 26-39), then non-adjacent
    pairs (step 40), then the remaining clique as triples plus a final
    pair/singleton (steps 42-45).

Each picked set is tagged with one of eight classes that decides which
coordinate table embeds it, and with the step that emitted it.  All searches
take the lexicographically smallest eligible tuple, so the sequence is a pure
function of the graph and factor.  The step-22, 24 and 40 scans read the
graph's neighbour bitmasks (``Graph.masks``): for each a < b in that same
order, the smallest fitting c is the lowest bit of one candidate mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, combinations
from operator import or_
from typing import Any, Iterable

from .errors import PipelineError
from .factor import StarTriangleFactor
from .graphs import Graph, lowest, mask_of, members


class PickClass(str, Enum):
    RANDOM = "I"              # pairs or singletons, one dimension per vertex
    RESIDUAL = "II"           # leftover leaf group, log-many dimensions
    NONADJACENT_PAIR = "III"
    CLIQUE_TRIPLE = "IV"
    TWO_LEAF_TRIPLE = "V"     # outside vertex + two leaves, independent
    ONE_LEAF_EDGE_TRIPLE = "VI"  # leaf + adjacent pair outside, two edges
    ONE_EDGE_TRIPLE = "VII"
    SUPER_TRIPLE = "VIII"     # independent, no two in one star


# Steps allowed to emit each class (classification table).
CLASS_STEPS: dict[PickClass, frozenset[int]] = {
    PickClass.RANDOM: frozenset({18, 19, 30, 37, 45}),
    PickClass.RESIDUAL: frozenset({27, 32, 38}),
    PickClass.NONADJACENT_PAIR: frozenset({40}),
    PickClass.CLIQUE_TRIPLE: frozenset({43}),
    PickClass.TWO_LEAF_TRIPLE: frozenset({33}),
    PickClass.ONE_LEAF_EDGE_TRIPLE: frozenset({35}),
    PickClass.ONE_EDGE_TRIPLE: frozenset({24}),
    PickClass.SUPER_TRIPLE: frozenset({7, 9, 10, 11, 22}),
}


@dataclass(frozen=True)
class PickedSet:
    k: int
    vertices: tuple[int, ...]
    cls: PickClass
    step: int
    roles: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "class": self.cls.value,
            "step": self.step,
            "vertices": list(self.vertices),
            "roles": dict(sorted(self.roles.items())),
        }


@dataclass(frozen=True)
class PickSequence:
    picks: tuple[PickedSet, ...]

    def __post_init__(self) -> None:
        if any(p.k != i for i, p in enumerate(self.picks)):
            raise ValueError("picks must be numbered by position: picks[i].k == i")

    @property
    def count(self) -> int:
        return len(self.picks)

    @cached_property
    def earlier(self) -> list[int]:
        """earlier[k]: mask of the vertices picked before block k, for k = 0..count."""
        return list(accumulate((mask_of(p.vertices) for p in self.picks), or_, initial=0))

    def index_of(self) -> dict[int, int]:
        return {v: p.k for p in self.picks for v in p.vertices}

    def to_json(self) -> list[dict[str, Any]]:
        return [p.to_json() for p in self.picks]


class _Run:
    def __init__(self, g: Graph, f: StarTriangleFactor):
        self.g = g
        self.f = f
        self.star = {u: mask_of(s) for u, s in f.stars.items()}  # each center's leaves
        self.full, self.picked = (1 << g.n) - 1, 0  # all vertices, and those picked, as masks
        self.picks: list[PickedSet] = []

    # -- shared helpers ----------------------------------------------------

    def fail(self, step: int, message: str, **details: Any) -> PipelineError:
        return PipelineError("picker", f"step {step}: {message}", step=step, **details)

    def independent(self, vs: tuple[int, ...]) -> bool:
        return _edges_within(self.g, vs) == 0

    def emit(self, vertices: Iterable[int], cls: PickClass, step: int,
             roles: dict[str, int] | None = None) -> None:
        vs = tuple(sorted(vertices))
        if not vs:
            raise self.fail(step, "empty pick")
        if dup := self.picked & (mask := mask_of(vs)):
            raise self.fail(step, f"vertex {lowest(dup)} picked twice", vertex=lowest(dup))
        self.picks.append(PickedSet(len(self.picks), vs, cls, step, roles or {}))
        self.picked |= mask

    def live(self, u: int) -> int:
        """The leaves of u's star not yet picked, as a mask."""
        return self.star[u] & ~self.picked

    def stars_left(self) -> list[int]:
        """Stars still in play: the center unpicked and some leaves live."""
        return [u for u in sorted(self.star) if not self.picked >> u & 1 and self.live(u)]

    # -- phase 1: triples drawn from three distinct stars --------------------

    def star_loop(self) -> None:
        while len(stars := self.stars_left()) >= 3:
            # A: stars with all leaves live; B: stars that lost some.
            take_a = [u for u in stars if self.live(u) == self.star[u]]
            take_b = [u for u in stars if self.live(u) != self.star[u]]
            nb = len(take_b)
            if nb > 3:
                raise self.fail(2, f"more than three partially used stars: {nb}")
            x, y, z = take_a[:3 - nb] + take_b

            if self.independent((x, y, z)):
                self.emit((x, y, z), PickClass.SUPER_TRIPLE, 7)
                continue
            x1, y1, z1 = (lowest(self.live(u)) for u in (x, y, z))
            candidates = [
                ((x1, y, z), 9), ((x, y1, z), 9), ((x, y, z1), 9),
                ((x, y1, z1), 10), ((x1, y, z1), 10), ((x1, y1, z), 10),
            ]
            for triple, step in candidates:
                if self.independent(triple):
                    self.emit(triple, PickClass.SUPER_TRIPLE, step)
                    break
            else:
                if not self.independent((x1, y1, z1)):
                    raise self.fail(
                        11, "leaves of three distinct stars are not independent",
                        triple=(x1, y1, z1),
                    )
                self.emit((x1, y1, z1), PickClass.SUPER_TRIPLE, 11)

    # -- phase 2: remaining star centers -------------------------------------

    def leftover_centers(self) -> None:
        if rem := self.stars_left():  # one or two: the star loop leaves fewer than three
            self.emit(rem, PickClass.RANDOM, 18 if len(rem) == 2 else 19)

    # -- phases over the unpicked remainder ----------------------------------

    def unpicked(self) -> list[int]:
        return members(self.full & ~self.picked)

    def triple_scan(self, wanted_edges: int) -> tuple[int, int, int] | None:
        """Smallest unpicked a < b < c with `wanted_edges` (0 or 1) edges, no two
        in one leaf group."""
        nbr, mates = self.g.masks, self.f.mates
        free = self.full & ~self.picked
        for a in members(free):
            na = nbr[a]
            bs = free & ~mates.get(a, 0) & -(2 << a)  # b, then c: unpicked, above a
            if not wanted_edges:
                bs &= ~na
            while bs:
                b = lowest(bs)
                bs &= bs - 1
                cs = na ^ nbr[b] if wanted_edges and not na >> b & 1 else ~(na | nbr[b])
                if cs := cs & bs & ~mates.get(b, 0):
                    return a, b, lowest(cs)
        return None

    def independent_triples(self) -> None:
        while (t := self.triple_scan(0)) is not None:
            self.emit(t, PickClass.SUPER_TRIPLE, 22)

    def one_edge_triples(self) -> None:
        while (t := self.triple_scan(1)) is not None:
            (s,) = (v for v in t if not self.g.masks[v] & mask_of(t))
            p, q = (v for v in t if v != s)
            self.emit(t, PickClass.ONE_EDGE_TRIPLE, 24, roles={"p": p, "q": q, "s": s})

    def leaf_group_endgame(self) -> bool:
        """Steps 26-39.  Returns True when the whole selection must stop."""
        groups = [u for u in sorted(self.star) if self.live(u)]
        if len(groups) > 2:
            raise self.fail(26, f"{len(groups)} leaf groups still unpicked", groups=groups)
        for u in groups:
            if not self.picked >> u & 1:
                raise self.fail(26, f"center {u} of live leaf group never picked", center=u)
        if not groups:
            return False
        if len(groups) == 2:
            self.emit(members(self.live(groups[0]) | self.live(groups[1])), PickClass.RESIDUAL, 27)
            return False

        w = groups[0]
        while True:
            dw = self.live(w)
            leaves = members(dw)
            if len(leaves) <= 2:  # step 30
                self.emit(leaves, PickClass.RANDOM, 30)
                return False
            outside = members(self.full & ~(self.picked | dw))
            if not outside:  # step 32
                self.emit(leaves, PickClass.RESIDUAL, 32)
                return True
            if (self._two_leaf_triple(outside, leaves, w)
                    or self._leaf_edge_triple(outside, leaves, w)):
                continue
            if len(outside) == 1:  # step 37
                self.emit(outside, PickClass.RANDOM, 37)
            self.emit(leaves, PickClass.RESIDUAL, 38)
            return False

    def _two_leaf_triple(self, outside, leaves, w) -> bool:
        """Step 33: an outside v0 and leaves w1 < w2 of w, independent; True if emitted."""
        for v0 in outside:
            for w1, w2 in combinations(leaves, 2):
                if self.independent((v0, w1, w2)):
                    self.emit((v0, w1, w2), PickClass.TWO_LEAF_TRIPLE, 33,
                              roles={"v0": v0, "w1": w1, "w2": w2, "w": w})
                    return True
        return False

    def _leaf_edge_triple(self, outside, leaves, w) -> bool:
        """Step 35: a leaf w0 of w and an outside edge v1v2 with w0 on v1 only."""
        nbr = self.g.masks
        for w0 in leaves:
            for va, vb in combinations(outside, 2):
                if nbr[va] >> vb & 1 and (nbr[w0] >> va ^ nbr[w0] >> vb) & 1:
                    v1, v2 = (va, vb) if nbr[w0] >> va & 1 else (vb, va)
                    self.emit((w0, v1, v2), PickClass.ONE_LEAF_EDGE_TRIPLE, 35,
                              roles={"w0": w0, "v1": v1, "v2": v2, "w": w})
                    return True
        return False

    def nonadjacent_pairs(self) -> None:
        """Step 40: repeatedly the smallest unpicked pair a < b with ab not an edge."""
        free = self.full & ~self.picked
        for a in members(free):
            qs = free & ~self.g.masks[a] & -(2 << a)
            if free >> a & 1 and qs:
                b = lowest(qs)
                self.emit((a, b), PickClass.NONADJACENT_PAIR, 40, roles={"p": a, "q": b})
                free &= ~(1 << a | 1 << b)

    def clique_sweep(self) -> None:
        rest = self.unpicked()
        if 2 * _edges_within(self.g, rest) != len(rest) * (len(rest) - 1):
            raise self.fail(42, "remainder is not a clique", vertices=rest)
        while len(rest) >= 3:
            self.emit(rest[:3], PickClass.CLIQUE_TRIPLE, 43)
            rest = rest[3:]
        if rest:
            self.emit(rest, PickClass.RANDOM, 45)


def _edges_within(g: Graph, vs: tuple[int, ...] | list[int]) -> int:
    """Edges of g with both ends in vs, which holds distinct vertices."""
    m = mask_of(vs)
    return sum((g.masks[v] & m).bit_count() for v in vs) // 2


def pick_vertices(g: Graph, f: StarTriangleFactor) -> PickSequence:
    run = _Run(g, f)
    run.star_loop()
    run.leftover_centers()
    run.independent_triples()
    run.one_edge_triples()
    if not run.leaf_group_endgame():
        run.nonadjacent_pairs()
        run.clique_sweep()
    if run.unpicked():
        raise run.fail(47, f"vertices left unpicked: {run.unpicked()}")
    return PickSequence(tuple(run.picks))


def validate_picks(g: Graph, f: StarTriangleFactor, seq: PickSequence) -> None:
    """Re-check the partition, per-class predicates, and ordering guarantees."""
    seen: set[int] = set()
    for p in seq.picks:
        for v in p.vertices:
            if v in seen:
                raise PipelineError("picker", f"vertex {v} picked twice", vertex=v)
            seen.add(v)
    if seen != set(range(g.n)):
        raise PipelineError("picker", "picked sets do not partition the vertices",
                            missing=sorted(set(range(g.n)) - seen))

    residuals = [p for p in seq.picks if p.cls is PickClass.RESIDUAL]
    randoms = [p for p in seq.picks if p.cls is PickClass.RANDOM]
    if len(residuals) > 1:
        raise PipelineError("picker", "more than one residual set")
    if len(randoms) > 3:
        raise PipelineError("picker", f"{len(randoms)} plain sets, at most 3 allowed")
    if residuals and any(p.step == 30 for p in randoms):
        raise PipelineError("picker", "residual set coexists with a step-30 pick")

    for p in seq.picks:
        if p.step not in CLASS_STEPS[p.cls]:
            raise PipelineError("picker", f"class {p.cls.value} emitted by step {p.step}",
                                k=p.k, step=p.step)
        _check_class_shape(g, f, p)

    _check_later_adjacency(g, f, seq)


def _check_class_shape(g: Graph, f: StarTriangleFactor, p: PickedSet) -> None:
    vs = p.vertices
    edges = _edges_within(g, vs)
    center = f.leaf_center.get
    real_owners = [f.leaf_center[v] for v in vs if v in f.leaf_center]

    def bad(msg: str) -> PipelineError:
        return PipelineError("picker", f"P_{p.k} ({p.cls.value}): {msg}",
                             k=p.k, vertices=vs)

    if p.cls is PickClass.RANDOM:
        if len(vs) not in (1, 2):
            raise bad("size must be 1 or 2")
    elif p.cls is PickClass.NONADJACENT_PAIR:
        if len(vs) != 2 or edges:
            raise bad("must be a non-adjacent pair")
    elif p.cls is PickClass.CLIQUE_TRIPLE:
        if len(vs) != 3 or edges != 3:
            raise bad("must induce a triangle")
    elif p.cls is PickClass.SUPER_TRIPLE:
        if len(vs) != 3 or edges:
            raise bad("must be an independent triple")
        if len(real_owners) != len(set(real_owners)):
            raise bad("two vertices share one star")
    elif p.cls is PickClass.ONE_EDGE_TRIPLE:
        if len(vs) != 3 or edges != 1:
            raise bad("must carry exactly one edge")
        if not g.has_edge(p.roles["p"], p.roles["q"]):
            raise bad("edge must join the vertices labeled p and q")
        if len(real_owners) != len(set(real_owners)):
            raise bad("two vertices share one star")
    elif p.cls is PickClass.TWO_LEAF_TRIPLE:
        v0, w1, w2, w = (p.roles[r] for r in ("v0", "w1", "w2", "w"))
        if edges:
            raise bad("must be independent")
        if center(w1) != w or center(w2) != w or center(v0) == w:
            raise bad("needs two leaves of the last star plus an outsider")
    elif p.cls is PickClass.ONE_LEAF_EDGE_TRIPLE:
        w0, v1, v2, w = (p.roles[r] for r in ("w0", "v1", "v2", "w"))
        if edges != 2 or not g.has_edge(v1, v2):
            raise bad("needs exactly the edges v1v2 and w0v1")
        if not g.has_edge(w0, v1) or g.has_edge(w0, v2):
            raise bad("w0 must touch exactly v1")
        if center(w0) != w:
            raise bad("w0 must be a leaf of the last star")
    elif p.cls is PickClass.RESIDUAL:
        if len(set(real_owners)) not in (1, 2) or len(real_owners) != len(vs):
            raise bad("residual must consist of leaves of at most two stars")


def _check_later_adjacency(g: Graph, f: StarTriangleFactor, seq: PickSequence) -> None:
    """Later-picked vertices are adjacent to residual sets, non-adjacent pairs,
    and (outside the star) to independent leaf-pair triples."""
    for p in reversed(seq.picks):
        later, must = seq.earlier[-1] & ~seq.earlier[p.k + 1], 0
        if p.cls is PickClass.RESIDUAL or p.cls is PickClass.NONADJACENT_PAIR:
            must = later
        elif p.cls is PickClass.TWO_LEAF_TRIPLE:
            must = later & ~mask_of(f.stars[p.roles["w"]])
        for u in p.vertices:
            if missed := must & ~g.masks[u]:
                v = lowest(missed)
                raise PipelineError("picker", f"P_{p.k} ({p.cls.value}): later vertex {v} "
                                    f"not adjacent to {u}", k=p.k, pair=(u, v))
