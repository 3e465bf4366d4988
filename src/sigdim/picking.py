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
function of the graph and factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Any, Iterable

from .errors import PipelineError
from .factor import StarTriangleFactor
from .graphs import Graph


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

    @property
    def count(self) -> int:
        return len(self.picks)

    def index_of(self) -> dict[int, int]:
        return {v: p.k for p in self.picks for v in p.vertices}

    def to_json(self) -> list[dict[str, Any]]:
        return [p.to_json() for p in self.picks]


class _Run:
    def __init__(self, g: Graph, f: StarTriangleFactor):
        self.g = g
        self.f = f
        self.live: dict[int, set[int]] = {u: set(s) for u, s in f.stars.items()}
        self.picked: set[int] = set()
        self.picks: list[PickedSet] = []

    # -- shared helpers ----------------------------------------------------

    def fail(self, step: int, message: str, **details: Any) -> PipelineError:
        return PipelineError("picker", f"step {step}: {message}", step=step, **details)

    def independent(self, vs: Iterable[int]) -> bool:
        return all(not self.g.has_edge(a, b) for a, b in combinations(tuple(vs), 2))

    def edge_count(self, vs: tuple[int, ...]) -> int:
        return sum(1 for a, b in combinations(vs, 2) if self.g.has_edge(a, b))

    def same_group(self, vs: tuple[int, ...]) -> bool:
        """True when two of vs are leaves of one star; callers pass unpicked vertices."""
        owner = self.f.leaf_center
        owners = [owner[v] for v in vs if v in owner]
        return len(owners) != len(set(owners))

    def emit(self, vertices: Iterable[int], cls: PickClass, step: int,
             roles: dict[str, int] | None = None) -> None:
        vs = tuple(sorted(vertices))
        if not vs:
            raise self.fail(step, "empty pick")
        for v in vs:
            if v in self.picked:
                raise self.fail(step, f"vertex {v} picked twice", vertex=v)
        self.picks.append(PickedSet(len(self.picks), vs, cls, step, roles or {}))
        for v in vs:
            self.picked.add(v)
            u = self.f.leaf_center.get(v)
            if u is not None:
                self.live[u].discard(v)

    def stars_left(self) -> list[int]:
        """Stars still in play: the center unpicked and some leaves live."""
        return [u for u in sorted(self.live) if u not in self.picked and self.live[u]]

    # -- phase 1: triples drawn from three distinct stars --------------------

    def star_loop(self) -> None:
        while len(stars := self.stars_left()) >= 3:
            # A: stars with all leaves live; B: stars that lost some.
            take_a = [u for u in stars if len(self.live[u]) == len(self.f.stars[u])]
            take_b = [u for u in stars if len(self.live[u]) < len(self.f.stars[u])]
            nb = len(take_b)
            if nb > 3:
                raise self.fail(2, f"more than three partially used stars: {nb}")
            if nb == 0:
                x, y, z = take_a[:3]
            elif nb == 1:
                x, y = take_a[:2]
                z = take_b[0]
            elif nb == 2:
                x = take_a[0]
                y, z = take_b[:2]
            else:
                x, y, z = take_b[:3]

            if self.independent((x, y, z)):
                self.emit((x, y, z), PickClass.SUPER_TRIPLE, 7)
                continue
            x1 = min(self.live[x])
            y1 = min(self.live[y])
            z1 = min(self.live[z])
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
        rem = self.stars_left()
        if len(rem) == 2:
            self.emit(rem, PickClass.RANDOM, 18)
        elif len(rem) == 1:
            self.emit(rem, PickClass.RANDOM, 19)

    # -- phases over the unpicked remainder ----------------------------------

    def unpicked(self) -> list[int]:
        return [v for v in range(self.g.n) if v not in self.picked]

    def triple_scan(self, wanted_edges: int, step: int) -> tuple[int, ...] | None:
        for triple in combinations(self.unpicked(), 3):
            if self.same_group(triple):
                continue
            if self.edge_count(triple) == wanted_edges:
                return triple
        return None

    def independent_triples(self) -> None:
        while (t := self.triple_scan(0, 22)) is not None:
            self.emit(t, PickClass.SUPER_TRIPLE, 22)

    def one_edge_triples(self) -> None:
        while (t := self.triple_scan(1, 24)) is not None:
            pairs = [(a, b) for a, b in combinations(t, 2) if self.g.has_edge(a, b)]
            p, q = pairs[0]
            (s,) = (v for v in t if v not in (p, q))
            self.emit(t, PickClass.ONE_EDGE_TRIPLE, 24, roles={"p": p, "q": q, "s": s})

    def leaf_group_endgame(self) -> bool:
        """Steps 26-39.  Returns True when the whole selection must stop."""
        groups = [u for u in sorted(self.live) if self.live[u]]
        if len(groups) > 2:
            raise self.fail(26, f"{len(groups)} leaf groups still unpicked", groups=groups)
        for u in groups:
            if u not in self.picked:
                raise self.fail(26, f"center {u} of live leaf group never picked", center=u)
        if not groups:
            return False
        if len(groups) == 2:
            merged = sorted(self.live[groups[0]] | self.live[groups[1]])
            self.emit(merged, PickClass.RESIDUAL, 27)
            return False

        w = groups[0]
        dw = self.live[w]
        while True:
            if len(dw) <= 2:  # step 30
                self.emit(sorted(dw), PickClass.RANDOM, 30)
                return False
            outside = sorted(set(self.unpicked()) - dw)
            if not outside:  # step 32
                self.emit(sorted(dw), PickClass.RESIDUAL, 32)
                return True
            found = self._independent_leaf_pair_triple(outside, dw)
            if found is not None:  # step 33
                v0, w1, w2 = found
                self.emit((v0, w1, w2), PickClass.TWO_LEAF_TRIPLE, 33,
                          roles={"v0": v0, "w1": w1, "w2": w2, "w": w})
                continue
            found = self._leaf_edge_triple(outside, dw)
            if found is not None:  # step 35
                w0, v1, v2 = found
                self.emit((w0, v1, v2), PickClass.ONE_LEAF_EDGE_TRIPLE, 35,
                          roles={"w0": w0, "v1": v1, "v2": v2, "w": w})
                continue
            if len(outside) == 1:  # step 37
                self.emit(outside, PickClass.RANDOM, 37)
            self.emit(sorted(dw), PickClass.RESIDUAL, 38)
            return False

    def _independent_leaf_pair_triple(self, outside, dw) -> tuple[int, int, int] | None:
        for v0 in outside:
            for w1, w2 in combinations(sorted(dw), 2):
                if self.independent((v0, w1, w2)):
                    return v0, w1, w2
        return None

    def _leaf_edge_triple(self, outside, dw) -> tuple[int, int, int] | None:
        for w0 in sorted(dw):
            for va, vb in combinations(outside, 2):
                if not self.g.has_edge(va, vb):
                    continue
                hits = self.g.has_edge(w0, va) + self.g.has_edge(w0, vb)
                if hits == 1:
                    v1, v2 = (va, vb) if self.g.has_edge(w0, va) else (vb, va)
                    return w0, v1, v2
        return None

    def nonadjacent_pairs(self) -> None:
        while True:
            rest = self.unpicked()
            pair = next(
                (pq for pq in combinations(rest, 2) if not self.g.has_edge(*pq)), None
            )
            if pair is None:
                return
            self.emit(pair, PickClass.NONADJACENT_PAIR, 40,
                      roles={"p": pair[0], "q": pair[1]})

    def clique_sweep(self) -> None:
        rest = self.unpicked()
        if not self.independent_complement(rest):
            raise self.fail(42, "remainder is not a clique", vertices=rest)
        while len(rest) >= 3:
            self.emit(rest[:3], PickClass.CLIQUE_TRIPLE, 43)
            rest = rest[3:]
        if rest:
            self.emit(rest, PickClass.RANDOM, 45)

    def independent_complement(self, vs: list[int]) -> bool:
        return all(self.g.has_edge(a, b) for a, b in combinations(vs, 2))


def pick_vertices(g: Graph, f: StarTriangleFactor) -> PickSequence:
    run = _Run(g, f)
    run.star_loop()
    run.leftover_centers()
    run.independent_triples()
    run.one_edge_triples()
    stop = run.leaf_group_endgame()
    if not stop:
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
    edges = sum(1 for a, b in combinations(vs, 2) if g.has_edge(a, b))
    owners = [f.star_of(v) for v in vs]
    real_owners = [o for o in owners if o is not None]

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
        if f.star_of(w1) != w or f.star_of(w2) != w or f.star_of(v0) == w:
            raise bad("needs two leaves of the last star plus an outsider")
    elif p.cls is PickClass.ONE_LEAF_EDGE_TRIPLE:
        w0, v1, v2, w = (p.roles[r] for r in ("w0", "v1", "v2", "w"))
        if edges != 2 or not g.has_edge(v1, v2):
            raise bad("needs exactly the edges v1v2 and w0v1")
        if not g.has_edge(w0, v1) or g.has_edge(w0, v2):
            raise bad("w0 must touch exactly v1")
        if f.star_of(w0) != w:
            raise bad("w0 must be a leaf of the last star")
    elif p.cls is PickClass.RESIDUAL:
        if len(set(real_owners)) not in (1, 2) or len(real_owners) != len(vs):
            raise bad("residual must consist of leaves of at most two stars")


def _check_later_adjacency(g: Graph, f: StarTriangleFactor, seq: PickSequence) -> None:
    """Later-picked vertices are adjacent to residual sets, non-adjacent pairs,
    and (outside the star) to independent leaf-pair triples."""
    for p in seq.picks:
        later = [v for q in seq.picks[p.k + 1:] for v in q.vertices]
        if p.cls is PickClass.RESIDUAL or p.cls is PickClass.NONADJACENT_PAIR:
            for u in p.vertices:
                for v in later:
                    if not g.has_edge(u, v):
                        raise PipelineError(
                            "picker",
                            f"P_{p.k} ({p.cls.value}): later vertex {v} "
                            f"not adjacent to {u}",
                            k=p.k, pair=(u, v),
                        )
        elif p.cls is PickClass.TWO_LEAF_TRIPLE:
            star = f.stars[p.roles["w"]]
            for v in later:
                if v in star:
                    continue
                for u in p.vertices:
                    if not g.has_edge(u, v):
                        raise PipelineError(
                            "picker",
                            f"P_{p.k} (V): later outside vertex {v} "
                            f"not adjacent to {u}",
                            k=p.k, pair=(u, v),
                        )
