"""Pseudo-neighborhoods and the per-vertex radius schedule.

Every factor component induces a construction-specific neighbor map N,
distinct from graph adjacency:

  * star: the center's pseudo-neighbors are its leaves, each leaf's is the
    center;
  * matching edge: the two endpoints point at each other;
  * triangle: the earliest-picked vertex (ties by index) points at the other
    two, which point back at it only.

N2(v) collects pseudo-neighbors of pseudo-neighbors and always contains v.
A vertex with N2(v) = {v} is called central.  The schedule assigns
r(v) = r - 2*delta*m(v), where m(v) is the first pick index whose group meets
N(v) union N2(v), and delta = r/(6n): in delta units, which the block tables
use, r(v) = 6n - 2m(v).  The default r = 12n gives delta = 2, integer coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PipelineError
from .factor import StarTriangleFactor

from .picking import PickSequence


@dataclass(frozen=True)
class PseudoNeighborhood:
    n1: dict[int, frozenset[int]]
    n2: dict[int, frozenset[int]]

    def related(self, v: int) -> frozenset[int]:
        return self.n1[v] | self.n2[v]

    def is_central(self, v: int) -> bool:
        return self.n2[v] == frozenset((v,))

    def reach(self, vertices) -> frozenset[int]:
        """N_k of a picked group: union of N(v) and N2(v) over the group."""
        out: set[int] = set()
        for v in vertices:
            out |= self.n1[v]
            out |= self.n2[v]
        return frozenset(out)


def build_pseudo(f: StarTriangleFactor, picks: PickSequence) -> PseudoNeighborhood:
    n1: dict[int, set[int]] = {}
    for u, leaves in f.stars.items():
        n1[u] = set(leaves)
        for x in leaves:
            n1[x] = {u}
    for u, v in f.residual.edges:
        n1[u] = {v}
        n1[v] = {u}
    index = picks.index_of()
    for tri in f.triangles:
        x, y, z = sorted(tri, key=lambda v: (index[v], v))
        n1[x] = {y, z}
        n1[y] = {x}
        n1[z] = {x}

    missing = [v for v in index if v not in n1]
    if missing:
        raise PipelineError("schedule", f"vertices {missing} not covered by the factor",
                            vertices=missing)
    n2 = {v: frozenset(w for u in n1[v] for w in n1[u]) for v in n1}
    for v, s in n2.items():
        if v not in s:
            raise PipelineError("schedule", f"vertex {v} not in its own N2", vertex=v)
    return PseudoNeighborhood({v: frozenset(s) for v, s in n1.items()}, n2)


@dataclass(frozen=True)
class RadiusSchedule:
    r: Fraction
    delta: Fraction
    m: dict[int, int]
    rv: dict[int, Fraction]


def default_radius(n: int) -> Fraction:
    return Fraction(12 * n)


def radius_schedule(pn: PseudoNeighborhood, picks: PickSequence,
                    r: Fraction) -> RadiusSchedule:
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    n = len(pn.n1)
    delta = r / (6 * n)
    index = picks.index_of()
    m: dict[int, int] = {}
    for v in pn.n1:
        m[v] = min(index[u] for u in pn.related(v))
    rv = {v: r - 2 * delta * m[v] for v in m}
    return RadiusSchedule(r, delta, m, rv)


def validate_schedule(f: StarTriangleFactor, pn: PseudoNeighborhood,
                      picks: PickSequence, sched: RadiusSchedule) -> None:
    r, delta = sched.r, sched.delta
    if delta > r / 6:
        raise PipelineError("schedule", f"delta {delta} exceeds r/6")
    for v, val in sched.rv.items():
        if not 2 * r / 3 < val <= r:
            raise PipelineError("schedule", f"r({v}) = {val} outside (2r/3, r]",
                                vertex=v, value=val)

    # Radii agree inside every factor component.
    for u, leaves in f.stars.items():
        for x in leaves:
            if sched.rv[x] != sched.rv[u]:
                raise PipelineError("schedule", f"leaf {x} and center {u} disagree",
                                    pair=(u, x))
    for tri in f.triangles:
        if len({sched.rv[v] for v in tri}) != 1:
            raise PipelineError("schedule", f"triangle {tri} radii disagree")
    for u, v in f.residual.edges:
        if sched.rv[u] != sched.rv[v]:
            raise PipelineError("schedule", f"matched pair {u}{v} radii disagree")

    for p in picks.picks:
        cutoff = r - 2 * delta * (p.k + 1)
        if not 2 * r / 3 < cutoff < r:
            raise PipelineError("schedule", f"cutoff for block {p.k} out of range",
                                k=p.k, value=cutoff)
        for v in pn.reach(p.vertices):
            if not sched.rv[v] > cutoff:
                raise PipelineError(
                    "schedule",
                    f"r({v}) = {sched.rv[v]} not above block-{p.k} cutoff {cutoff}",
                    k=p.k, vertex=v,
                )
