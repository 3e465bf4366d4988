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
The integer m is the schedule: it is what ``validate_schedule`` checks, and the
Fraction radii are built from it once, for the embedding file and ``verify``.
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
    r: int | Fraction
    m: dict[int, int]
    rv: dict[int, Fraction]

    @property
    def delta(self) -> Fraction:
        return Fraction(self.r, 6 * len(self.m))


def default_radius(n: int) -> Fraction:
    return Fraction(12 * n)


def radius_schedule(pn: PseudoNeighborhood, picks: PickSequence,
                    r: int | Fraction) -> RadiusSchedule:
    if type(r) not in (int, Fraction) or r <= 0:
        raise ValueError(f"radius must be a positive int or Fraction, got {r!r}")
    n = len(pn.n1)
    index = picks.index_of()
    m = {v: min(index[u] for u in pn.related(v)) for v in pn.n1}
    # r(v) = r - 2*delta*m(v) = (r/(3n)) * (3n - m(v)): one Fraction per distinct m.
    unit = Fraction(r, 3 * n)
    radius = {k: unit * (3 * n - k) for k in set(m.values())}
    return RadiusSchedule(r, m, {v: radius[k] for v, k in m.items()})


def validate_schedule(f: StarTriangleFactor, pn: PseudoNeighborhood,
                      picks: PickSequence, sched: RadiusSchedule) -> None:
    """Check the schedule's guarantees, each as its equivalent on the integer m.

    With r > 0 and r(v) = r - 2*delta*m(v), delta = r/(6n) <= r/6 (so no
    separate bound on delta is needed), and cutoff_k = r - 2*delta*(k + 1):

      * 2r/3 < r(v) <= r  <=>  0 <= m(v) < n;
      * a factor component's radii agree  <=>  their m values agree;
      * cutoff_k lies in (2r/3, r)  <=>  0 <= k and k + 1 < n;
      * r(v) > cutoff_k  <=>  m(v) <= k, for v in reach(P_k).
    """
    m = sched.m
    n = len(m)
    for v, mv in m.items():
        if not 0 <= mv < n:
            raise PipelineError("schedule", f"m({v}) = {mv} outside [0, {n})",
                                vertex=v, m=mv)

    # Radii agree inside every factor component.
    for u, leaves in f.stars.items():
        for x in leaves:
            if m[x] != m[u]:
                raise PipelineError("schedule", f"leaf {x} and center {u} disagree on m",
                                    pair=(u, x))
    for tri in f.triangles:
        if len({m[v] for v in tri}) != 1:
            raise PipelineError("schedule", f"triangle {tri} disagrees on m")
    for u, v in f.residual.edges:
        if m[u] != m[v]:
            raise PipelineError("schedule", f"matched pair {(u, v)} disagrees on m")

    for p in picks.picks:
        if not 0 <= p.k < n - 1:
            raise PipelineError("schedule", f"cutoff for block {p.k} out of range", k=p.k)
        for v in pn.reach(p.vertices):
            if m[v] > p.k:
                raise PipelineError("schedule", f"m({v}) = {m[v]} above block {p.k}",
                                    k=p.k, vertex=v)
