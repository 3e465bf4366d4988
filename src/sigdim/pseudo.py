"""Pseudo-neighborhoods and the per-vertex radius schedule.

Every factor component induces a construction-specific neighbor map N,
distinct from graph adjacency:

  * star: the center's pseudo-neighbors are its leaves, each leaf's is the
    center;
  * matching edge: the two endpoints point at each other;
  * triangle: the earliest-picked vertex (ties by index) points at the other
    two, which point back at it only.

N2(v) collects pseudo-neighbors of pseudo-neighbors and always contains v.
A vertex with N2(v) = {v} is called central.  ``build_pseudo`` builds N and N2
once, as vertex masks, for every reader.  The schedule assigns
r(v) = r - 2*delta*m(v), where m(v) is the first pick index whose group meets
N(v) union N2(v), and delta = r/(6n): in delta units, which the block tables
use, r(v) = 6n - 2m(v).  The default r = 12n gives delta = 2, integer coordinates.
N is symmetric, so N | N2 is too, and m is taken in one pass over the picks.
The integer m is the schedule: it is what ``validate_schedule`` checks, and the
Fraction radii are built from it once, for the embedding file and ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_

from .errors import PipelineError
from .factor import StarTriangleFactor
from .graphs import lowest, mask_of, members
from .picking import PickSequence


@dataclass(frozen=True)
class PseudoNeighborhood:
    """N(v), N2(v) and N(v) | N2(v) of every vertex v, as the masks ``near[v]``,
    ``second[v]`` and ``related[v]``."""
    near: list[int]
    second: list[int]

    @cached_property
    def related(self) -> list[int]:
        return list(map(or_, self.near, self.second))

    def reach(self, vertices) -> int:
        """N_k of a picked group, as a mask: the union of N(v) and N2(v) over the group."""
        return reduce(or_, map(self.related.__getitem__, vertices), 0)

    @cached_property
    def n1(self) -> dict[int, frozenset[int]]:
        """N(v) as a vertex set, for readers that count pseudo-neighbors."""
        return {v: frozenset(members(x)) for v, x in enumerate(self.near)}


def build_pseudo(f: StarTriangleFactor, picks: PickSequence) -> PseudoNeighborhood:
    near = [0] * picks.earlier[-1].bit_length()
    for u, leaves in f.stars.items():
        near[u] = mask_of(leaves)
        for x in leaves:
            near[x] = 1 << u
    for u, v in f.residual.edges:
        near[u], near[v] = 1 << v, 1 << u
    index = picks.index_of()
    for tri in f.triangles:
        x, y, z = sorted(tri, key=lambda v: (index[v], v))
        near[x], near[y], near[z] = 1 << y | 1 << z, 1 << x, 1 << x

    missing = [v for v in index if not near[v]]
    if missing:
        raise PipelineError("schedule", f"vertices {missing} not covered by the factor",
                            vertices=missing)
    second = [reduce(or_, map(near.__getitem__, members(x)), 0) for x in near]
    for v, x in enumerate(second):
        if not x >> v & 1:
            raise PipelineError("schedule", f"vertex {v} not in its own N2", vertex=v)
    return PseudoNeighborhood(near, second)


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
    n = len(pn.near)
    m, todo = [0] * n, (1 << n) - 1
    for p in picks.picks:  # the first pick whose reach holds v sets m(v), by symmetry
        reach = pn.reach(p.vertices)
        for v in members(reach & todo):
            m[v] = p.k
        todo &= ~reach
    # r(v) = r - 2*delta*m(v) = (r/(3n)) * (3n - m(v)): one Fraction per distinct m.
    unit = Fraction(r, 3 * n)
    radius = {k: unit * (3 * n - k) for k in set(m)}
    return RadiusSchedule(r, dict(enumerate(m)), {v: radius[k] for v, k in enumerate(m)})


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
    at = [0] * n  # at[j]: the vertices with m = j
    for v, mv in m.items():
        if not 0 <= mv < n:
            raise PipelineError("schedule", f"m({v}) = {mv} outside [0, {n})",
                                vertex=v, m=mv)
        at[mv] |= 1 << v

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

    above = mask_of(m)  # the vertices whose m exceeds the block's k
    for p in picks.picks:
        if not 0 <= p.k < n - 1:
            raise PipelineError("schedule", f"cutoff for block {p.k} out of range", k=p.k)
        above &= ~at[p.k]
        if late := pn.reach(p.vertices) & above:
            v = lowest(late)
            raise PipelineError("schedule", f"m({v}) = {m[v]} above block {p.k}",
                                k=p.k, vertex=v)
