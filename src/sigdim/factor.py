"""Induced star-triangle factor of a graph without isolated vertices.

Starting from a maximum matching, every unmatched vertex is folded into a
star around one of its (necessarily matched) neighbors; two-leaf stars whose
leaves are adjacent become triangles.  The result partitions the vertex set
into induced stars (center + >=2 leaves), triangles, and a residual matching,
with all star leaves forming an independent set - leaves of distinct stars
are never adjacent.  Those properties follow from the maximality of the
matching and are re-checked per instance by ``validate_factor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Any

from .errors import PipelineError
from .graphs import Edge, Graph, norm_edge
from .matching import Matching


@dataclass(frozen=True)
class StarTriangleFactor:
    """stars: center -> leaf set; triangles: sorted triples; residual matching."""

    stars: dict[int, frozenset[int]]
    triangles: frozenset[tuple[int, int, int]]
    residual: Matching

    @cached_property
    def leaf_center(self) -> dict[int, int]:
        return {x: u for u, leaves in self.stars.items() for x in leaves}

    def to_json(self) -> dict[str, Any]:
        return {
            "stars": {str(u): sorted(s) for u, s in sorted(self.stars.items())},
            "triangles": [list(t) for t in sorted(self.triangles)],
            "matching": [list(e) for e in sorted(self.residual.edges)],
        }


def star_triangle_factor(g: Graph, m0: Matching) -> StarTriangleFactor:
    """Fold unmatched vertices into stars, then convert adjacent 2-leaf stars.

    Unmatched vertices are processed in increasing index order; each picks its
    smallest-index neighbor u.  u is always saturated (otherwise m0 was not
    maximum) and the first fold removes u's matching edge from the residual.
    The triangle conversion runs afterwards in increasing center order.
    """
    g.require_embeddable()
    partner = m0.partner_map()
    residual: set[Edge] = set(m0.edges)
    stars: dict[int, set[int]] = {}
    leaf_owner: dict[int, int] = {}

    unmatched = [v for v in range(g.n) if v not in partner]
    for v in unmatched:
        u = g.adj[v][0]
        if u not in partner:
            raise PipelineError(
                "factor",
                f"unmatched vertex {v} has unmatched neighbor {u}; "
                "matching was not maximum",
                vertex=v,
                neighbor=u,
            )
        if u in leaf_owner:
            raise PipelineError(
                "factor",
                f"chosen center {u} is already a leaf of star {leaf_owner[u]}",
                vertex=v,
                center=u,
            )
        if u not in stars:
            w = partner[u]
            if w in stars or w in leaf_owner:
                raise PipelineError(
                    "factor",
                    f"matching partner {w} of new center {u} is already placed",
                    center=u,
                    partner=w,
                )
            stars[u] = {w, v}
            leaf_owner[w] = u
            residual.discard(norm_edge(u, w))
        else:
            stars[u].add(v)
        leaf_owner[v] = u

    triangles: set[tuple[int, int, int]] = set()
    for u in sorted(stars):
        leaves = stars[u]
        if len(leaves) == 2:
            v1, v2 = sorted(leaves)
            if g.has_edge(v1, v2):
                del stars[u]
                triangles.add(tuple(sorted((u, v1, v2))))

    return StarTriangleFactor(
        stars={u: frozenset(s) for u, s in stars.items()},
        triangles=frozenset(triangles),
        residual=Matching(frozenset(residual)),
    )


def validate_factor(g: Graph, f: StarTriangleFactor) -> None:
    """Check every structural invariant; raise PipelineError with a witness."""
    seen: dict[int, str] = {}

    def place(v: int, where: str) -> None:
        if v in seen:
            raise PipelineError(
                "factor", f"vertex {v} in both {seen[v]} and {where}", vertex=v
            )
        seen[v] = where

    for u, leaves in f.stars.items():
        if len(leaves) < 2:
            raise PipelineError("factor", f"star {u} has fewer than 2 leaves", center=u)
        place(u, f"star({u})")
        for x in leaves:
            place(x, f"star({u})")
            if not g.has_edge(u, x):
                raise PipelineError("factor", f"star edge {u}{x} missing", center=u, leaf=x)
    for tri in f.triangles:
        for v in tri:
            place(v, f"triangle{tri}")
        for a, b in combinations(tri, 2):
            if not g.has_edge(a, b):
                raise PipelineError("factor", f"triangle {tri} missing edge {a}{b}")
    f.residual.validate(g)
    for u, v in f.residual.edges:
        place(u, "matching")
        place(v, "matching")
    missing = [v for v in range(g.n) if v not in seen]
    if missing:
        raise PipelineError("factor", f"vertices {missing} uncovered", vertices=missing)

    # All leaves together are independent; this covers both the induced-star
    # requirement and non-adjacency of leaves from different stars.
    leaves = sorted(f.leaf_center)
    for a, b in combinations(leaves, 2):
        if g.has_edge(a, b):
            raise PipelineError(
                "factor",
                f"leaves {a} and {b} are adjacent"
                + ("" if f.leaf_center[a] == f.leaf_center[b] else " across stars"),
                pair=(a, b),
            )
