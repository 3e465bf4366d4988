"""Exact re-check of an embedding JSON, written apart from sigdim.

Nothing here imports sigdim.  From the coordinates alone it recomputes the
sup-norm distances, every nearest-neighbour radius and the strict
sphere-of-influence graph (edge iff rho(u, v) < r_u + r_v), then compares
them with the input graph and with the radii the embedder scheduled
(``trace.rv``).  It also checks the dimension bound and that the picked groups
partition the vertices and satisfy the accounting identity.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import sub
from typing import Any


def _rational(value: Any) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not a rational: {value!r}")
    return Fraction(value)


def sig_and_radii(rows: list[list[Fraction]]) -> tuple[set[tuple[int, int]], list[Fraction]]:
    """Strict sup-norm sphere-of-influence graph and exact radii of a point set."""
    n = len(rows)
    if n < 2:
        raise ValueError("need at least two points")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("ragged coordinate matrix")
    # One common denominator puts every comparison on the integers.
    scale = 1
    for row in rows:
        for x in row:
            scale = lcm(scale, x.denominator)
    grid = [[int(x * scale) for x in row] for row in rows]
    dist = [[0] * n for _ in range(n)]
    for u in range(n):
        a, du = grid[u], dist[u]
        for v in range(u + 1, n):
            d = max(map(abs, map(sub, a, grid[v])))
            if d == 0:
                raise ValueError(f"points {u} and {v} coincide")
            du[v] = d
            dist[v][u] = d
    radius = [min(dist[u][v] for v in range(n) if v != u) for u in range(n)]
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if dist[u][v] < radius[u] + radius[v]}
    return edges, [Fraction(r, scale) for r in radius]


def dimension_limit(n: int) -> int:
    """min(floor(2n/3) + 2, ceil(2n/3) + 1), the latter only when 3 does not divide n."""
    general = (2 * n) // 3 + 2
    if n % 3 == 0:
        return general
    return min(general, -((-2 * n) // 3) + 1)


def check_embedding(n: int, edges: set[tuple[int, int]], data: dict[str, Any]) -> dict[str, Any]:
    """Re-check one embedding JSON against the graph (n, edges).

    Returns the verdicts ``sig``, ``radii`` and ``bound`` (True when exact) and
    ``problems``, which lists every finding, structural ones included.
    """
    out: dict[str, Any] = {"sig": False, "radii": False, "bound": False, "problems": []}
    problems = out["problems"]
    coords = [[_rational(x) for x in row] for row in data["coords"]]
    d = data["d"]
    if len(coords) != n or any(len(row) != d for row in coords):
        problems.append(f"coordinate matrix is not {n} x {d}")
        return out
    try:
        realized, radii = sig_and_radii(coords)
    except ValueError as exc:
        problems.append(str(exc))
        return out
    out["sig"] = realized == edges
    if not out["sig"]:
        missing, extra = sorted(edges - realized), sorted(realized - edges)
        problems.append(f"SIG differs: missing {missing[:3]}, extra {extra[:3]}")
    scheduled = [_rational(x) for x in data["trace"]["rv"]]
    bad = [v for v in range(n) if radii[v] != scheduled[v]]
    out["radii"] = not bad
    if bad:
        v = bad[0]
        problems.append(f"radius of {v} is {radii[v]}, trace says {scheduled[v]}")
    out["bound"] = d <= dimension_limit(n)
    if not out["bound"]:
        problems.append(f"d={d} exceeds the bound {dimension_limit(n)}")

    picks = data["trace"]["picks"]
    seen = [v for p in picks for v in p["vertices"]]
    if sorted(seen) != list(range(n)):
        problems.append("picked groups do not partition the vertices")
    triples = pairs = residual = plain = 0
    for p in picks:
        if p["class"] == "I":
            plain += len(p["vertices"])
        elif p["class"] == "II":
            residual += len(p["vertices"])
        elif p["class"] == "III":
            pairs += 1
        else:
            triples += 1
    if n != 3 * triples + 2 * pairs + residual + plain:
        problems.append(f"accounting identity fails: n={n} vs 3*{triples} + "
                        f"2*{pairs} + {residual} + {plain}")
    dims = sorted(j for b in data["blocks"] for j in b["dims"])
    if dims != list(range(d)):
        problems.append("blocks do not partition the dimensions")
    return out


def self_test() -> list[str]:
    """Known answers: the 1-D set {0, 1, 10} and 2I + A rows of small graphs."""
    problems: list[str] = []
    edges, radii = sig_and_radii([[Fraction(0)], [Fraction(1)], [Fraction(10)]])
    # 0 and 10 sit exactly on the boundary rho = r_u + r_v = 10: no edge.
    if edges != {(0, 1), (1, 2)} or radii != [1, 1, 9]:
        problems.append(f"1-D set {{0, 1, 10}}: got {sorted(edges)}, radii {radii}")
    graphs = {
        "K2": (2, {(0, 1)}),
        "P3": (3, {(0, 1), (1, 2)}),
        "K13": (4, {(0, 1), (0, 2), (0, 3)}),
        "C5": (5, {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}),
    }
    for name, (n, g_edges) in graphs.items():
        rows = [[Fraction(2 if u == v else int((min(u, v), max(u, v)) in g_edges))
                 for u in range(n)] for v in range(n)]
        got, _ = sig_and_radii(rows)
        if got != g_edges:
            problems.append(f"2I+A rows of {name}: got {sorted(got)}")
    halves = [[Fraction(x, 2)] for x in (0, 1, 10)]
    got, radii = sig_and_radii(halves)
    if got != {(0, 1), (1, 2)} or radii != [Fraction(1, 2), Fraction(1, 2), Fraction(9, 2)]:
        problems.append("1-D set {0, 1/2, 5}: wrong SIG or radii")
    return problems
