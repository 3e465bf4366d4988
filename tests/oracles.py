"""Independent oracles that only the tests use."""

from __future__ import annotations

from math import comb

from sigdim import Graph
from sigdim.graphs import members


def brute_force_matching(g: Graph) -> int:
    """Maximum matching size by exhaustive search; oracle for small graphs."""
    if g.n > 12:
        raise ValueError(f"brute force limited to n <= 12, got {g.n}")
    masks, n = g.masks, g.n
    memo: dict[tuple[int, int], int] = {}

    def rec(v: int, used: int) -> int:
        while v < n and used >> v & 1:
            v += 1
        if v >= n:
            return 0
        key = (v, used)
        if key in memo:
            return memo[key]
        best = rec(v + 1, used)  # leave v unmatched
        for u in members(masks[v] & ~used):
            best = max(best, 1 + rec(v + 1, used | 1 << v | 1 << u))
        memo[key] = best
        return best

    return rec(0, 0)


def count_min_degree_one(n: int) -> int:
    """Inclusion-exclusion count of labeled graphs with min degree >= 1."""
    return sum((-1) ** k * comb(n, k) * 2 ** comb(n - k, 2) for k in range(n + 1))
