"""Labeled simple graphs: representation, edge-list text format, generators.

Vertices are dense integers ``0..n-1``.  Edges are stored as sorted pairs.
Everything downstream breaks ties by smallest vertex index, so the adjacency
views here are always sorted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .errors import GraphInputError

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]

    @staticmethod
    def from_edges(n: int, pairs: Iterable[Edge]) -> Graph:
        if n < 0:
            raise GraphInputError("range", f"negative vertex count {n}")
        edges = set()
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError("range", f"endpoint out of range: {u} {v}")
            if u == v:
                raise GraphInputError("self_loop", f"self-loop at vertex {u}")
            edges.add(norm_edge(u, v))
        return Graph(n, frozenset(edges))

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(b)) for b in nbrs)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Neighbour bitmasks: bit u of masks[v] is set when uv is an edge."""
        # One binary-digit row per vertex, parsed once: character -1 - u is bit u.
        rows = [bytearray(b"0") * self.n for _ in range(self.n)]
        for u, v in self.edges:
            rows[u][-1 - v] = rows[v][-1 - u] = ord("1")
        return tuple(int(row, 2) for row in rows)

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.adj[v]]

    def require_embeddable(self) -> None:
        """Inputs to the embedding pipeline need n >= 2 and minimum degree 1."""
        if self.n < 2:
            raise GraphInputError("too_small", f"need at least 2 vertices, got {self.n}")
        # No adj: the first vertex outside every edge is among the first 2m+1.
        ends = {v for e in self.edges for v in e}
        bad = next((v for v in range(self.n) if v not in ends), None)
        if bad is not None:
            raise GraphInputError("isolated", f"isolated vertex {bad}")

    def serialize(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"

    def delete_vertex(self, v: int) -> Graph:
        """Remove v and relabel vertices above it down by one."""
        def relabel(w: int) -> int:
            return w if w < v else w - 1

        kept = [(relabel(a), relabel(b)) for a, b in self.edges if v not in (a, b)]
        return Graph.from_edges(self.n - 1, kept)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first line "n m", then m lines "u v"."""
    lines = text.splitlines()
    if not lines:
        raise GraphInputError("malformed", "empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphInputError("malformed", f"expected 'n m' header, got {lines[0]!r}", line=1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphInputError("malformed", f"non-integer header {lines[0]!r}", line=1) from None
    if n < 0 or m < 0:
        raise GraphInputError("malformed", f"negative counts in header {lines[0]!r}", line=1)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise GraphInputError("malformed", f"expected {m} edge lines, got {len(body)}")
    edges: set[Edge] = set()
    for i, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphInputError("malformed", f"expected 'u v', got {ln!r}", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphInputError("malformed", f"non-integer endpoints {ln!r}", line=i) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError("range", f"endpoint out of range: {ln!r}", line=i)
        if u == v:
            raise GraphInputError("self_loop", f"self-loop at vertex {u}", line=i)
        e = norm_edge(u, v)
        if e in edges:
            raise GraphInputError("duplicate", f"duplicate edge {u} {v}", line=i)
        edges.add(e)
    return Graph(n, frozenset(edges))


def generate_exhaustive(n: int) -> Iterator[Graph]:
    """All labeled graphs on n vertices with minimum degree >= 1.

    Enumeration is over edge subsets in increasing bitmask order, pairs in
    lexicographic order; no isomorphism reduction.  Supported for 2 <= n <= 6.
    """
    if not 2 <= n <= 6:
        raise GraphInputError("range", f"exhaustive generation supports 2..6, got {n}")
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        degree = [0] * n
        edges = []
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                edges.append((u, v))
                degree[u] += 1
                degree[v] += 1
        if all(degree):
            yield Graph(n, frozenset(edges))


def count_min_degree_one(n: int) -> int:
    """Inclusion-exclusion count of labeled graphs with min degree >= 1."""
    from math import comb

    return sum((-1) ** k * comb(n, k) * 2 ** comb(n - k, 2) for k in range(n + 1))


def sample_gnp(n: int, p, seed: int) -> tuple[Graph, tuple[Edge, ...]]:
    """G(n,p) sample with isolated vertices repaired; returns (graph, repairs).

    Each isolated vertex is attached to a uniformly chosen other vertex, in
    increasing vertex order.  Deterministic for a fixed seed.
    """
    if n < 2:
        raise GraphInputError("too_small", f"need at least 2 vertices, got {n}")
    prob = float(p)
    rng = random.Random(seed)
    edges: set[Edge] = set()
    for u, v in combinations(range(n), 2):
        if rng.random() < prob:
            edges.add((u, v))
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    repairs: list[Edge] = []
    for v in range(n):
        if degree[v] == 0:
            u = rng.randrange(n - 1)
            if u >= v:
                u += 1
            e = norm_edge(u, v)
            edges.add(e)
            repairs.append(e)
            degree[u] += 1
            degree[v] += 1
    return Graph(n, frozenset(edges)), tuple(repairs)


def generate_random(n: int, p, seed: int) -> Graph:
    return sample_gnp(n, p, seed)[0]
