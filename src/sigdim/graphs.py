"""Labeled simple graphs: representation, edge-list text format, generators.

Vertices are dense integers ``0..n-1``.  Edges are stored as sorted pairs;
every neighbour read goes through ``Graph.masks``, one bitmask per vertex, and
the mask helpers here.  Everything downstream breaks ties by smallest vertex
index, so ``members`` lists a mask's vertices in increasing order.

``parse_graph`` reads the canonical text that ``Graph.serialize`` writes in
bulk: one C pass over its separators, one C conversion of every token, and
whole-file checks of the line count, range, order and duplicates.  Any other
text, and canonical text that fails a check, is read line by line, which names
the offending line.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
from operator import lt
from typing import Iterable, Iterator

from .errors import GraphInputError

Edge = tuple[int, int]
_BITS = bytes.maketrans(b"01", b"\0\1")
# Deletes the ASCII digits; what is left of a canonical text is " \n" per line.
_NO_DIGITS = str.maketrans("", "", "0123456789")
# Above this n, Graph.masks builds its rows one at a time (1 MiB of rows at once).
_ALL_ROWS_MAX_N = 1024


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def mask_of(vs: Iterable[int]) -> int:
    """Bitmask of distinct vertices."""
    return sum(1 << v for v in vs)


def lowest(mask: int) -> int:
    """The smallest vertex of a non-empty mask."""
    return (mask & -mask).bit_length() - 1


def members(mask: int) -> list[int]:
    """The vertices of a mask >= 0, in increasing order."""
    if mask.bit_count() < 16:  # sparse: peeling bits beats walking all n digits
        out = []
        while mask:
            out.append(lowest(mask))
            mask &= mask - 1
        return out
    bits = bin(mask)[:1:-1].encode().translate(_BITS)  # byte v is bit v, as 0 or 1
    return list(compress(range(len(bits)), bits))


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
    def masks(self) -> tuple[int, ...]:
        """Neighbour bitmasks: bit u of masks[v] is set when uv is an edge."""
        # One binary-digit row per vertex, parsed once: character -1 - u is bit u.
        n = self.n
        if n <= _ALL_ROWS_MAX_N:  # every row at once, n^2 bytes: the fastest way
            rows = [bytearray(b"0") * n for _ in range(n)]
            for u, v in self.edges:
                rows[u][-1 - v] = rows[v][-1 - u] = ord("1")
            return tuple(int(row, 2) for row in rows)
        # One row at a time from neighbour lists: no n^2 bytes besides the masks.
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            nbrs[u].append(-1 - v)
            nbrs[v].append(-1 - u)
        zeros = b"0" * n
        out = []
        for chars in nbrs:
            row = bytearray(zeros)
            for c in chars:
                row[c] = ord("1")
            out.append(int(row, 2))
        return tuple(out)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge; False for any id outside 0..n-1."""
        return 0 <= u < self.n and 0 <= v < self.n and self.masks[u] >> v & 1 == 1

    def require_embeddable(self) -> None:
        """Inputs to the embedding pipeline need n >= 2 and minimum degree 1."""
        if self.n < 2:
            raise GraphInputError("too_small", f"need at least 2 vertices, got {self.n}")
        if 2 * len(self.edges) >= self.n:
            if all(self.masks):
                return
            bad = self.masks.index(0)
        else:
            # 2m < n, so some vertex is isolated, the first among the first 2m+1:
            # find it from the edge ends, not from n masks (n may be huge).
            ends = {v for e in self.edges for v in e}
            bad = next(v for v in range(self.n) if v not in ends)
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
    g = _parse_canonical(text)
    return g if g is not None else _parse_lines(text)


def _parse_canonical(text: str) -> Graph | None:
    """The graph of a text in ``serialize``'s form, or None for any other text.

    The form is a header "n m" and m lines "u v" with u < v, digits and single
    spaces only, with or without a final newline.  None also for such a text
    that fails a check; ``_parse_lines`` then says where.
    """
    if not text.endswith("\n"):
        text += "\n"
    seps = text.translate(_NO_DIGITS)
    if seps != " \n" * (len(seps) // 2):  # one space per line, nothing but digits
        return None
    try:  # json refuses an empty token, so every line is "digits digits"
        nums = json.loads("[" + text[:-1].replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:  # a leading zero, or a token past int's digit limit
        return None
    n, m = nums[0], nums[1]
    us, vs = nums[2::2], nums[3::2]
    edges = frozenset(zip(us, vs))
    if len(us) == len(edges) == m and all(map(lt, us, vs)) and (not vs or max(vs) < n):
        return Graph(n, edges)
    return None


def _parse_lines(text: str) -> Graph:
    """Parse any text line by line; a bad line raises its own GraphInputError."""
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
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        if len({v for e in edges for v in e}) == n:
            yield Graph(n, frozenset(edges))


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
    touched = {v for e in edges for v in e}
    repairs: list[Edge] = []
    for v in range(n):
        if v not in touched:
            u = rng.randrange(n - 1)
            if u >= v:
                u += 1
            e = norm_edge(u, v)
            edges.add(e)
            repairs.append(e)
            touched.update(e)
    return Graph(n, frozenset(edges)), tuple(repairs)


def generate_random(n: int, p, seed: int) -> Graph:
    return sample_gnp(n, p, seed)[0]
