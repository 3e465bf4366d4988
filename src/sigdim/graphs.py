"""Labeled simple graphs: representation, edge-list text format, generators.

Vertices are dense integers ``0..n-1``.  A graph stores one neighbour bitmask
per vertex, ``Graph.masks``, and derives its edge pairs from them; every
neighbour read goes through the masks and the helpers here.  Everything
downstream breaks ties by smallest vertex index, so ``members`` lists a mask's
vertices in increasing order.

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

from .errors import GraphInputError, shorten

Edge = tuple[int, int]
_BITS = bytes.maketrans(b"01", b"\0\1")
# Deletes the ASCII digits; what is left of a canonical text is " \n" per line.
_NO_DIGITS = str.maketrans("", "", "0123456789")
# Above this n, the masks are built one row at a time (1 MiB of rows at once).
_ALL_ROWS_MAX_N = 1024
# The most vertices a graph file may declare, checked before anything n-sized is built.
MAX_N = 1 << 13


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


@dataclass(frozen=True, init=False)
class Graph:
    """Immutable simple graph on vertices 0..n-1, stored as its neighbour masks."""

    n: int
    masks: tuple[int, ...]  # bit u of masks[v] is set when uv is an edge

    def __init__(self, n: int, edges: Iterable[Edge]):
        """The graph of the given pairs of distinct vertices, each in either order."""
        # One binary-digit row per vertex, parsed once: character -1 - u is bit u.
        if n <= _ALL_ROWS_MAX_N:  # every row at once, n^2 bytes: the fastest way
            rows = [bytearray(b"0") * n for _ in range(n)]
            for u, v in edges:
                rows[u][-1 - v] = rows[v][-1 - u] = b"1"[0]  # folded to a constant
            masks = [int(row, 2) for row in rows]
        else:  # one row at a time from neighbour lists: no n^2 bytes besides the masks
            nbrs: list[list[int]] = [[] for _ in range(n)]
            for u, v in edges:
                nbrs[u].append(-1 - v)
                nbrs[v].append(-1 - u)
            zeros, masks = b"0" * n, []
            for chars in nbrs:
                row = bytearray(zeros) if chars else b"0"  # no row for an isolated vertex
                for c in chars:
                    row[c] = b"1"[0]
                masks.append(int(row, 2))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", tuple(masks))

    @staticmethod
    def from_edges(n: int, pairs: Iterable[Edge]) -> Graph:
        if n < 0:
            raise GraphInputError("range", f"negative vertex count {n}")
        pairs = list(pairs)
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError("range", f"endpoint out of range: {u} {v}")
            if u == v:
                raise GraphInputError("self_loop", f"self-loop at vertex {u}")
        return Graph(n, pairs)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edges as pairs u < v, derived from the masks."""
        return frozenset((u, v) for v, x in enumerate(self.masks) for u in members(x & ~(-1 << v)))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge; False for any id outside 0..n-1."""
        return 0 <= u < self.n and 0 <= v < self.n and self.masks[u] >> v & 1 == 1

    def require_embeddable(self) -> None:
        """Inputs to the embedding pipeline need n >= 2 and minimum degree 1."""
        if self.n < 2:
            raise GraphInputError("too_small", f"need at least 2 vertices, got {self.n}")
        if not all(self.masks):
            raise GraphInputError("isolated", f"isolated vertex {self.masks.index(0)}")

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
    if n > MAX_N or len(us) != m or not all(map(lt, us, vs)) or vs and max(vs) >= n:
        return None
    g = Graph(n, zip(us, vs))  # distinct pairs u < v set 2m bits in all, duplicates fewer
    return g if sum(map(int.bit_count, g.masks)) == 2 * m else None


def _parse_lines(text: str) -> Graph:
    """Parse any text line by line; a bad line raises its own GraphInputError."""
    lines = text.splitlines()
    if not lines:
        raise GraphInputError("malformed", "empty input")
    header = lines[0].split()
    quoted = shorten(lines[0], repr)
    if len(header) != 2:
        raise GraphInputError("malformed", f"expected 'n m' header, got {quoted}", line=1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphInputError("malformed", f"non-integer header {quoted}", line=1) from None
    if n < 0 or m < 0:
        raise GraphInputError("malformed", f"negative counts in header {quoted}", line=1)
    if n > MAX_N:
        raise GraphInputError("too_large", f"more than {MAX_N} vertices in header {quoted}", line=1)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise GraphInputError("malformed", f"expected {shorten(str(m))} edge lines, got {len(body)}")
    edges: set[Edge] = set()
    for i, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphInputError("malformed", f"expected 'u v', got {shorten(ln, repr)}", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphInputError("malformed", f"non-integer endpoints {shorten(ln, repr)}",
                                  line=i) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError("range", f"endpoint out of range: {shorten(ln, repr)}", line=i)
        if u == v:
            raise GraphInputError("self_loop", f"self-loop at vertex {u}", line=i)
        if (e := norm_edge(u, v)) in edges:
            raise GraphInputError("duplicate", f"duplicate edge {u} {v}", line=i)
        edges.add(e)
    return Graph(n, edges)


def generate_exhaustive(n: int) -> Iterator[Graph]:
    """All labeled graphs on n vertices with minimum degree >= 1.

    Enumeration is over edge subsets in increasing bitmask order, pairs in
    lexicographic order; no isomorphism reduction.  Supported for 2 <= n <= 6.
    """
    if not 2 <= n <= 6:
        raise GraphInputError("range", f"exhaustive generation supports 2..6, got {n}")
    pairs = list(combinations(range(n), 2))
    covered = [0]  # covered[mask]: the vertices that mask's edges touch
    for u, v in pairs:
        covered += [c | 1 << u | 1 << v for c in covered]
    for mask, c in enumerate(covered):
        if c == (1 << n) - 1:
            yield Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def sample_gnp(n: int, p, seed: int) -> tuple[Graph, tuple[Edge, ...]]:
    """G(n,p) sample with isolated vertices repaired; returns (graph, repairs).

    Each isolated vertex is attached to a uniformly chosen other vertex, in
    increasing vertex order.  Deterministic for a fixed seed.
    """
    if n < 2:
        raise GraphInputError("too_small", f"need at least 2 vertices, got {n}")
    prob = float(p)
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < prob]
    touched = {v for e in edges for v in e}
    repairs: list[Edge] = []
    for v in range(n):
        if v not in touched:
            u = rng.randrange(n - 1)
            if u >= v:
                u += 1
            e = norm_edge(u, v)
            repairs.append(e)
            touched.update(e)
    return Graph(n, edges + repairs), tuple(repairs)


def generate_random(n: int, p, seed: int) -> Graph:
    return sample_gnp(n, p, seed)[0]
