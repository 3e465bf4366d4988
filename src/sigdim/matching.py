"""Maximum cardinality matching in general graphs (Edmonds' blossom method).

Bipartite-only methods are not enough here: pipeline inputs are arbitrary
graphs.  The search is deterministic - vertices and neighbor lists are
scanned in increasing index order - so the same graph always yields the same
matching.  ``brute_force_matching`` is the independent oracle for tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import PipelineError
from .graphs import Edge, Graph, norm_edge


@dataclass(frozen=True)
class Matching:
    edges: frozenset[Edge]

    def partner_map(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for u, v in self.edges:
            out[u] = v
            out[v] = u
        return out

    def size(self) -> int:
        return len(self.edges)

    def validate(self, g: Graph) -> None:
        seen: set[int] = set()
        for u, v in self.edges:
            if not g.has_edge(u, v) or u in seen or v in seen:
                raise PipelineError("matching", f"edge {u}{v} not in graph or reuses a vertex")
            seen.update((u, v))


def maximum_matching(g: Graph) -> Matching:
    n = g.n
    adj = g.adj
    mate = [-1] * n

    # Greedy seed; the augmenting search below only has to fix the deficit.
    for v in range(n):
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    break

    for root in range(n):
        if mate[root] != -1:
            continue
        _augment_from(n, adj, mate, root)

    return Matching(frozenset(norm_edge(v, mate[v]) for v in range(n) if mate[v] > v))


def _augment_from(n: int, adj, mate: list[int], root: int) -> None:
    """One alternating BFS with blossom contraction; flips a path if found."""
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    queue: deque[int] = deque([root])
    in_queue[root] = True
    finish = -1

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    while queue and finish == -1:
        v = queue.popleft()
        for u in adj[v]:
            if base[u] == base[v] or mate[v] == u:
                continue
            if u == root or (mate[u] != -1 and parent[mate[u]] != -1):
                # Odd cycle through the root: contract the blossom.
                b = lca(v, u)
                blossom = [False] * n
                mark_path(v, b, u, blossom)
                mark_path(u, b, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = b
                        if not in_queue[i]:
                            in_queue[i] = True
                            queue.append(i)
            elif parent[u] == -1:
                parent[u] = v
                if mate[u] == -1:
                    finish = u
                    break
                w = mate[u]
                if not in_queue[w]:
                    in_queue[w] = True
                    queue.append(w)

    if finish == -1:
        return
    u = finish
    while u != -1:
        pv = parent[u]
        next_u = mate[pv]
        mate[pv] = u
        mate[u] = pv
        u = next_u


def brute_force_matching(g: Graph) -> int:
    """Maximum matching size by exhaustive search; oracle for small graphs."""
    if g.n > 12:
        raise ValueError(f"brute force limited to n <= 12, got {g.n}")
    adj = g.adj
    n = g.n
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
        for u in adj[v]:
            if not used >> u & 1:
                best = max(best, 1 + rec(v + 1, used | 1 << v | 1 << u))
        memo[key] = best
        return best

    return rec(0, 0)
