"""Maximum cardinality matching in general graphs (Edmonds' blossom method).

Bipartite-only methods are not enough here: pipeline inputs are arbitrary
graphs.  The search is deterministic - vertices and neighbor lists are
scanned in increasing index order - so the same graph always yields the same
matching.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PipelineError
from .graphs import Edge, Graph, lowest, members, norm_edge


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
                raise PipelineError("matching", f"edge {(u, v)} not in graph or reuses a vertex")
            seen.update((u, v))


def maximum_matching(g: Graph) -> Matching:
    n, masks = g.n, g.masks
    mate = [-1] * n

    # Greedy seed: each free v takes its lowest free neighbour.  The augmenting
    # search below only has to fix the deficit.
    free = (1 << n) - 1
    for v in range(n):
        if free >> v & 1 and (nbrs := masks[v] & free):
            u = lowest(nbrs)
            mate[v], mate[u] = u, v
            free &= ~(1 << v | 1 << u)

    if free:  # one set of search lists for every root: each search restores what it wrote
        parent, base, in_queue = [-1] * n, list(range(n)), [False] * n
        for root in members(free):
            if mate[root] == -1:  # no search unmatches a vertex, but one may match this
                _augment_from(masks, mate, root, parent, base, in_queue)

    return Matching(frozenset(norm_edge(v, mate[v]) for v in range(n) if mate[v] > v))


def _augment_from(masks: tuple[int, ...], mate: list[int], root: int,
                  parent: list[int], base: list[int], in_queue: list[bool]) -> None:
    """One alternating BFS with blossom contraction; flips a path if found.

    ``parent``, ``base`` and ``in_queue`` hold -1, v and False for every v on
    entry, and again on return: a search that fails, as most do, touches few
    vertices, so it resets those rather than building three lists of n.
    """
    n = len(mate)
    queue = [root]  # every vertex queued so far; the search reads it from `head`
    parented = []  # vertices given a parent; all others that change are queued
    in_queue[root] = True
    head, finish = 0, -1

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
            parented.append(v)
            child = mate[v]
            v = parent[mate[v]]

    while head < len(queue) and finish == -1:
        v = queue[head]
        head += 1
        for u in members(masks[v]):
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
                parented.append(u)
                if mate[u] == -1:
                    finish = u
                    break
                w = mate[u]
                if not in_queue[w]:
                    in_queue[w] = True
                    queue.append(w)

    u = finish
    while u != -1:
        pv = parent[u]
        next_u = mate[pv]
        mate[pv] = u
        mate[u] = pv
        u = next_u
    for v in queue:  # a changed base is a queued vertex's: the blossom loop queues it
        base[v], in_queue[v] = v, False
    for v in parented:
        parent[v] = -1

