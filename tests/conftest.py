from __future__ import annotations

import random
from itertools import combinations

import pytest

from sigdim import Graph, generate_exhaustive, parse_graph


def graph(text: str) -> Graph:
    return parse_graph(text)


K2 = "2 1\n0 1\n"
C3 = "3 3\n0 1\n0 2\n1 2\n"
P3 = "3 2\n0 1\n1 2\n"
K13 = "4 3\n0 1\n0 2\n0 3\n"
TWO_K2 = "4 2\n0 1\n2 3\n"
C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"

# Found by search; the pipeline picks a two-leaf triple (class V) here.
CLASS_V = "6 8\n0 1\n0 2\n0 3\n0 4\n1 5\n2 5\n3 5\n4 5\n"
# Found by search; the pipeline picks one-leaf-edge triples (class VI).
CLASS_VI_1 = "9 17\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n0 8\n1 2\n1 3\n1 5\n1 6\n1 8\n2 3\n2 5\n2 7\n2 8\n"
CLASS_VI_2 = "9 18\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n0 8\n1 2\n1 3\n1 4\n1 5\n1 6\n1 7\n2 3\n2 5\n2 6\n2 8\n"

# Graphs of the networkx graph atlas, by atlas index (1236 relabelled), that
# reach case-table rows no other golden reaches: class IV's one-related-pair
# and triangle rows, VII's tk rows and side leaf rows.
ATLAS51 = "5 9\n0 1\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
ATLAS106 = "6 6\n0 4\n0 5\n1 2\n1 3\n2 3\n4 5\n"
ATLAS279 = "7 6\n0 1\n1 3\n1 4\n2 6\n3 6\n4 5\n"
ATLAS281 = "7 6\n0 3\n0 4\n1 2\n2 3\n2 4\n5 6\n"
ATLAS418 = "7 8\n0 1\n0 4\n2 3\n2 5\n2 6\n3 5\n3 6\n5 6\n"
ATLAS1236 = "7 17\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n1 2\n1 3\n1 4\n1 5\n1 6\n2 6\n3 4\n3 5\n3 6\n4 5\n5 6\n"


def planted_stars(n: int, seed: int) -> Graph:
    """n/4 centres joined as G(c, 1/2), every other vertex a pendant leaf of a
    random centre, labels shuffled: the draws of the benchmark's star workload.
    Star-heavy graphs like these drive the picker's star loop (steps 7-11),
    leftover centres (18-19) and leaf-group endgame (27-32)."""
    rng = random.Random(seed)
    labels = list(range(n))
    rng.shuffle(labels)
    c = n // 4
    centres = labels[:c]
    edges = set()
    for i, j in combinations(range(c), 2):
        if rng.random() < 0.5:
            edges.add((centres[i], centres[j]))
    for x in labels[c:]:
        edges.add((rng.choice(centres), x))
    touched = {v for e in edges for v in e}
    for i, u in enumerate(centres):
        if u not in touched:
            edges.add((u, centres[(i + 1 + rng.randrange(c - 1)) % c]))
    return Graph.from_edges(n, edges)


@pytest.fixture(scope="session")
def corpus5() -> list[Graph]:
    out: list[Graph] = []
    for n in range(2, 6):
        out.extend(generate_exhaustive(n))
    return out
