"""Workload inputs: seeded graph generators and the operations of one round.

Every run attempts whole rounds, and every round of a workload has the same
make-up, so the share of failed operations does not depend on the seed or on
how many rounds fit in the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

N = 200                      # vertices in every gnp-dense and stars graph
DENSE_P = 0.9
STARS_PER_ROUND = 3          # seeded planted graphs next to the witness
FUZZ_N_MIN, FUZZ_N_MAX = 8, 60
FUZZ_COUNT = FUZZ_N_MAX - FUZZ_N_MIN + 1   # one instance of every n per call
FUZZ_SAMPLE_N = (57, 58, 59, 60)   # re-derived and checked each round
# Generator seed of the planted graph that hits the step-27 construction gap:
# the class II residual (block 66) merges the leaves of the stars centred at
# 35 (m=3) and 125 (m=14), the block puts centre 35 at the zero vector, and
# family (2) fails at pair (198, 35) by 2*delta*(14 - 3): 2344 against 2388.
# It does not depend on --seed, so it fails in every round of every run.
STARS_WITNESS_SEED = 11


@dataclass(frozen=True)
class GraphInput:
    name: str
    n: int
    edges: frozenset
    witness: bool = False
    fuzz_seed: int | None = None   # the fuzz instance this graph re-derives

    def text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FuzzInput:
    base: int
    count = FUZZ_COUNT

    def argv(self, out: str, bundles: str) -> list[str]:
        return ["fuzz", "--n-min", str(FUZZ_N_MIN), "--n-max", str(FUZZ_N_MAX),
                "--p", "1/2", "--seed", str(self.base), "--count", str(self.count),
                "--bundle-dir", bundles, "-o", out]


def gnp(n: int, p: float, seed: int) -> frozenset:
    """G(n, p), each isolated vertex then joined to a random other vertex.

    The same draws, in the same order, as ``sigdim fuzz`` makes for one
    instance, so a fuzz instance can be re-derived from its seed.
    """
    rng = random.Random(seed)
    edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < p}
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for v in range(n):
        if degree[v] == 0:
            u = rng.randrange(n - 1)
            u += u >= v
            edges.add((min(u, v), max(u, v)))
            degree[u] += 1
            degree[v] += 1
    return frozenset(edges)


def planted_stars(n: int, seed: int) -> frozenset:
    """n/4 centres joined as G(c, 1/2); every other vertex a pendant leaf of a
    random centre.  Labels are shuffled so centres are not the low indices."""
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
    return frozenset((min(e), max(e)) for e in edges)


def reaches_step_27(lib, n: int, edges: frozenset) -> bool:
    """Whether sigdim's picker ends on a two-star residual (step 27)."""
    g = lib.Graph(n, edges)
    factor = lib.star_triangle_factor(g, lib.maximum_matching(g))
    return any(p.step == 27 for p in lib.pick_vertices(g, factor).picks)


def rounds(workload: str, seed: int, lib) -> Iterator[list]:
    """The operations of each round, endlessly; ``lib`` is the sigdim package."""
    rng = random.Random(f"{workload}:{seed}")
    i = 0
    if workload == "gnp-dense":
        while True:
            yield [GraphInput(f"dense{i}", N, gnp(N, DENSE_P, rng.getrandbits(64)))]
            i += 1
    elif workload == "stars":
        witness = GraphInput("witness", N, planted_stars(N, STARS_WITNESS_SEED), True)
        while True:
            ops = [witness]
            while len(ops) <= STARS_PER_ROUND:
                edges = planted_stars(N, rng.getrandbits(64))
                # Seeded graphs that would hit the step-27 gap are left out:
                # their share would change with the seed.  The witness keeps
                # the gap in every round at a fixed share.
                if not reaches_step_27(lib, N, edges):
                    ops.append(GraphInput(f"stars{i}", N, edges))
                    i += 1
            yield ops
    elif workload == "fuzz-sweep":
        while True:
            base = rng.randrange(10**9)
            ops: list = [FuzzInput(base)]
            for n in FUZZ_SAMPLE_N:
                s = base + (n - FUZZ_N_MIN - base) % FUZZ_COUNT
                ops.append(GraphInput(f"fuzz{i}-n{n}", n, gnp(n, 0.5, s), fuzz_seed=s))
            i += 1
            yield ops
    else:
        raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("gnp-dense", "stars", "fuzz-sweep")
