from __future__ import annotations

from fractions import Fraction

import pytest

from sigdim import Matching, PipelineError, generate_random, maximum_matching, parse_graph
from conftest import C5, K2, planted_stars
from oracles import brute_force_matching


PETERSEN = (
    "10 15\n0 1\n1 2\n2 3\n3 4\n0 4\n0 5\n1 6\n2 7\n3 8\n4 9\n"
    "5 7\n7 9\n9 6\n6 8\n8 5\n"
)


def test_k2():
    assert maximum_matching(parse_graph(K2)).size() == 1


def test_odd_cycle():
    assert maximum_matching(parse_graph(C5)).size() == 2


def test_petersen():
    g = parse_graph(PETERSEN)
    assert brute_force_matching(g) == 5
    assert maximum_matching(g).size() == 5


@pytest.mark.parametrize(
    "text,size",
    [
        ("4 3\n0 1\n1 2\n2 3", 2),  # P4
        ("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3", 2),  # K4
        ("7 7\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n0 6", 3),  # C7
    ],
)
def test_brute_force(text, size):
    assert brute_force_matching(parse_graph(text)) == size


def test_brute_force_limit():
    with pytest.raises(ValueError):
        brute_force_matching(generate_random(13, 0.5, 1))


def test_matches_oracle_on_corpus(corpus5):
    for g in corpus5:
        m = maximum_matching(g)
        m.validate(g)
        assert m.size() == brute_force_matching(g), g.serialize()


def test_unsaturated_set_independent(corpus5):
    for g in corpus5:
        m = maximum_matching(g)
        free = [v for v in range(g.n) if v not in m.partner_map()]
        for i, u in enumerate(free):
            for v in free[i + 1:]:
                assert not g.has_edge(u, v), g.serialize()


def test_deterministic():
    g = generate_random(12, 0.4, seed=5)
    assert maximum_matching(g).edges == maximum_matching(g).edges


def test_random_graphs_against_oracle():
    for seed in range(40):
        g = generate_random(8 + seed % 4, 0.35, seed)
        assert maximum_matching(g).size() == brute_force_matching(g)


@pytest.mark.parametrize("edges", [{(0, 2)}, {(0, 1), (1, 2)}])
def test_validate_raises_pipeline_error(edges):
    with pytest.raises(PipelineError, match="not in graph or reuses a vertex"):
        Matching(frozenset(edges)).validate(parse_graph("3 2\n0 1\n1 2\n"))


def test_validate_prints_the_pair_apart():
    # (1, 10) and (11, 0) must not both print as "110".
    with pytest.raises(PipelineError, match=r"edge \(1, 10\) not in graph"):
        Matching(frozenset({(1, 10)})).validate(parse_graph("12 1\n0 1\n"))


@pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
def test_matching_size_matches_networkx(p):
    # networkx's blossom matching is a test-only oracle beyond brute force's n <= 12.
    nx = pytest.importorskip("networkx")
    graphs = [generate_random(n, p, seed) for seed, n in enumerate(range(13, 201, 17))]
    for g in graphs + [planted_stars(n, int(p * 10)) for n in (40, 120, 200)]:
        h = nx.Graph(list(g.edges))
        m = maximum_matching(g)
        m.validate(g)
        assert m.size() == len(nx.max_weight_matching(h, maxcardinality=True)), g.serialize()
