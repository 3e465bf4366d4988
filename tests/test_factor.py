from __future__ import annotations

from sigdim import maximum_matching, parse_graph, star_triangle_factor, validate_factor
from conftest import C3, K13, K2


def factor_of(text):
    g = parse_graph(text)
    return g, star_triangle_factor(g, maximum_matching(g))


def test_k2_stays_matching():
    g, f = factor_of(K2)
    assert not f.stars and not f.triangles
    assert f.residual.edges == frozenset({(0, 1)})


def test_triangle_conversion():
    # One matching edge, the unmatched vertex folds in, and the adjacent
    # two-leaf star becomes a triangle.
    g, f = factor_of(C3)
    assert not f.stars
    assert f.triangles == frozenset({(0, 1, 2)})
    assert not f.residual.edges


def test_star_absorbs_all_leaves():
    g, f = factor_of(K13)
    assert f.stars == {0: frozenset({1, 2, 3})}
    assert not f.triangles and not f.residual.edges


def test_component_lookup():
    g, f = factor_of(K13)
    assert f.leaf_center.get(3) == 0 and f.leaf_center.get(0) is None


def test_invariants_on_corpus(corpus5):
    for g in corpus5:
        f = star_triangle_factor(g, maximum_matching(g))
        validate_factor(g, f)


def test_leaves_of_distinct_stars_non_adjacent(corpus5):
    # Already part of validate_factor; asserted directly for the record.
    for g in corpus5:
        f = star_triangle_factor(g, maximum_matching(g))
        leaves = sorted(f.leaf_center)
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                assert not g.has_edge(a, b)
