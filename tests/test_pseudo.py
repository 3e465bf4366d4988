from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from sigdim import (PipelineError, build_pseudo, generate_random, maximum_matching,
                    parse_graph, pick_vertices, radius_schedule, star_triangle_factor)
from sigdim.graphs import mask_of
from sigdim.pseudo import default_radius, validate_schedule
from conftest import ATLAS279, C3, K13, K2, planted_stars
from oracles import reference_m


def pipeline_to_schedule(text, r=None):
    g = parse_graph(text)
    f = star_triangle_factor(g, maximum_matching(g))
    seq = pick_vertices(g, f)
    pn = build_pseudo(f, seq)
    if r is None:
        r = Fraction(12 * g.n)
    sched = radius_schedule(pn, seq, r)
    return g, f, seq, pn, sched


def test_matching_case():
    _, _, _, pn, _ = pipeline_to_schedule(K2)
    assert pn.near == [mask_of({1}), mask_of({0})]
    assert pn.second[0] == mask_of({0})
    assert pn.second[1] == mask_of({1})


def test_star_case():
    _, _, _, pn, _ = pipeline_to_schedule(K13)
    assert pn.near[0] == mask_of({1, 2, 3})
    assert pn.near[1] == mask_of({0})
    assert pn.second[1] == mask_of({1, 2, 3})
    assert pn.second[0] == mask_of({0})
    assert pn.n1 == {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}  # the view perfbench counts


def test_triangle_tie_break_by_index():
    # All three picked together; the earliest role goes to the least index.
    _, _, _, pn, _ = pipeline_to_schedule(C3)
    assert pn.near[0] == mask_of({1, 2})
    assert pn.near[1] == mask_of({0}) and pn.near[2] == mask_of({0})
    assert pn.second[0] == mask_of({0})


def test_every_vertex_in_own_second_neighborhood(corpus5):
    for g in corpus5:
        f = star_triangle_factor(g, maximum_matching(g))
        seq = pick_vertices(g, f)
        pn = build_pseudo(f, seq)
        for v in range(g.n):
            assert pn.second[v] >> v & 1


def test_schedule_matches_the_set_definition(corpus5):
    # m(v) = the least pick index over N(v) | N2(v), taken from sets by the oracle.
    graphs = corpus5 + [planted_stars(200, seed) for seed in range(10)]
    graphs += [generate_random(n, Fraction(1, 2), n) for n in (6, 13, 40, 90)]
    for g in graphs:
        f = star_triangle_factor(g, maximum_matching(g))
        seq = pick_vertices(g, f)
        sched = radius_schedule(build_pseudo(f, seq), seq, default_radius(g.n))
        assert sched.m == reference_m(f, seq)


def test_k2_schedule():
    _, _, _, _, sched = pipeline_to_schedule(K2, r=Fraction(24))
    assert sched.delta == 2
    assert sched.m == {0: 0, 1: 0}
    assert sched.rv == {0: 24, 1: 24}


def test_k13_schedule():
    _, _, _, _, sched = pipeline_to_schedule(K13, r=Fraction(48))
    assert sched.delta == 2
    assert all(sched.m[v] == 0 for v in range(4))
    assert all(sched.rv[v] == 48 for v in range(4))


def test_radius_window_on_corpus(corpus5):
    for g in corpus5:
        _, f, seq, pn, sched = pipeline_to_schedule(g.serialize())
        r = sched.r
        for v in range(g.n):
            assert 2 * r / 3 < sched.rv[v] <= r
            assert sched.rv[v] == r - 2 * sched.delta * sched.m[v]
        validate_schedule(f, pn, seq, sched)


def test_component_radii_agree(corpus5):
    for g in corpus5:
        _, f, _, _, sched = pipeline_to_schedule(g.serialize())
        for u, leaves in f.stars.items():
            assert all(sched.rv[x] == sched.rv[u] for x in leaves)
        for tri in f.triangles:
            assert len({sched.rv[v] for v in tri}) == 1
        for u, v in f.residual.edges:
            assert sched.rv[u] == sched.rv[v]


def test_rejects_nonpositive_radius():
    g = parse_graph(K2)
    f = star_triangle_factor(g, maximum_matching(g))
    seq = pick_vertices(g, f)
    pn = build_pseudo(f, seq)
    with pytest.raises(ValueError):
        radius_schedule(pn, seq, Fraction(0))


@pytest.mark.parametrize("radius", [48.0, True, "48", None])
def test_rejects_non_rational_radius(radius):
    g = parse_graph(K2)
    f = star_triangle_factor(g, maximum_matching(g))
    seq = pick_vertices(g, f)
    with pytest.raises(ValueError, match="int or Fraction"):
        radius_schedule(build_pseudo(f, seq), seq, radius)


@pytest.mark.parametrize("text,m,message", [
    (K13, {2: 4}, r"m\(2\) = 4 outside \[0, 4\)"),        # m(v) = n: r(v) = 2r/3
    (K13, {1: 1}, "leaf 1 and center 0 disagree"),       # a leaf off its centre's radius
    (K13, dict.fromkeys(range(4), 1), r"m\(0\) = 1 above block 0"),  # reach(P_0) below the cutoff
    # P_1 = (0, 2, 4) reaches the pairs (2, 6) and (4, 5): of the four above it, the lowest is named.
    (ATLAS279, dict.fromkeys((2, 4, 5, 6), 2), r"m\(2\) = 2 above block 1"),
], ids=["m-equals-n", "leaf-centre", "above-cutoff", "two-above-cutoff"])
def test_validate_schedule_rejects_tampered_m(text, m, message):
    # On K_{1,3}, P_0 = {0}, whose reach is every vertex; P_1 = the leaves 1, 2, 3.
    _, f, seq, pn, sched = pipeline_to_schedule(text)
    validate_schedule(f, pn, seq, sched)
    with pytest.raises(PipelineError, match=message) as info:
        validate_schedule(f, pn, seq, replace(sched, m={**sched.m, **m}))
    assert info.value.stage == "schedule"


def test_validate_schedule_prints_the_matched_pair_apart():
    # K2's factor is the one matched pair (0, 1).
    _, f, seq, pn, sched = pipeline_to_schedule(K2)
    with pytest.raises(PipelineError, match=r"matched pair \(0, 1\) disagrees on m"):
        validate_schedule(f, pn, seq, replace(sched, m={0: 0, 1: 1}))
