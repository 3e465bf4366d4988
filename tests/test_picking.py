from __future__ import annotations

from itertools import combinations
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from sigdim import (PickClass, generate_random, maximum_matching, parse_graph,
                    pick_vertices, star_triangle_factor, validate_picks)
from sigdim import picking
from sigdim.errors import PipelineError
from sigdim.graphs import Graph
from conftest import (C3, C5, CLASS_V, CLASS_VI_1, CLASS_VI_2, K13, K2, TWO_K2,
                      planted_stars)


def picks_of(text):
    g = parse_graph(text)
    f = star_triangle_factor(g, maximum_matching(g))
    seq = pick_vertices(g, f)
    validate_picks(g, f, seq)
    return g, seq


def trace(seq):
    return [(p.cls.value, p.step, p.vertices) for p in seq.picks]


def test_k2_trace():
    _, seq = picks_of(K2)
    assert trace(seq) == [("I", 45, (0, 1))]


def test_c3_trace():
    _, seq = picks_of(C3)
    assert trace(seq) == [("IV", 43, (0, 1, 2))]


def test_two_k2_trace():
    _, seq = picks_of(TWO_K2)
    assert trace(seq) == [("VII", 24, (0, 1, 2)), ("I", 45, (3,))]
    assert seq.picks[0].roles == {"p": 0, "q": 1, "s": 2}


def test_k13_trace():
    _, seq = picks_of(K13)
    assert trace(seq) == [("I", 19, (0,)), ("II", 32, (1, 2, 3))]


def test_c5_trace():
    # Center singleton, then both endgame leaves, then the leftover pair:
    # three plain sets and no residual.
    _, seq = picks_of(C5)
    assert trace(seq) == [("I", 19, (0,)), ("I", 30, (1, 4)), ("I", 45, (2, 3))]


def test_class_v_instance():
    g, seq = picks_of(CLASS_V)
    by_class = {p.cls for p in seq.picks}
    assert PickClass.TWO_LEAF_TRIPLE in by_class
    p = next(p for p in seq.picks if p.cls is PickClass.TWO_LEAF_TRIPLE)
    assert p.step == 33
    v0, w1, w2 = p.roles["v0"], p.roles["w1"], p.roles["w2"]
    assert not g.has_edge(v0, w1) and not g.has_edge(v0, w2)


def test_class_vi_instances():
    for text in (CLASS_VI_1, CLASS_VI_2):
        g, seq = picks_of(text)
        p = next(p for p in seq.picks if p.cls is PickClass.ONE_LEAF_EDGE_TRIPLE)
        assert p.step == 35
        w0, v1, v2 = p.roles["w0"], p.roles["v1"], p.roles["v2"]
        assert g.has_edge(v1, v2)
        assert g.has_edge(w0, v1) and not g.has_edge(w0, v2)


def test_partition_and_predicates_on_corpus(corpus5):
    for g in corpus5:
        f = star_triangle_factor(g, maximum_matching(g))
        seq = pick_vertices(g, f)
        validate_picks(g, f, seq)
        picked = [v for p in seq.picks for v in p.vertices]
        assert sorted(picked) == list(range(g.n))


def test_step_thirty_excludes_residual(corpus5):
    for g in corpus5:
        f = star_triangle_factor(g, maximum_matching(g))
        seq = pick_vertices(g, f)
        steps = {p.step for p in seq.picks}
        if 30 in steps:
            assert not any(p.cls is PickClass.RESIDUAL for p in seq.picks)


def test_residual_members_adjacent_to_later(corpus5):
    for g in corpus5:
        f = star_triangle_factor(g, maximum_matching(g))
        seq = pick_vertices(g, f)
        for p in seq.picks:
            if p.cls is not PickClass.RESIDUAL:
                continue
            later = [v for q in seq.picks[p.k + 1:] for v in q.vertices]
            for u in p.vertices:
                assert all(g.has_edge(u, v) for v in later)


class _CombinationsRun(picking._Run):
    """Reference picker: the step-22/24/40 scans and the independence test as
    plain walks over combinations of the unpicked vertices, restarting after
    every pick."""

    def independent(self, vs):
        return not any(self.g.has_edge(a, b) for a, b in combinations(vs, 2))

    def triple_scan(self, wanted_edges):
        owner = self.f.leaf_center
        for t in combinations(self.unpicked(), 3):
            owners = [owner[v] for v in t if v in owner]
            if len(owners) != len(set(owners)):
                continue
            if sum(self.g.has_edge(a, b) for a, b in combinations(t, 2)) == wanted_edges:
                return t
        return None

    def nonadjacent_pairs(self):
        while True:
            rest = self.unpicked()
            pair = next((pq for pq in combinations(rest, 2) if not self.g.has_edge(*pq)),
                        None)
            if pair is None:
                return
            self.emit(pair, PickClass.NONADJACENT_PAIR, 40,
                      roles={"p": pair[0], "q": pair[1]})


def pick_outcome(g, f):
    try:
        return pick_vertices(g, f).to_json()
    except PipelineError as exc:
        return exc.to_json()


@st.composite
def picker_graphs(draw):
    n = draw(st.integers(8, 30))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return planted_stars(n, seed)
    return generate_random(n, draw(st.sampled_from([1 / 2, 3 / 4, 9 / 10])), seed)


@given(picker_graphs())
@settings(max_examples=60, deadline=None)
def test_mask_scans_match_combinations_scans(g):
    f = star_triangle_factor(g, maximum_matching(g))
    with patch.object(picking, "_Run", _CombinationsRun):
        expected = pick_outcome(g, f)
    assert pick_outcome(g, f) == expected


def test_pick_scans_are_quadratic():
    # The last step-22 scan finds nothing; a walk over every triple would spend
    # C(u, 3) edge lookups on that call alone.
    g = generate_random(120, 9 / 10, 7)
    f = star_triangle_factor(g, maximum_matching(g))
    calls = 0
    has_edge = Graph.has_edge

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return has_edge(self, u, v)

    with patch.object(Graph, "has_edge", counted):
        seq = pick_vertices(g, f)
    assert {22, 24} <= {p.step for p in seq.picks}
    assert calls < g.n ** 2
