from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from sigdim import Graph, GraphInputError, generate_exhaustive, generate_random, parse_graph
from sigdim.graphs import count_min_degree_one, lowest, mask_of, members, sample_gnp


def test_parse_single_edge():
    g = parse_graph("2 1\n0 1")
    assert g.n == 2 and g.edges == frozenset({(0, 1)})


def test_parse_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n0 2")
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


@pytest.mark.parametrize(
    "text,kind",
    [
        ("3 1\n0 0", "self_loop"),
        ("3 2\n0 1\n1 0", "duplicate"),
        ("3 1\n0 7", "range"),
        ("3 1\nx y", "malformed"),
        ("2", "malformed"),
        ("2 2\n0 1", "malformed"),
        ("", "malformed"),
    ],
)
def test_parse_rejects(text, kind):
    with pytest.raises(GraphInputError) as err:
        parse_graph(text)
    assert err.value.kind == kind


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_serialize_roundtrip(g):
    assert parse_graph(g.serialize()) == g


@given(graphs(max_n=20))
@settings(max_examples=100, deadline=None)
def test_masks_hold_the_neighbours(g):
    assert g.masks == tuple(sum(1 << u for e in g.edges if v in e for u in e if u != v)
                            for v in range(g.n))


# Dense masks, and masks of up to 20 vertices below 300: members switches
# method at 16 set bits.
@given(st.integers(min_value=0, max_value=1 << 200)
       | st.sets(st.integers(0, 299), max_size=20).map(lambda vs: sum(1 << v for v in vs)))
@example(0)
@example(1)
@example((1 << 64) | 1 << 130)
@settings(max_examples=300, deadline=None)
def test_mask_helpers_match_plain_references(mask):
    bits = [v for v in range(mask.bit_length()) if mask >> v & 1]
    assert members(mask) == bits
    assert mask_of(bits) == mask
    if mask:
        assert lowest(mask) == min(bits)


def test_exhaustive_counts():
    assert len(list(generate_exhaustive(2))) == 1
    assert len(list(generate_exhaustive(3))) == 4
    assert len(list(generate_exhaustive(4))) == 41
    assert count_min_degree_one(4) == 41


def test_exhaustive_n3_members():
    got = {g.serialize() for g in generate_exhaustive(3)}
    paths = {
        "3 2\n0 1\n0 2\n",  # center 0
        "3 2\n0 1\n1 2\n",  # center 1
        "3 2\n0 2\n1 2\n",  # center 2
    }
    triangle = {"3 3\n0 1\n0 2\n1 2\n"}
    assert got == paths | triangle


def test_exhaustive_unique_and_min_degree():
    seen = set()
    for g in generate_exhaustive(5):
        key = g.serialize()
        assert key not in seen
        seen.add(key)
        assert all(g.masks)


def test_exhaustive_range():
    with pytest.raises(GraphInputError):
        list(generate_exhaustive(7))
    with pytest.raises(GraphInputError):
        list(generate_exhaustive(1))


def test_random_p_one_is_complete():
    g = generate_random(5, 1, seed=3)
    assert len(g.edges) == 10


def test_random_p_zero_is_repairs_only():
    g, repairs = sample_gnp(4, 0, seed=11)
    assert g.edges == frozenset(repairs)
    assert min(mask.bit_count() for mask in g.masks) >= 1


def test_random_deterministic():
    a = generate_random(10, 0.5, seed=7)
    b = generate_random(10, 0.5, seed=7)
    assert a == b


def test_random_min_degree():
    for seed in range(30):
        g = generate_random(9, 0.1, seed)
        assert all(g.masks)


def test_delete_vertex_relabels():
    g = parse_graph("4 3\n0 1\n1 2\n2 3")
    h = g.delete_vertex(1)
    assert h.n == 3 and h.edges == frozenset({(1, 2)})


def test_huge_header_rejected_without_allocating():
    # The isolated-vertex check must not build adjacency for every vertex.
    tracemalloc.start()
    try:
        g = parse_graph("1000000 0\n")
        with pytest.raises(GraphInputError, match="isolated vertex 0"):
            g.require_embeddable()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

