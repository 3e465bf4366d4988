from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from sigdim import Graph, GraphInputError, generate_exhaustive, generate_random, parse_graph
from sigdim.graphs import (_ALL_ROWS_MAX_N, _parse_canonical, _parse_lines, lowest, mask_of,
                           members, sample_gnp)
from oracles import count_min_degree_one


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


def _plain_masks(g):
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


@pytest.mark.parametrize("n,p", [(_ALL_ROWS_MAX_N, 0.01), (_ALL_ROWS_MAX_N + 1, 0.01), (1500, 0.004)])
def test_masks_agree_on_both_sides_of_the_row_at_a_time_switch(n, p):
    g = generate_random(n, p, 5)
    assert g.masks == _plain_masks(g)


def test_isolated_check_on_a_large_sparse_graph_stays_below_n_squared_bytes():
    # 2m >= n, so require_embeddable reads masks; building them one row at a
    # time peaks near the masks' own size, not at n^2 = 16 MB of rows.
    n = 4000
    pairs = [(0, n - 2)] + [(v, v + 1) for v in range(0, n - 2, 2)]
    text = f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    tracemalloc.start()
    try:
        g = parse_graph(text)
        with pytest.raises(GraphInputError, match=f"^isolated vertex {n - 1}$"):
            g.require_embeddable()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n // 4


def test_has_edge_is_false_outside_the_vertex_range():
    # Loaded factor ids reach has_edge unchecked; masks[-1] would be vertex n-1's row.
    g = parse_graph("3 3\n0 1\n0 2\n1 2\n")
    assert g.has_edge(2, 1) and g.has_edge(0, 2)
    for u, v in [(-1, 0), (0, -1), (-1, 2), (2, -1), (3, 0), (0, 3), (-1, 3), (3, -1)]:
        assert g.has_edge(u, v) is False


@pytest.mark.parametrize("text,bad", [
    ("5 2\n0 1\n2 3\n", 4),       # 2m < n: found from the edge ends
    ("5 3\n0 1\n0 3\n1 3\n", 2),  # 2m >= n: the first zero mask
    ("4 2\n1 2\n2 3\n", 0),
])
def test_require_embeddable_names_the_first_isolated_vertex(text, bad):
    with pytest.raises(GraphInputError, match=f"^isolated vertex {bad}$") as err:
        parse_graph(text).require_embeddable()
    assert err.value.kind == "isolated"


@given(graphs(max_n=12), st.booleans())
@settings(max_examples=100, deadline=None)
def test_serialized_text_takes_the_bulk_path(g, final_newline):
    text = g.serialize()
    assert _parse_canonical(text if final_newline else text[:-1]) == g


def _outcome(parse, text):
    """The graph parsed, or the error's kind, line and message."""
    try:
        return parse(text)
    except GraphInputError as err:
        return err.kind, err.line, str(err)


def _token(edit):
    """A mutation that rewrites one token of one line."""
    def mutate(draw, lines, n):
        if not lines:
            return
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j] = edit(tokens[j], n)
        lines[i] = " ".join(tokens)
    return mutate


def _line(edit):
    """A mutation that rewrites one edge line (the header when there is none)."""
    def mutate(draw, lines, n):
        if not lines:
            return
        i = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))
        lines[i:i + 1] = edit(lines[i], n)
    return mutate


def _header_count(delta):
    def mutate(draw, lines, n):
        n_text, _, m_text = lines[0].partition(" ") if lines else ("", "", "")
        if m_text.isascii() and m_text.isdigit() and len(m_text) < 9:
            lines[0] = f"{n_text} {max(0, int(m_text) + delta)}"
    return mutate


def _shift_token(draw, lines, n):
    """Moves a line's first token to the end of the line before it."""
    if len(lines) >= 2:
        i = draw(st.integers(1, len(lines) - 1))
        first, _, lines[i] = lines[i].partition(" ")
        lines[i - 1] += " " + first


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_MUTATIONS = [
    _line(lambda ln, n: [ln.replace(" ", "\t")]),                   # tab
    _line(lambda ln, n: [ln, ""]),                                  # blank line
    _line(lambda ln, n: [ln, " \t "]),                              # whitespace-only line
    _line(lambda ln, n: [ln + " "]),                                # trailing space
    _line(lambda ln, n: [ln.replace(" ", "  ")]),                   # two spaces
    _line(lambda ln, n: [ln, ln]),                                  # duplicate
    _line(lambda ln, n: []),                                        # a line fewer
    _line(lambda ln, n: [" ".join(reversed(ln.split(" ")))]),       # u > v
    _line(lambda ln, n: [f"{ln.split(' ')[0]} {ln.split(' ')[0]}"]),  # self-loop
    _line(lambda ln, n: [ln + " 1"]),                               # three tokens
    _shift_token,                                                   # three tokens, then one
    _token(lambda t, n: "0" + t),                                   # leading zero
    _token(lambda t, n: "+" + t),
    _token(lambda t, n: "-" + t),
    _token(lambda t, n: t.translate(_ARABIC_INDIC)),                # int() reads these
    _token(lambda t, n: "9" * 4301),                                # past int's digit limit
    _token(lambda t, n: str(n)),                                    # out of range
    _token(lambda t, n: str(n + 7)),
    _token(lambda t, n: ""),
    _header_count(1),
    _header_count(-1),
]


@st.composite
def edge_list_texts(draw):
    """``serialize`` texts, some edited the ways a hand-written file differs."""
    g = draw(graphs(max_n=10))
    lines = g.serialize().splitlines()
    for mutate in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3)):
        mutate(draw, lines, g.n)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@given(edge_list_texts())
@example("3 2\r\n0 1\r\n1 2\r\n")
@example("3 2\n0\t1\n1 2\n")
@example("3 2\n0 1\n\n1 2\n")
@example("3 2\n0 1\n  \n1 2\n")
@example("3 2\n0 1 \n1 2")
@example("3 2\n00 1\n1 2")
@example("03 2\n0 1\n1 2")
@example("3 2\n+0 1\n1 2")
@example("3 2\n٠ 1\n1 2")
@example("3 1\n0 " + "9" * 4301)
@example("3 2\n1 0\n1 2")
@example("3 2\n0 1\n0 1")
@example("3 1\n1 1")
@example("3 1\n0 3")
@example("3 3\n0 1\n1 2")
@example("3 1\n0 1\n1 2")
@example("3\n0 1")
@example("3 1 1\n0 1")
@example("4 2\n0 1 2\n3\n")
@example("\n")
@example("")
@settings(max_examples=400, deadline=None)
def test_bulk_parse_matches_the_line_loop(text):
    # Whatever path parse_graph takes, the graph or the error (kind, line and
    # message) is the line loop's.
    assert _outcome(parse_graph, text) == _outcome(_parse_lines, text)


def test_bulk_parse_allocates_less_than_the_line_loop():
    # A backtracking regex over the lines would keep a stack of megabytes on
    # this 120 KB text, more than the line loop's whole peak.
    text = generate_random(200, 0.9, 13).serialize()

    def peak(parse):
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_graph) < peak(_parse_lines)
