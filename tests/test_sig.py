from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sigdim import (Graph, compute_radii, compute_sig, generate_exhaustive,
                    oracle_embed_2ia, parse_graph)
from sigdim.sig import PointSet, ThresholdKernel, _dist, pack_fields
from sigdim.verify import _recompute


def points(rows):
    return PointSet.from_rows(rows)


def table_sig(ps, radii):
    """The SIG at ``radii``, swept over the exact distance table."""
    n, table = len(ps.grid), ps.distances
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                              if table[u][v] < radii[u] + radii[v]))


def test_radii_line():
    assert compute_radii(points([[0], [1], [10]])) == [1, 1, 9]


def test_radii_two_points():
    assert compute_radii(points([[-24, 0], [0, -24]])) == [24, 24]


def test_two_points_always_joined():
    assert compute_sig(points([[0, 7], [3, 1]])).edges == frozenset({(0, 1)})


def test_boundary_is_strict():
    # 0 -- 1 at distance 1 and 1 -- 10 at distance 9; the outer pair sits at
    # distance 10 = 1 + 9 exactly, so the open balls do not intersect.
    g = compute_sig(points([[0], [1], [10]]))
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_triangle_block_points():
    g = compute_sig(points([[-36, 0], [-36, -36], [0, -36]]))
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        compute_radii(points([[1, 2], [1, 2], [0, 0]]))
    with pytest.raises(ValueError):
        compute_sig(points([[1], [1], [3]]))


def test_oracle_k2():
    ps = oracle_embed_2ia(parse_graph("2 1\n0 1"))
    assert ps.points == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))
    assert compute_sig(ps).edges == frozenset({(0, 1)})


def test_oracle_p3():
    g = parse_graph("3 2\n0 1\n1 2")
    assert compute_sig(oracle_embed_2ia(g)) == g


def test_oracle_roundtrip_small():
    for n in (2, 3, 4):
        for g in generate_exhaustive(n):
            assert compute_sig(oracle_embed_2ia(g)) == g


@st.composite
def rationals(draw):
    num = draw(st.integers(-50, 50))
    den = draw(st.integers(1, 8))
    return Fraction(num, den)


@st.composite
def point_sets(draw):
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(rationals(), min_size=d, max_size=d),
            min_size=n, max_size=n, unique_by=tuple,
        )
    )
    return PointSet.from_rows(rows)


@given(point_sets(), rationals(), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_translation_and_scaling_invariance(ps, shift, scale):
    base = compute_sig(ps)
    moved = PointSet.from_rows(
        [[scale * (x + shift) for x in row] for row in ps.points]
    )
    assert compute_sig(moved) == base


@given(point_sets(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_zero_padding_invariance(ps, extra):
    padded = PointSet.from_rows(
        [list(row) + [Fraction(0)] * extra for row in ps.points]
    )
    assert compute_sig(padded) == compute_sig(ps)


def test_needs_two_points():
    with pytest.raises(ValueError):
        PointSet.from_rows([[1, 2]])


def test_ragged_rejected():
    with pytest.raises(ValueError):
        PointSet.from_rows([[1, 2], [1]])


@st.composite
def integer_rows(draw):
    d = draw(st.integers(1, 40))
    size = draw(st.sampled_from([3, 1000, 10**12]))
    coord = st.integers(-size, size)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=2, max_size=5))
    return [tuple(r) for r in rows]


@given(integer_rows(), st.lists(st.integers(0, 10**13), min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_kernel_decides_the_exact_threshold(rows, extra):
    m = max(abs(x) for r in rows for x in r)
    kernel = ThresholdKernel(rows, m)
    lowered = kernel.lowered(extra[:len(rows)])
    for u, a in enumerate(rows):
        for v, b in enumerate(rows):
            rho = _dist(a, b)
            for t in (rho - 1, rho, rho + 1, 2 * m + 1, 2 * m + 2, 10**40, -3, 0):
                assert (kernel.near(u, [v], t) == [v]) == (rho < t)
            for t in (0, max(rho - extra[v], 0), rho - extra[v] + 1, 2 * m + 3):
                if t >= 0:
                    assert (kernel.near(u, [v], t, lowered) == [v]) == (rho < t + extra[v])


@given(integer_rows(), st.lists(st.integers(0, 10**13), min_size=5, max_size=5), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_within_decides_the_exact_threshold_over_columns(rows, extra, data):
    # Over the columns, within holds one point against every v at once: the
    # top bit of field v says whether rho(u,v) over the chosen columns is
    # below t, or below t + s[v] with the fields raised by s.
    m, d = max(abs(x) for r in rows for x in r), len(rows[0])
    kernel = ThresholdKernel(list(zip(*rows)), m)
    js = data.draw(st.lists(st.integers(0, d - 1), min_size=1, unique=True))
    s = extra[:len(rows)]
    raised, picked = kernel.fields(s), [kernel.rows[j] for j in js]
    for u, a in enumerate(rows):
        values = [a[j] for j in js]
        for v, b in enumerate(rows):
            rho, field_v = _dist(values, [b[j] for j in js]), kernel.spread(1 << v)
            for t in (0, rho - 1, rho, rho + 1, 2 * m + 1, 2 * m + 2, 10**40):
                if t >= 0:
                    assert bool(kernel.within(picked, values, t) & field_v) == (rho < t)
                    assert (bool(kernel.within(picked, values, t, raised) & field_v)
                            == (rho < t + s[v]))


@given(st.integers(1, 70), st.lists(st.integers(0, 2**70), max_size=30))
@example(8, [255, 0, 7])  # the widths packed as machine words, and one that is not
@example(16, [65535, 1, 2**70])
@example(32, [2**32 - 1, 5])
@example(64, [2**64 - 1, 0, 3])
@example(24, [2**24 - 1] * 9)
@settings(max_examples=100, deadline=None)
def test_pack_fields(width, values):
    values = [x % (1 << width) for x in values]
    assert pack_fields(values, width) == sum(x << (width * i) for i, x in enumerate(values))


@given(st.integers(2, 70), st.lists(st.booleans(), min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_spread_sets_top_bits(width, bits):
    # The smallest coordinate bound with fields this wide; no kernel has 3-bit fields.
    m = -(-(2 ** (width - 2) - 1) // 6)
    kernel = ThresholdKernel([[m]], m)
    assert kernel.width == (4 if width == 3 else width)
    mask = sum(1 << i for i, b in enumerate(bits) if b)
    expected = sum(kernel.half << (kernel.width * i) for i, b in enumerate(bits) if b)
    assert kernel.spread(mask) == expected
    assert kernel.gather(kernel.spread(mask)) == mask


def test_kernels_of_one_width_share_the_spread_table():
    # The table is built once per field width, not once per kernel.
    a, b = ThresholdKernel([[0, 4]], 4), ThresholdKernel([[5], [-5]], 5)
    assert a.width == b.width and a._spread is b._spread
    assert ThresholdKernel([[10**6]], 10**6)._spread is not a._spread


def test_radius_claims_confirmed_or_replaced():
    ps = points([[0, 0], [3, 1], [10, -2], [4, 9]])
    exact = [3, 3, 7, 8]
    confirmed = _recompute(ps, exact)
    assert "distances" not in vars(ps)  # a confirmed claim computes no distance
    assert compute_radii(ps) == exact and confirmed == (exact, table_sig(ps, exact))
    for wrong in ([3, 3, 7, 7], [3, 3, 7, 9], [0, 3, 7, 8]):
        assert _recompute(ps, wrong) == (exact, table_sig(ps, exact))
    with pytest.raises(ValueError, match="duplicate points 0 and 2"):
        _recompute(points([[1, 2], [0, 5], [1, 2]]), [1, 1, 1])
    # A radius is never negative: the kernel refuses one rather than the table sweeping it.
    with pytest.raises(ValueError, match="non-negative"):
        compute_sig(ps, [-3, 3, 7, 8])


@st.composite
def radius_claims(draw):
    """Rows and claimed radii: exact, one off by 1, a 0, 10**30, or a row duplicated."""
    rows = draw(integer_rows())
    try:
        claim = compute_radii(points(rows))
    except ValueError:  # the rows drawn already coincide
        claim = [1] * len(rows)
    u = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["exact", "off", "zero", "huge", "duplicate"]))
    if kind == "off":
        claim[u] += draw(st.sampled_from([-1, 1]))
    elif kind == "zero":
        claim[u] = 0
    elif kind == "huge":
        claim[u] = 10**30
    elif kind == "duplicate":
        rows.insert(u, rows[u])
        claim.insert(u, claim[u])
    return rows, claim


@given(radius_claims())
@example(([(0, 0), (3, 1), (10, -2), (4, 9)], [3, 3, 7, 7]))  # no neighbour within the claim
@example(([(0, 0), (3, 1), (10, -2), (4, 9)], [3, 3, 7, 9]))  # a neighbour below it
@example(([(1, 2), (0, 5), (1, 2)], [1, 1, 1]))
@settings(max_examples=200, deadline=None)
def test_recompute_equals_the_exact_table(case):
    # Whatever the claim, _recompute gives the table's radii and the SIG swept
    # over the table at them, or the table's error.
    rows, claim = case
    try:
        ps = points(rows)
        expected = compute_radii(ps), table_sig(ps, compute_radii(ps))
    except ValueError as exc:
        expected = exc
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected))}$"):
            _recompute(points(rows), claim)
    else:
        assert _recompute(points(rows), claim) == expected
