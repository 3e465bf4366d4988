from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sigdim.sig
from sigdim import PointSet, check_inequalities, embed, generate_random, parse_graph, verify
from sigdim.embedding import block_dims
from conftest import C3, K13, K2, planted_stars


def test_k2_passes():
    g = parse_graph(K2)
    rep = verify(g, embed(g))
    assert rep.verdict == "pass"
    assert rep.sig_equal and rep.radius_agree and rep.bound_ok
    assert not rep.inequality_failures


def test_c3_passes():
    g = parse_graph(C3)
    assert verify(g, embed(g)).verdict == "pass"


def perturb(emb, vertex, dim, amount):
    rows = [list(row) for row in emb.points.points]
    rows[vertex][dim] += amount
    return replace(emb, points=PointSet.from_rows(rows))


def test_perturbation_caught():
    # Nudge a coordinate that carries the sup-norm distance; the recomputed
    # radii disagree with the schedule and the corruption is reported.
    g = parse_graph(K2)
    bad = perturb(embed(g), 0, 1, Fraction(1))
    rep = verify(g, bad)
    assert rep.verdict == "fail"
    assert not rep.sig_equal or not rep.radius_agree
    assert rep.diagnostics  # names a witness


def test_non_dominant_perturbation_still_realizes():
    # Moving the non-dominant coordinate keeps every distance intact, so the
    # perturbed points still realize the same graph and the verdict stays
    # honest rather than pattern-matching on coordinates.
    g = parse_graph(K2)
    rep = verify(g, perturb(embed(g), 0, 0, Fraction(1)))
    assert rep.sig_equal and rep.radius_agree


def test_duplicate_points_reported_not_raised():
    g = parse_graph(K2)
    emb = embed(g)
    bad = perturb(emb, 0, 0, Fraction(24))
    bad = perturb(bad, 0, 1, Fraction(-24))  # both rows become (0, -24)
    rep = verify(g, bad)
    assert rep.verdict == "fail"
    assert "degenerate" in rep.diagnostics


def test_residual_boundary_instance():
    # The sign-vector block puts same-star non-neighbors at exactly
    # r(u) + r(v); equality satisfies the non-strict family (3).
    g = parse_graph(K13)
    emb = embed(g)
    assert not check_inequalities(g, emb, 1)
    c1, c2 = emb.points.points[1], emb.points.points[2]
    dist = max(abs(c1[j] - c2[j]) for j in block_dims(emb.picks)[1])
    assert dist == 96 == emb.schedule.rv[1] + emb.schedule.rv[2]


def test_suite_clean_implies_direct_checks(corpus5):
    for g in corpus5:
        emb = embed(g)
        rep = verify(g, emb)
        if not rep.inequality_failures:
            assert rep.sig_equal and rep.radius_agree


def test_vertex_count_mismatch():
    g2 = parse_graph(K2)
    g3 = parse_graph(C3)
    with pytest.raises(ValueError):
        verify(g3, embed(g2))


def test_known_construction_gap_documented():
    # A residual group spanning two stars whose centers were picked at
    # different stages: the block puts the other star's center at the zero
    # vector, closer than that center's own radius.  The realization itself
    # is still correct; only the per-block family (2) is violated.
    g = generate_random(18, 0.1, 2960)
    emb = embed(g)
    rep = verify(g, emb)
    assert rep.sig_equal and rep.radius_agree and rep.bound_ok
    assert rep.verdict == "fail"
    assert [f.ineq for f in rep.inequality_failures] == [2]
    f = rep.inequality_failures[0]
    assert f.pair == (15, 7) and f.lhs == 212 and f.rhs == 216
    # The complete failure list, not just its first entry.
    assert rep.to_json()["inequality_failures"] == [
        {"k": 6, "inequality": 2, "pair": [15, 7], "lhs": 212, "rhs": 216},
    ]
    assert rep.to_json() == reference_report(g, emb)


# -- reference verifier -------------------------------------------------------
#
# A literal transcription of the verify module docstring, kept independent of
# sigdim.verify and sigdim.sig: all arithmetic on Fractions, the SIG and the
# radii in two separate passes, and every family evaluated over its whole
# domain in every block.


def _rat(x: Fraction) -> int | str:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rho(a, b, dims) -> Fraction:
    return max(abs(a[j] - b[j]) for j in dims)


def _reference_sig_and_radii(coords):
    n, full = len(coords), range(len(coords[0]))
    dist = {}
    for u in range(n):  # pass 1: the SIG
        for v in range(u + 1, n):
            dist[u, v] = _rho(coords[u], coords[v], full)
            if dist[u, v] == 0:
                raise ValueError(f"duplicate points {u} and {v}")
    radius = [min(dist[min(u, v), max(u, v)] for v in range(n) if v != u)
              for u in range(n)]
    edges = {(u, v) for (u, v), d in dist.items() if d < radius[u] + radius[v]}
    radii = [min(_rho(coords[u], coords[v], full) for v in range(n) if v != u)
             for u in range(n)]  # pass 2: the radii
    return edges, radii


def _reference_block(g, emb, k) -> list[dict]:
    coords, rv, dims = emb.points.points, emb.schedule.rv, block_dims(emb.picks)[k]
    index = emb.picks.index_of()
    center = emb.factor.leaf_center
    fails = []

    def record(ineq, u, v, lhs, rhs):
        fails.append({"k": k, "inequality": ineq, "pair": [u, v],
                      "lhs": _rat(lhs), "rhs": _rat(rhs)})

    for u in range(g.n):
        for nu in emb.pseudo.n1[u]:
            lhs = _rho(coords[u], coords[nu], dims)
            if not lhs <= rv[u]:
                record(1, u, nu, lhs, rv[u])
    for u in emb.picks.picks[k].vertices:
        for v in range(g.n):
            if v == u:
                continue
            lhs = _rho(coords[u], coords[v], dims)
            non_edge = (min(u, v), max(u, v)) not in g.edges
            share = center.get(u) is not None and center.get(u) == center.get(v)
            if index[v] <= k:
                if not lhs >= max(rv[u], rv[v]):
                    record(2, u, v, lhs, max(rv[u], rv[v]))
                if non_edge and share and not lhs >= rv[u] + rv[v]:
                    record(3, u, v, lhs, rv[u] + rv[v])
            if index[v] >= k and non_edge and not share and not lhs >= rv[u] + rv[v]:
                record(4, u, v, lhs, rv[u] + rv[v])
    for u, v in sorted(g.edges):
        lhs = _rho(coords[u], coords[v], dims)
        if not lhs < rv[u] + rv[v]:
            record(5, u, v, lhs, rv[u] + rv[v])
    return fails


def reference_report(g, emb) -> dict:
    diagnostics = {}
    try:
        edges, radii = _reference_sig_and_radii(emb.points.points)
    except ValueError as exc:
        diagnostics["degenerate"] = str(exc)
        return {"verdict": "fail", "sig_equal": False, "radius_agree": False,
                "bound_ok": False, "inequality_failures": [],
                "diagnostics": diagnostics}
    sig_equal = edges == g.edges
    if not sig_equal:
        diagnostics["missing_edges"] = [list(e) for e in sorted(g.edges - edges)[:10]]
        diagnostics["extra_edges"] = [list(e) for e in sorted(edges - g.edges)[:10]]
    rv = emb.schedule.rv
    wrong = [v for v in range(g.n) if radii[v] != rv[v]]
    if wrong:
        diagnostics["radius_mismatches"] = [
            {"vertex": v, "actual": _rat(radii[v]), "scheduled": _rat(rv[v])}
            for v in wrong[:10]
        ]
    general = 2 * g.n // 3 + 2
    refined = None if g.n % 3 == 0 else -(-2 * g.n // 3) + 1
    bound_ok = emb.d <= general and (refined is None or emb.d <= refined)
    if not bound_ok:
        diagnostics["dimension"] = {"d": emb.d, "general": general, "refined": refined}
    failures = [f for k in range(emb.picks.count) for f in _reference_block(g, emb, k)]
    ok = sig_equal and not wrong and bound_ok and not failures
    return {"verdict": "pass" if ok else "fail", "sig_equal": sig_equal,
            "radius_agree": not wrong, "bound_ok": bound_ok,
            "inequality_failures": failures, "diagnostics": diagnostics}


def assert_same_report(g, emb):
    # Compared as JSON text, so key order and value types count too.
    assert json.dumps(verify(g, emb).to_json()) == json.dumps(reference_report(g, emb))


@st.composite
def embedded_gnp(draw):
    n = draw(st.integers(2, 25))
    p = draw(st.sampled_from([0.1, 0.2, 0.5, 0.9]))
    g = generate_random(n, p, draw(st.integers(0, 10**6)))
    r = draw(st.sampled_from([None, Fraction(7, 3)]))
    return g, embed(g, r)


def boundary_move(emb, g, which, dim, sign):
    """Put an edge exactly on the family-(5) boundary along one coordinate."""
    u, v = sorted(g.edges)[which % len(g.edges)]
    rv = emb.schedule.rv
    coords = emb.points.points
    target = coords[v][dim] + sign * (rv[u] + rv[v])
    return perturb(emb, u, dim, target - coords[u][dim])


coordinate_moves = st.lists(st.tuples(st.integers(0, 24), st.integers(0, 40),
                                      st.fractions(-4, 4, max_denominator=3)),
                            min_size=1, max_size=4)


@given(embedded_gnp(), coordinate_moves, st.integers(0, 300), st.integers(0, 40),
       st.sampled_from([-1, 1]))
@settings(max_examples=40, deadline=None)
def test_verify_matches_reference(case, moves, edge, dim, sign):
    # Once with the exact table for these small point sets, once through the
    # kernel and the block screen of families (2)-(4).
    g, emb = case
    for small in (sigdim.sig.SMALL_TABLE, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sigdim.sig, "SMALL_TABLE", small)
            emb = replace(emb, points=PointSet.from_rows(emb.points.points))
            assert_same_report(g, emb)
            moved = emb
            for vertex, j, amount in moves:
                moved = perturb(moved, vertex % g.n, j % emb.d, amount)
            assert_same_report(g, moved)
            assert_same_report(g, boundary_move(emb, g, edge, dim % emb.d, sign))


def test_verify_matches_reference_off_grid_radius():
    # A scheduled radius off the coordinate grid puts both on a finer scale.
    g = generate_random(12, 0.3, 5)
    emb = embed(g)
    rv = dict(emb.schedule.rv)
    rv[3] += Fraction(1, 7)
    assert_same_report(g, replace(emb, schedule=replace(emb.schedule, rv=rv)))


def test_verify_matches_reference_on_duplicates():
    g = generate_random(10, 0.5, 3)
    emb = embed(g)
    coords = list(emb.points.points)
    coords[7] = coords[2]
    assert_same_report(g, replace(emb, points=PointSet.from_rows(coords)))


def test_verify_matches_reference_on_star_mates():
    # The later of two star mates is copied onto the earlier one, which is then
    # moved by r along one coordinate of the later one's block k: that pair
    # sits on the (2) boundary and inside (3), and the screen reaches it
    # through the star's mate mask.
    g = planted_stars(80, 2)
    emb = embed(g)
    assert not emb.points.small
    index, rv = emb.picks.index_of(), emb.schedule.rv
    first, *_, last = sorted(emb.factor.stars[min(emb.factor.stars)], key=index.get)
    k = index[last]
    coords = [list(row) for row in emb.points.points]
    coords[first] = list(coords[last])
    coords[first][block_dims(emb.picks)[k][0]] += rv[last]
    moved = replace(emb, points=PointSet.from_rows(coords))
    assert_same_report(g, moved)
    assert {"k": k, "inequality": 3, "pair": [last, first], "lhs": _rat(rv[last]),
            "rhs": _rat(2 * rv[last])} in verify(g, moved).to_json()["inequality_failures"]


def count_exact_distances(monkeypatch) -> list:
    calls = []
    dist = sigdim.sig._dist

    def counted(a, b):
        calls.append((a, b))
        return dist(a, b)

    monkeypatch.setattr(sigdim.sig, "_dist", counted)
    return calls


def test_passing_verify_computes_no_distance(monkeypatch):
    # The kernel answers every threshold question of a passing verify; the
    # exact table is built only when a radius claim fails.
    g = generate_random(60, 0.5, 11)
    emb = embed(g)
    assert not emb.points.small
    calls = count_exact_distances(monkeypatch)
    assert verify(g, emb).verdict == "pass"
    assert calls == []
    rv = dict(emb.schedule.rv)
    rv[17] += 2
    tampered = replace(emb, schedule=replace(emb.schedule, rv=rv))
    assert_same_report(g, tampered)
    assert len(calls) == len(set(calls)) == g.n * (g.n - 1) // 2


def tamper_rv(emb, vertex, value):
    rv = dict(emb.schedule.rv)
    rv[vertex] = value(rv[vertex])
    return replace(emb, schedule=replace(emb.schedule, rv=rv))


@pytest.mark.parametrize("value", [
    lambda r: 0, lambda r: -r, lambda r: Fraction(-1, 3), lambda r: 10**30,
    lambda r: r + 1, lambda r: r - 1, lambda r: r + 2,
], ids=["zero", "negative", "negative-off-grid", "huge", "plus1", "minus1", "plus2"])
def test_verify_matches_reference_on_tampered_claims(value):
    # Claims the kernel must refute, or that must not reach it.
    g = generate_random(45, 0.5, 7)
    emb = embed(g)
    assert not emb.points.small
    assert_same_report(g, tamper_rv(emb, 23, value))


def test_verify_matches_reference_on_coincident_points():
    g = generate_random(45, 0.5, 7)
    emb = embed(g)
    coords = list(emb.points.points)
    coords[30] = coords[4]
    assert_same_report(g, replace(emb, points=PointSet.from_rows(coords)))


@given(embedded_gnp(), coordinate_moves)
@settings(max_examples=25, deadline=None)
def test_kernel_and_table_reports_agree(case, moves):
    # The same reports whether verification reads the kernel or the table.
    g, emb = case
    for vertex, j, amount in moves:
        emb = perturb(emb, vertex % g.n, j % emb.d, amount)
    reports = []
    for small in (0, 10**12):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sigdim.sig, "SMALL_TABLE", small)
            fresh = replace(emb, points=PointSet.from_rows(emb.points.points))
            reports.append(json.dumps(verify(g, fresh).to_json()))
    assert reports[0] == reports[1]
