from __future__ import annotations

import importlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sigdim.sig
from sigdim import (PointSet, build_pseudo, check_inequalities, embed, generate_random,
                    oracle_embed_2ia, parse_graph, verify)
from sigdim.cli import embedding_from_json
from sigdim.embedding import Embedding, block_dims
from sigdim.errors import PipelineError
from sigdim.matching import Matching
from sigdim.picking import PickClass, PickedSet, PickSequence
from sigdim.pseudo import radius_schedule
from sigdim.verify import _Grid
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
    # A clean suite stands in for the SIG and radius recomputation, so the
    # implication is checked against the independent Fraction verifier.
    for g in corpus5:
        emb = embed(g)
        assert verify(g, emb).to_json() == reference_report(g, emb)


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
        for nu in sorted(emb.pseudo.n1[u]):
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
    # The kernel and the block screen of families (2)-(4) against the Fraction
    # reference, on the embedding, on moved coordinates and on a (5) boundary.
    g, emb = case
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


def test_misnumbered_picks_rejected():
    # A pick's k is its position.  With generate_random(40, 1/2, 3)'s labels
    # reversed, verify's (2)-(4) domains (built by position) and the radius
    # schedule and block builders (which read k) would disagree.
    picks = embed(generate_random(40, 0.5, 3)).picks.picks
    with pytest.raises(ValueError, match="numbered by position"):
        PickSequence(tuple(replace(p, k=len(picks) - 1 - p.k) for p in picks))


def test_screen_flags_no_vertex_on_planted_stars():
    # Neither (3) nor (4) covers a star mate picked after u's block, so the
    # screen's domains leave those pairs out; testing them would flag 30 of
    # these 60 vertices, and the screen's fields are the reported failures.
    g = planted_stars(60, 0)
    emb = embed(g)
    grid = _Grid(g, emb)
    assert not [f for k in range(emb.picks.count) for f in check_inequalities(g, emb, k, grid)]
    assert_same_report(g, emb)


def test_verify_reports_dimension_over_bound():
    # One class I pick of all seven path vertices is one block of width 7 > 6;
    # 2I + A realizes the path with every radius 1, so only the bound fails.
    g = parse_graph("7 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6")
    emb = embed(g)
    picks = PickSequence((PickedSet(0, tuple(range(7)), PickClass.RANDOM, 18),))
    emb = replace(emb, picks=picks, pseudo=build_pseudo(emb.factor, picks),
                  points=oracle_embed_2ia(g),
                  schedule=replace(emb.schedule, rv=dict.fromkeys(range(7), 1)))
    assert_same_report(g, emb)
    report = verify(g, emb).to_json()
    assert not report["bound_ok"] and report["sig_equal"] and report["radius_agree"]
    assert report["diagnostics"] == {"dimension": {"d": 7, "general": 6, "refined": 6}}


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
    calls = count_exact_distances(monkeypatch)
    assert verify(g, emb).verdict == "pass"
    assert calls == []
    rv = dict(emb.schedule.rv)
    rv[17] += 2
    tampered = replace(emb, schedule=replace(emb.schedule, rv=rv))
    assert_same_report(g, tampered)
    assert len(calls) == len(set(calls)) == g.n * (g.n - 1) // 2


def test_passing_verify_leaves_the_edge_pairs_unbuilt():
    # Embed and a passing verify read the graph's masks alone; the edge pairs
    # derived from them are built only for a failing report's diagnostics.
    for g in (generate_random(60, 0.5, 11), parse_graph(K13), planted_stars(60, 0)):
        assert verify(g, embed(g)).verdict == "pass"
        assert "edges" not in vars(g)


class Recomputed(Exception):
    pass


def recompute(*args, **kwargs):
    raise Recomputed


def test_recomputing_verify_sweeps_once(monkeypatch):
    # An all-zero column in no block sends a correct file down the recomputing
    # path.  Its scheduled radii pass the rule there, so the SIG is swept once,
    # at them, and no radius or exact distance is computed.
    g = generate_random(60, 0.5, 11)
    emb = embed(g)
    padded = replace(emb, points=PointSet.from_rows([row + (0,) for row in emb.points.points]))
    assert block_dims(emb.picks)[-1].stop == padded.d - 1
    module = importlib.import_module("sigdim.verify")
    sweeps, compute_sig = [], module.compute_sig
    monkeypatch.setattr(module, "compute_sig", lambda *args: sweeps.append(args) or compute_sig(*args))
    monkeypatch.setattr(module, "compute_radii", recompute)
    calls = count_exact_distances(monkeypatch)
    assert verify(g, padded).verdict == "pass"
    assert len(sweeps) == 1 and calls == []


def test_passing_verify_skips_the_recomputation(monkeypatch):
    # A clean suite certifies the SIG and the radii: no sweep, no recomputation,
    # on 60 points and on 4.  ``compute_sig`` holds the only sweep; it is
    # stubbed where ``verify`` calls it and where it lives.
    big, small = generate_random(60, 0.5, 11), parse_graph(K13)
    embs = {g: embed(g) for g in (big, small)}
    module = importlib.import_module("sigdim.verify")  # the package's ``verify`` is the function
    for target in (module, sigdim.sig):
        for name in ("compute_radii", "compute_sig"):
            monkeypatch.setattr(target, name, recompute)
    for g, emb in embs.items():
        assert verify(g, emb).verdict == "pass"
    with pytest.raises(Recomputed):
        verify(big, tamper_rv(embs[big], 17, lambda r: r + 2))


def test_self_witness_file_takes_the_recomputing_path():
    # A library caller may list a vertex as the one leaf of its own star (the
    # loader rejects such a file): here a matched pair (c, w) becomes the stars
    # {c: [c]} and {w: [w]}.  Then N(c) = {c} and family (1) has nothing to
    # check at c, so with r(c) one grid unit low the suite passes while no
    # point lies at distance r(c) from c.
    g = generate_random(60, 0.5, 11)
    emb = embed(g)
    c, w = min(emb.factor.residual.edges)
    factor = replace(emb.factor, stars={c: frozenset([c]), w: frozenset([w]), **emb.factor.stars},
                     residual=Matching(emb.factor.residual.edges - {(c, w)}))
    pseudo = build_pseudo(factor, emb.picks)
    rv = {**emb.schedule.rv, c: emb.schedule.rv[c] - Fraction(1, emb.points.scale)}
    schedule = replace(radius_schedule(pseudo, emb.picks, emb.schedule.r), rv=rv)
    forged = Embedding(g, factor, emb.picks, pseudo, schedule, emb.points)
    with pytest.raises(PipelineError, match=f"star {c} has fewer than 2 leaves"):
        embedding_from_json(g, json.loads(json.dumps(forged.to_json())))
    assert forged.pseudo.n1[c] == {c}
    report = verify(g, forged).to_json()
    assert report["inequality_failures"] == [] and not report["radius_agree"]
    assert [m["vertex"] for m in report["diagnostics"]["radius_mismatches"]] == [c]
    assert_same_report(g, forged)


def tamper_rv(emb, vertex, value):
    rv = dict(emb.schedule.rv)
    rv[vertex] = value(rv[vertex])
    return replace(emb, schedule=replace(emb.schedule, rv=rv))


@pytest.mark.parametrize("value", [
    lambda r: 10**30, lambda r: r + 1, lambda r: r - 1, lambda r: r + 2,
], ids=["huge", "plus1", "minus1", "plus2"])
def test_verify_matches_reference_on_tampered_claims(value):
    # Claims the kernel must refute.
    g = generate_random(45, 0.5, 7)
    emb = embed(g)
    assert_same_report(g, tamper_rv(emb, 23, value))


@pytest.mark.parametrize("value", [lambda r: 0, lambda r: -r, lambda r: Fraction(-1, 3)],
                         ids=["zero", "negative", "negative-off-grid"])
def test_verify_rejects_non_positive_claims(value):
    # A radius is a nearest-neighbour distance: a claim <= 0 is malformed input,
    # refused where the grid is built, so it never reaches the kernel.
    g = generate_random(45, 0.5, 7)
    tampered = tamper_rv(embed(g), 23, value)
    with pytest.raises(ValueError, match="scheduled radius of vertex 23 is not positive"):
        verify(g, tampered)
    with pytest.raises(ValueError, match="vertex 23"):
        check_inequalities(g, tampered, 0)


def test_verify_matches_reference_on_coincident_points():
    g = generate_random(45, 0.5, 7)
    emb = embed(g)
    coords = list(emb.points.points)
    coords[30] = coords[4]
    assert_same_report(g, replace(emb, points=PointSet.from_rows(coords)))


def test_verify_matches_reference_on_a_column_in_no_block():
    # A library caller can pass more columns than the picks' blocks cover.  The
    # suite never reads the extra one, so it certifies nothing there, although
    # moving vertex 4 away along it breaks the SIG and the radii.
    g = generate_random(45, 0.5, 7)
    emb = embed(g)
    coords = [row + (10**6 if v == 4 else 0,) for v, row in enumerate(emb.points.points)]
    moved = replace(emb, points=PointSet.from_rows(coords))
    assert not verify(g, moved).inequality_failures
    assert_same_report(g, moved)


