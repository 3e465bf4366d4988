from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import ceil, floor
from unittest.mock import patch

import pytest

from sigdim import (Graph, Matching, PickedSet, PickSequence, PipelineError, dimension_bound,
                    embed, embedding, generate_random, parse_graph, verify)
from sigdim.cli import embedding_from_json
from sigdim.embedding import block_dims, check_accounting
from sigdim.factor import StarTriangleFactor
from sigdim.picking import PickClass
from sigdim.pseudo import build_pseudo, default_radius, radius_schedule
from conftest import (ATLAS51, ATLAS106, ATLAS279, ATLAS281, ATLAS418, ATLAS1236, C3, C5,
                      CLASS_V, CLASS_VI_1, CLASS_VI_2, K13, K2, P3, TWO_K2, planted_stars)


def coords_of(text, r=None):
    g = parse_graph(text)
    emb = embed(g, r)
    return emb, [[int(x) for x in row] for row in emb.points.points]


def test_k2_golden():
    emb, coords = coords_of(K2)
    assert emb.d == 2
    assert coords == [[-24, 0], [0, -24]]


def test_c3_golden():
    emb, coords = coords_of(C3)
    assert emb.d == 2
    assert coords == [[-36, 0], [-36, -36], [0, -36]]


def test_k13_golden():
    emb, coords = coords_of(K13)
    assert emb.d == 3
    assert coords == [[-48, 0, 0], [0, 48, 48], [0, 48, -48], [0, -48, 48]]


def test_two_k2_golden():
    emb, coords = coords_of(TWO_K2)
    assert emb.d == 3
    assert coords == [[-92, -44, 48], [-46, -92, 48], [48, 48, 0], [4, 4, -48]]


def test_p3_golden():
    emb, coords = coords_of(P3)
    assert emb.d == 3
    assert coords == [[0, -36, 36], [-36, 0, 0], [0, 36, -36]]


# sha256 of the compact embedding JSON, key order as written: coordinates,
# schedule and trace must stay byte-identical whatever the internal arithmetic.
FULL_GOLDENS = [
    ("CLASS_V", None, "c402e9b66340611df06265a9b780b7c4e78f95c57027ee98090c085df2452469"),
    ("CLASS_V", Fraction(7, 3), "09a1c9450d1b28a2cc60516141f8ff386db72b8f4984aa032c65b32eaf3cafd8"),
    ("CLASS_VI_1", None, "fb5ee0d9dac9b95b9d5308451fdce10bf0d0cd371cc8cc1f5fc6369f8268aabf"),
    ("CLASS_VI_1", Fraction(7, 3), "37f32f0b29d977e8ad2c354f6deb57a24ee230b0fc0a3afad905265ca417951e"),
    ("C5", None, "04597103c9f67553f50fa8ef3a1e702453baf9e2071c49c48711c0bf73d81dcf"),
    ("C5", Fraction(7, 3), "9bde9e35be9717dcc390256a9996b2bebf482f2b067a8459f00df2230644005b"),
    ("G30", None, "8521e8b91c28ea93818dfd9b6a03faca149ab2b6fb8b94972d50378221532015"),
    ("G30", Fraction(7, 3), "ed06efb45f7f1efc8fdf4c945e8b9f569e61f341169efaf708a43cf3e2525000"),
    # Star-heavy traces: steps 7, 9, 19, 22, 27 (seed 0); 9, 10, 18, 22, 30
    # (seed 1); 7, 9, 22, 32 (seed 6).  All three pass verification.
    ("STARS0", None, "94d0eff930d210e5e5082c3e7cd55afbf4bee8c15df0e33734cf314f2c2dde19"),
    ("STARS0", Fraction(7, 3), "8887ba82d9b5ac89416d921da59f00d9811b5b9bc83cfd6a200dae725425d486"),
    ("STARS1", None, "8854ebb2d5b6370f2991dad08559e20047fa23b668cc35641099f71a483f697e"),
    ("STARS1", Fraction(7, 3), "d346b4bde06b98241caf2d25c6ce7491bfe0a53c068f1427fac2322d8aa79912"),
    ("STARS6", None, "03a22fd46b38df7a724d1efb18e7fb2cdc3e3aca0ef27f686c7529fd14a8587e"),
    ("STARS6", Fraction(7, 3), "588b41e40078f49604e5b42b1ca234d3aa0616b3cd50d6b0b0948aa5a250485d"),
    # Dense: steps 22, 24, 40, 43 and 45.
    ("DENSE48", None, "237f5566941fa4c1aadf75b11601f636eaee3ca6b942976939379d2488ed1699"),
    ("DENSE48", Fraction(7, 3), "40fa20271d3c28b9380a9192f802f161e695a081788df5d3c3f9df4e2d49a9d1"),
    # Case-table rows no golden above reaches, one or more per graph:
    # DENSE46: VII's s-family row for v ~ p alone, outside row for v ~ s alone, q-side
    # row for v ~ s alone; VIII's near-a row for v ~ b alone.
    ("DENSE46", None, "c6488d9546bec7256a905ebc0943f1c097abc1265a098d4d32b64a76b7690bb8"),
    ("DENSE46", Fraction(7, 3), "e88565752f59da3c4fc9abbf52e4657fb16e692a22744743e74632eeb677ebac"),
    # SPARSE26: VII's s-family leaf row (p, q far apart) and p-side row for v ~ s alone.
    ("SPARSE26", None, "5ec36d66fa1df77fc4bad3817e865270ec70486d60ae76e25954dce7b8c3bb9c"),
    ("SPARSE26", Fraction(7, 3), "e030a3f65be1daccb7c4d314f2c002548f531ab9b650037b72545135f4c5babd"),
    # DENSE22: VII's p-side and q-side rows for v adjacent to the other end alone.
    ("DENSE22", None, "79ef0c2a021a312c13602173d27189a021b62794ce2d9c93cb887de39b94faba"),
    ("DENSE22", Fraction(7, 3), "8472b1b2346c20fb02c7d758998a8c70a255cd2a5f88bd1d60b16b8b77f48747"),
    # SPARSE14: VIII's n2[a] row picked before k, not a leaf.
    ("SPARSE14", None, "3f5d14eaf0e0c79ddd816be4cfd8a589cd58bc93c0158dab71708601f30aee0c"),
    ("SPARSE14", Fraction(7, 3), "960237627cb8df29a5be8f935c885cf88f266133d0b2d4971e18c0a9270bf84e"),
    # STARS120: VIII's n2[b] link rows and n2[c] leaf row.
    ("STARS120", None, "59a2316f347f19b0220c1821aa7d47d9e9d4c824514860c566687cfb8dad4f29"),
    ("STARS120", Fraction(7, 3), "3cf3920f2cb9532b8cadb248ad3bdbc97231a8d536a17ac90fd70dfab7b0a733"),
    # ATLAS51: IV's one-related-pair row for N(p) and N(q).
    ("ATLAS51", None, "0ebb9b60a45ee8e1373e7d4916106e9700b3a4b648ae4dfc4ebbace0a7f4ed79"),
    ("ATLAS51", Fraction(7, 3), "28c0af09c0ac05b43814cdf02b9713c684a6eb0e78109a379bbca38b31d718cf"),
    # ATLAS106: VII's two tk rows.
    ("ATLAS106", None, "83755188d7e2895f980afd04c63a5e1c82cf08cdb23b6b9e1acfece462c3f121"),
    ("ATLAS106", Fraction(7, 3), "213570fa8ef911991f31af88f0286b65667527ca5d8d3d46ab510b32bd987912"),
    # ATLAS279: VII's p-side leaf row.
    ("ATLAS279", None, "ef9ffdbf6c774062acc56263baff32f159c2eaf56e8da51fc0e011887d7e01cc"),
    ("ATLAS279", Fraction(7, 3), "18038beaf936ca9c16c50c7006ab3664f01a18442c182b52abc458e509b45c36"),
    # ATLAS281: VII's q-side leaf row.
    ("ATLAS281", None, "c5a8a687f70c8788ce926e32060a0bbe510c73757b998bb121262381c04984c4"),
    ("ATLAS281", Fraction(7, 3), "d132f61ef376118f6b1d64ac69f67da1f0d7f71143cc97cc41572936181a99f0"),
    # ATLAS418: VII's s-family leaf row (p, q close).
    ("ATLAS418", None, "b37f88879a471d4622ffb82ec08e974a690287161a2a1209c84eec85e796759e"),
    ("ATLAS418", Fraction(7, 3), "5cbbcb1ea9e9c043192c27fc9349b61329f38365138323144021638c6a5e4a1c"),
    # ATLAS1236: IV's triangle row for the other vertices.
    ("ATLAS1236", None, "3ec55ed87fec52c56435546751b1f1cf73658c49b85cad96454c9b8771760286"),
    ("ATLAS1236", Fraction(7, 3), "af23e132cf9cc9ff46bc1e65dcc4579f9965cabef131619588715f9e9fe427dc"),
    # The benchmark's sizes: STARS200 has 66 class-VIII blocks and two class-I
    # blocks; DENSE200 has 53 class-VIII, 10 class-VII, 3 class-IV and 1 class-III.
    ("STARS200", None, "641aefa71b62fadfb3906afd9f07ebc9f1623df59f66d9919f7c8b60bee372ec"),
    ("STARS200", Fraction(7, 3), "a16f0c944d78cd6d3f6486e596d4d83d5440c269c58532edd0b69168b25a3c07"),
    ("DENSE200", None, "443895389f14e96bb01e9757fc4c1bf0d02e8023e9c5faa8f765b9ad4e7a6289"),
    ("DENSE200", Fraction(7, 3), "392e43970fee51495bc1695a9639c5033c3b6f05064de57fa521c98058135088"),
]
GOLDEN_GRAPHS = {
    "CLASS_V": lambda: parse_graph(CLASS_V),
    "CLASS_VI_1": lambda: parse_graph(CLASS_VI_1),
    "C5": lambda: parse_graph(C5),
    "G30": lambda: generate_random(30, 0.5, 7),
    "STARS0": lambda: planted_stars(24, 0),
    "STARS1": lambda: planted_stars(24, 1),
    "STARS6": lambda: planted_stars(24, 6),
    "DENSE48": lambda: generate_random(48, 9 / 10, 7),
    "DENSE46": lambda: generate_random(46, 9 / 10, 2),
    "SPARSE26": lambda: generate_random(26, 1 / 10, 0),
    "DENSE22": lambda: generate_random(22, 9 / 10, 3),
    "SPARSE14": lambda: generate_random(14, 1 / 5, 1),
    "STARS120": lambda: planted_stars(120, 6),
    "ATLAS51": lambda: parse_graph(ATLAS51),
    "ATLAS106": lambda: parse_graph(ATLAS106),
    "ATLAS279": lambda: parse_graph(ATLAS279),
    "ATLAS281": lambda: parse_graph(ATLAS281),
    "ATLAS418": lambda: parse_graph(ATLAS418),
    "ATLAS1236": lambda: parse_graph(ATLAS1236),
    "STARS200": lambda: planted_stars(200, 5),
    "DENSE200": lambda: generate_random(200, 9 / 10, 7),
}


@pytest.mark.parametrize("name,r,digest", FULL_GOLDENS)
def test_full_embedding_golden(name, r, digest):
    text = json.dumps(embed(GOLDEN_GRAPHS[name](), r).to_json(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,expected", [(3, (4, None)), (4, (4, 4)), (10, (8, 8))])
def test_dimension_bound_values(n, expected):
    assert dimension_bound(n) == expected


def test_dimension_bound_formula():
    for n in range(2, 200):
        general, refined = dimension_bound(n)
        assert general == floor(2 * n / 3) + 2
        assert refined in (None, general)
        if n % 3 == 0:
            assert refined is None
        else:
            assert refined == ceil(2 * n / 3) + 1


def test_ceiling_identities():
    # floor/ceil identity and the log2 comparison used by the dimension count
    for k in range(10_001):
        assert -(-2 * k // 3) == 2 * (k + 1) // 3
        assert k.bit_length() <= -(-2 * k // 3)  # ceil(log2(k+1)) <= ceil(2k/3)


def test_accounting_identity(corpus5):
    for g in corpus5:
        emb = embed(g)
        check_accounting(g, emb.picks)
        triples = sum(1 for p in emb.picks.picks
                      if p.cls not in (PickClass.RANDOM, PickClass.RESIDUAL,
                                       PickClass.NONADJACENT_PAIR))
        pairs = sum(1 for p in emb.picks.picks
                    if p.cls is PickClass.NONADJACENT_PAIR)
        residual = sum(len(p.vertices) for p in emb.picks.picks
                       if p.cls is PickClass.RESIDUAL)
        plain = sum(len(p.vertices) for p in emb.picks.picks
                    if p.cls is PickClass.RANDOM)
        assert g.n == 3 * triples + 2 * pairs + residual + plain


def test_bound_holds_on_corpus(corpus5):
    for g in corpus5:
        emb = embed(g)
        general, refined = dimension_bound(g.n)
        assert emb.d <= general
        if refined is not None:
            assert emb.d <= refined


def test_default_radius_gives_integer_coords(corpus5):
    for g in corpus5[:200]:
        emb = embed(g)
        assert all(x.denominator == 1 for row in emb.points.points for x in row)


def test_rational_radius_override():
    g = parse_graph(C5)
    emb = embed(g, Fraction(7, 3))
    assert emb.schedule.r == Fraction(7, 3)
    assert verify(g, emb).verdict == "pass"


def test_integer_radius_matches_fraction():
    g = parse_graph(C5)
    assert embed(g, 48).to_json() == embed(g, Fraction(48)).to_json()


def test_block_widths():
    emb = embed(parse_graph(K13))
    assert block_dims(emb.picks) == [range(0, 1), range(1, 3)]  # singleton, residual of 3


def test_class_v_embedding_verifies():
    g = parse_graph(CLASS_V)
    emb = embed(g)
    assert verify(g, emb).verdict == "pass"
    assert any(p.cls is PickClass.TWO_LEAF_TRIPLE for p in emb.picks.picks)


def test_class_vi_embeddings_verify():
    for text in (CLASS_VI_1, CLASS_VI_2):
        g = parse_graph(text)
        emb = embed(g)
        assert verify(g, emb).verdict == "pass"
        assert any(p.cls is PickClass.ONE_LEAF_EDGE_TRIPLE for p in emb.picks.picks)


def test_isolated_vertex_rejected():
    from sigdim import GraphInputError

    with pytest.raises(GraphInputError):
        embed(parse_graph("3 1\n0 1"))


def test_super_triple_steps_from_disjoint_stars():
    # Three disjoint paths: the star loop fires once on the centers, then the
    # leaf groups are consumed as independent triples.
    text = "9 6\n0 1\n1 2\n3 4\n4 5\n6 7\n7 8\n"
    g = parse_graph(text)
    emb = embed(g)
    steps = [p.step for p in emb.picks.picks]
    assert steps[0] == 7
    assert all(s == 22 for s in steps[1:])
    assert verify(g, emb).verdict == "pass"


def test_case_tables_read_masks():
    # The builders read adjacency from Graph.masks: no edge lookups per vertex.
    g = generate_random(120, 9 / 10, 7)
    calls = inside = 0
    has_edge, assign = Graph.has_edge, embedding.assign_block

    def counted(self, u, v):
        nonlocal calls
        calls += inside
        return has_edge(self, u, v)

    def traced(ctx, k):
        nonlocal inside
        inside = 1
        try:
            return assign(ctx, k)
        finally:
            inside = 0

    with patch.object(Graph, "has_edge", counted), \
            patch.object(embedding, "assign_block", traced):
        emb = embed(g)
    assert {PickClass.ONE_EDGE_TRIPLE, PickClass.SUPER_TRIPLE} <= {p.cls for p in emb.picks.picks}
    assert calls == 0


def test_embed_calls_assign_block_once_per_pick():
    # perfbench times blocks by patching the module-level assign_block; embed
    # must reach every block through that name.
    g = planted_stars(60, 3)
    calls = 0
    assign = embedding.assign_block

    def counted(ctx, k):
        nonlocal calls
        calls += 1
        return assign(ctx, k)

    with patch.object(embedding, "assign_block", counted):
        emb = embed(g)
    assert calls == emb.picks.count > 1


def test_pick_and_star_masks_match_their_definitions(corpus5):
    # PickSequence.earlier and StarTriangleFactor.leaves/mates are the only
    # masks of pick order and star membership; they must agree with index_of()
    # and leaf_center, on what embed builds and on what the loader rebuilds.
    for g in corpus5 + [planted_stars(60, seed) for seed in range(10)]:
        built = embed(g)
        loaded = embedding_from_json(g, json.loads(json.dumps(built.to_json())))
        for emb in (built, loaded):
            index, center = emb.picks.index_of(), emb.factor.leaf_center
            earlier = emb.picks.earlier
            assert earlier[0] == 0 and earlier[-1] == (1 << g.n) - 1
            assert earlier == [sum(1 << v for v in range(g.n) if index[v] < k)
                               for k in range(emb.picks.count + 1)]
            assert emb.factor.leaves == sum(1 << v for v in center)
            assert emb.factor.mates == {v: sum(1 << x for x in center if center[x] == c)
                                        for v, c in center.items()}


def _forged_ctx(n, edges, stars, matching, picks):
    """A block context built by hand: picks are (vertices, class, step, roles)."""
    f = StarTriangleFactor({u: frozenset(s) for u, s in stars.items()}, frozenset(),
                           Matching(frozenset(matching)))
    seq = PickSequence(tuple(PickedSet(k, tuple(vs), PickClass(c), step, roles)
                             for k, (vs, c, step, roles) in enumerate(picks)))
    pn = build_pseudo(f, seq)
    return embedding._Ctx(Graph.from_edges(n, edges), f, seq, pn,
                          radius_schedule(pn, seq, default_radius(n)))


_ONE_EDGE = ([(0, 1), (1, 3), (0, 4), (2, 5)], {}, [(0, 4), (1, 3), (2, 5)])
_SIDE_TAIL = [((3, 4, 5), "VIII", 22, {})]


@pytest.mark.parametrize("ctx,table,vertex,detail", [
    # Vertex 3 lies in q's component and is adjacent to neither p nor s.
    (lambda: _forged_ctx(6, *_ONE_EDGE, [((0, 1, 2), "VII", 24, {"p": 0, "q": 1, "s": 2}),
                                         *_SIDE_TAIL]),
     "VII.q-side", 3, {"adjacency": [False, False]}),
    # The same block with p and q swapped: vertex 3 is on p's side.
    (lambda: _forged_ctx(6, *_ONE_EDGE, [((0, 1, 2), "VII", 24, {"p": 1, "q": 0, "s": 2}),
                                         *_SIDE_TAIL]),
     "VII.p-side", 3, {"adjacency": [False, False]}),
    # Vertex 6 lies outside the pick's reach and is adjacent to none of p, q, s.
    (lambda: _forged_ctx(8, [(0, 1), (1, 3), (0, 4), (2, 5), (2, 3), (2, 4), (6, 7)], {},
                         [(0, 4), (1, 3), (2, 5), (6, 7)],
                         [((0, 1, 2), "VII", 24, {"p": 0, "q": 1, "s": 2}), *_SIDE_TAIL,
                          ((6, 7), "I", 45, {})]),
     "VII.outside", 6, {"adjacency": [False, False, False]}),
    # b = 1 is a leaf of star 3, which is picked later and adjacent to neither a nor c.
    (lambda: _forged_ctx(7, [(1, 3), (3, 4), (0, 5), (2, 6)], {3: {1, 4}}, [(0, 5), (2, 6)],
                         [((0, 1, 2), "VIII", 22, {}), ((3, 4, 5), "VIII", 22, {}),
                          ((6,), "I", 45, {})]),
     "VIII.near-b", 3, {"reason": "star center"}),
    # Two vertices of one block match no row, under different tables: the
    # diagnostic names the lower one.  Here q-side vertex 3 lies below outside vertex 6.
    (lambda: _forged_ctx(8, [(0, 1), (1, 3), (0, 4), (2, 5), (2, 4), (6, 7)], {},
                         [(0, 4), (1, 3), (2, 5), (6, 7)],
                         [((0, 1, 2), "VII", 24, {"p": 0, "q": 1, "s": 2}), *_SIDE_TAIL,
                          ((6, 7), "I", 45, {})]),
     "VII.q-side", 3, {"adjacency": [False, False]}),
    # The same graph relabelled: outside vertex 0 lies below q-side vertex 5.
    (lambda: _forged_ctx(8, [(2, 3), (3, 5), (2, 6), (4, 7), (4, 6), (0, 1)], {},
                         [(2, 6), (3, 5), (4, 7), (0, 1)],
                         [((2, 3, 4), "VII", 24, {"p": 2, "q": 3, "s": 4}),
                          ((5, 6, 7), "VIII", 22, {}), ((0, 1), "I", 45, {})]),
     "VII.outside", 0, {"adjacency": [False, False, False]}),
    # p = 1 and q = 2 are leaves of star 5, so its centre is in the pick's
    # reach and matches no row; outside vertex 0 lies below it.
    (lambda: _forged_ctx(7, [(1, 2), (1, 5), (2, 5), (3, 4), (0, 6)], {5: {1, 2}},
                         [(3, 4), (0, 6)],
                         [((1, 2, 3), "VII", 24, {"p": 1, "q": 2, "s": 3}),
                          ((0, 4, 5, 6), "I", 45, {})]),
     "VII.outside", 0, {"adjacency": [False, False, False]}),
    # The same block with the star centre relabelled 0: it lies below outside vertex 5.
    (lambda: _forged_ctx(7, [(1, 2), (0, 1), (0, 2), (3, 4), (5, 6)], {0: {1, 2}},
                         [(3, 4), (5, 6)],
                         [((1, 2, 3), "VII", 24, {"p": 1, "q": 2, "s": 3}),
                          ((0, 4, 5, 6), "I", 45, {})]),
     "VII", 0, {}),
])
def test_unreachable_rows_keep_their_diagnostics(ctx, table, vertex, detail):
    with pytest.raises(PipelineError) as info:
        embedding.assign_block(ctx(), 0)
    # Compared as JSON text: adjacency must stay booleans, not the 0/1 of a mask bit.
    assert json.dumps(info.value.to_json()) == json.dumps({
        "stage": "embedder",
        "message": f"[embedder] block 0, table {table}: no row matches vertex {vertex}",
        "details": {"k": 0, "table": table, "vertex": vertex, **detail},
    })
