from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import ceil, floor

import pytest

from sigdim import dimension_bound, embed, generate_random, parse_graph, verify
from sigdim.embedding import block_dims, check_accounting
from sigdim.picking import PickClass
from conftest import (C3, C5, CLASS_V, CLASS_VI_1, CLASS_VI_2, K13, K2, P3, TWO_K2,
                      planted_stars)


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
