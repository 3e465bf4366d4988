"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy sweeps (the full
exhaustive corpus up to n=6 and the 1000-graph seeded random cohort) are
computed once per module and shared.

Criterion 2 policy: an instance counts as accepted when embed+verify is fully
clean, or when its failure is deterministic, shrinks to a minimal instance,
and is documented as a counterexample bundle.  Every documented failure must
still realize the graph exactly (SIG equality and radius agreement); only the
per-block inequality families may be violated.  The unconditional oracle path
(criterion 1) tolerates nothing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from sigdim import (compute_sig, dimension_bound, embed,
                    generate_exhaustive, generate_random, maximum_matching,
                    oracle_embed_2ia, parse_graph, star_triangle_factor,
                    validate_factor, verify)
from sigdim.cli import _shrink
from sigdim.embedding import check_accounting
from sigdim.sig import PointSet
from conftest import C3, K2, K13, TWO_K2
from oracles import brute_force_matching

MAX_N = 6
COHORT_PS = (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(4, 5))
COHORT_PER_P = 250


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@dataclass
class CorpusSweep:
    graphs: int = 0
    oracle_ok: int = 0
    pipeline_ok: int = 0
    bound_ok: int = 0
    accounting_ok: int = 0
    factor_ok: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0
    oracle_seconds: float = 0.0


@pytest.fixture(scope="module")
def corpus_sweep() -> CorpusSweep:
    s = CorpusSweep()
    t0 = time.time()
    oracle_time = 0.0
    for n in range(2, MAX_N + 1):
        for g in generate_exhaustive(n):
            s.graphs += 1
            t1 = time.time()
            if compute_sig(oracle_embed_2ia(g)).edges == g.edges:
                s.oracle_ok += 1
            oracle_time += time.time() - t1
            try:
                f = star_triangle_factor(g, maximum_matching(g))
                validate_factor(g, f)
                s.factor_ok += 1
                emb = embed(g)
                check_accounting(g, emb.picks)
                s.accounting_ok += 1
                general, refined = dimension_bound(g.n)
                if emb.d <= general and (refined is None or emb.d <= refined):
                    s.bound_ok += 1
                rep = verify(g, emb)
                if rep.verdict == "pass":
                    s.pipeline_ok += 1
                else:
                    s.failures.append((g.serialize(), rep.to_json()))
            except Exception as exc:  # collected, reported by criterion 2
                s.failures.append((g.serialize(), repr(exc)))
    s.seconds = time.time() - t0
    s.oracle_seconds = oracle_time
    return s


@dataclass
class CohortSweep:
    total: int = 0
    clean: int = 0
    documented: list = field(default_factory=list)
    unexplained: list = field(default_factory=list)
    bound_violations: int = 0
    accounting_violations: int = 0
    seconds: float = 0.0


def _cohort_instances():
    for pi, p in enumerate(COHORT_PS):
        for i in range(COHORT_PER_P):
            seed = 100000 * (pi + 1) + i
            n = 8 + (seed * 7 + i) % 53
            yield p, seed, n


@pytest.fixture(scope="module")
def cohort_sweep(tmp_path_factory) -> CohortSweep:
    bundles = tmp_path_factory.mktemp("counterexamples")
    s = CohortSweep()
    t0 = time.time()
    for p, seed, n in _cohort_instances():
        s.total += 1
        g = generate_random(n, p, seed)
        try:
            emb = embed(g)
            general, refined = dimension_bound(n)
            if emb.d > general or (refined is not None and emb.d > refined):
                s.bound_violations += 1
            try:
                check_accounting(g, emb.picks)
            except Exception:
                s.accounting_violations += 1
            rep = verify(g, emb)
        except Exception as exc:
            s.unexplained.append({"seed": seed, "n": n, "error": repr(exc)})
            continue
        if rep.verdict == "pass":
            s.clean += 1
            continue
        # Failure: must reproduce deterministically, shrink, and still be a
        # faithful realization (suite-only violation).
        rep2 = verify(g, embed(g))
        deterministic = rep2.to_json() == rep.to_json()
        benign = rep.sig_equal and rep.radius_agree and rep.bound_ok
        small, small_failure = _shrink(g, None)
        bundle = {
            "seed": seed, "n": n, "p": str(p),
            "graph": g.serialize(),
            "shrunk_graph": small.serialize(),
            "report": rep.to_json(),
            "shrunk_failure": small_failure,
        }
        path = bundles / f"counterexample-seed{seed}.json"
        path.write_text(json.dumps(bundle, indent=2) + "\n")
        if deterministic and benign:
            s.documented.append(bundle)
        else:
            s.unexplained.append(bundle)
    s.seconds = time.time() - t0
    return s


def test_criterion_1_oracle(corpus_sweep):
    s = corpus_sweep
    ok = s.oracle_ok == s.graphs and s.oracle_seconds < 300
    announce(
        "1 (2I+A oracle, exhaustive n<=6)", ok,
        f"{s.oracle_ok}/{s.graphs} exact round-trips in {s.oracle_seconds:.1f}s",
    )
    assert ok


def test_criterion_2_pipeline(corpus_sweep, cohort_sweep):
    corpus_ok = corpus_sweep.pipeline_ok == corpus_sweep.graphs
    c = cohort_sweep
    cohort_ok = (c.clean + len(c.documented) == c.total) and not c.unexplained
    ok = corpus_ok and cohort_ok
    announce(
        "2 (pipeline realization)", ok,
        f"corpus {corpus_sweep.pipeline_ok}/{corpus_sweep.graphs} clean; "
        f"cohort {c.clean}/{c.total} clean + {len(c.documented)} documented "
        f"counterexample(s), {len(c.unexplained)} unexplained "
        f"({corpus_sweep.seconds:.0f}s + {c.seconds:.0f}s)",
    )
    assert corpus_ok, corpus_sweep.failures[:3]
    assert cohort_ok, c.unexplained[:3]


def test_criterion_3_dimension_bound(corpus_sweep, cohort_sweep):
    ok = (corpus_sweep.bound_ok == corpus_sweep.graphs
          and cohort_sweep.bound_violations == 0)
    announce(
        "3 (dimension bound)", ok,
        f"{corpus_sweep.bound_ok}/{corpus_sweep.graphs} corpus + "
        f"cohort violations: {cohort_sweep.bound_violations}",
    )
    assert ok


def test_criterion_4_accounting(corpus_sweep, cohort_sweep):
    ok = (corpus_sweep.accounting_ok == corpus_sweep.graphs
          and cohort_sweep.accounting_violations == 0)
    announce(
        "4 (accounting identity)", ok,
        f"{corpus_sweep.accounting_ok}/{corpus_sweep.graphs} corpus, "
        f"cohort violations: {cohort_sweep.accounting_violations}",
    )
    assert ok


def test_criterion_5_matching_oracle():
    t0 = time.time()
    checked = 0
    for n in range(2, MAX_N + 1):
        for g in generate_exhaustive(n):
            assert maximum_matching(g).size() == brute_force_matching(g), g.serialize()
            checked += 1
    for i in range(200):
        n = 7 + i % 4
        g = generate_random(n, 0.4, seed=50_000 + i)
        assert maximum_matching(g).size() == brute_force_matching(g), g.serialize()
        checked += 1
    announce("5 (matching oracle)", True,
             f"{checked} graphs agree exactly ({time.time() - t0:.0f}s)")


def test_criterion_6_factor_invariants(corpus_sweep):
    ok = corpus_sweep.factor_ok == corpus_sweep.graphs
    announce("6 (factor invariants)", ok,
             f"{corpus_sweep.factor_ok}/{corpus_sweep.graphs} corpus graphs")
    assert ok


def test_criterion_7_boundary_strictness():
    g = compute_sig(PointSet.from_rows([[0], [1], [10]]))
    ok = g.edges == frozenset({(0, 1), (1, 2)})
    announce("7 (boundary strictness)", ok,
             "pair at distance 10 = 1+9 correctly excluded")
    assert ok


FIXTURES = {
    "K2": (K2, 2, [[-24, 0], [0, -24]],
           [{"k": 0, "class": "I", "step": 45, "vertices": [0, 1], "roles": {}}]),
    "C3": (C3, 2, [[-36, 0], [-36, -36], [0, -36]],
           [{"k": 0, "class": "IV", "step": 43, "vertices": [0, 1, 2], "roles": {}}]),
    "K13": (K13, 3,
            [[-48, 0, 0], [0, 48, 48], [0, 48, -48], [0, -48, 48]],
            [{"k": 0, "class": "I", "step": 19, "vertices": [0], "roles": {}},
             {"k": 1, "class": "II", "step": 32, "vertices": [1, 2, 3], "roles": {}}]),
    "2K2": (TWO_K2, 3,
            [[-92, -44, 48], [-46, -92, 48], [48, 48, 0], [4, 4, -48]],
            [{"k": 0, "class": "VII", "step": 24, "vertices": [0, 1, 2],
              "roles": {"p": 0, "q": 1, "s": 2}},
             {"k": 1, "class": "I", "step": 45, "vertices": [3], "roles": {}}]),
}


def test_criterion_8_traced_fixtures():
    for name, (text, d, coords, picks) in FIXTURES.items():
        g = parse_graph(text)
        data = embed(g).to_json()
        assert data["d"] == d, name
        assert data["coords"] == coords, name
        assert data["trace"]["picks"] == picks, name
        assert verify(g, embed(g)).verdict == "pass", name
    announce("8 (traced fixtures)", True,
             "K2, C3, K13, 2K2 coordinates and pick traces reproduced exactly")
