"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance and
runtime bound is pinned here; nothing is deferred to later calibration.
"""

import random
import time
from itertools import combinations

from gksplit import gkbuild, groups
from gksplit import numtheory as nt
from gksplit.certificates import certificate_from_json, recheck
from gksplit.graph import Graph, same_class_graph
from gksplit.splitcheck import is_split_degree, is_split_forbidden, validate_partition

from oracles import brute_order, brute_primes, graphs_on


def _report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_split_recognizer_equivalence():
    """Degree-sequence and forbidden-subgraph recognizers agree on every
    labeled graph with at most 6 vertices; under 30 s."""
    start = time.perf_counter()
    checked = 0
    for n in range(7):
        for edges in graphs_on(n):
            g = Graph(range(n), edges)
            a = is_split_degree(g)
            b = is_split_forbidden(g)
            assert a.split == b.split, (n, edges)
            if a.split:
                ok, reason = validate_partition(g, a.partition)
                assert ok, (n, edges, reason)
                ok, reason = validate_partition(g, b.partition)
                assert ok, (n, edges, reason)
            else:
                assert a.forbidden is not None and b.forbidden is not None
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        checked == 1 + 1 + 2 + 8 + 64 + 1024 + 32768 and elapsed < 30.0,
        f"both recognizers agree on all {checked} labeled graphs with <= 6 "
        f"vertices in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_theorem_a_desk_scale():
    """Permutation-group prime graphs are split with the published partition
    for all degrees up to 300; under 10 s.  (The solvable-graph half rests on
    the independent side staying independent there, which is lemma-assumed.)"""
    start = time.perf_counter()
    count = 0
    for kind, lo in (("symmetric", 2), ("alternating", 5)):
        make = groups.symmetric if kind == "symmetric" else groups.alternating
        for n in range(lo, 301):
            g = gkbuild.gk_altsym(make(n))
            verdict = is_split_degree(g)
            assert verdict.split, (kind, n)
            part = gkbuild.altsym_partition(n)
            ok, reason = validate_partition(g, part)
            assert ok, (kind, n, reason)
            count += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        elapsed < 10.0,
        f"{count} permutation prime graphs split with validated partitions "
        f"in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_3_theorem_b_data():
    """All 26 prime-graph partitions and all 16 solvable-graph partitions are
    consistent; the M22 solvable graph refutes splitness via the 2K2 on
    {3,5,7,11} and compacts to the path {11}-{5}-{2}-{3,7}.  Exact."""
    table = groups.sporadic_table()
    assert len(table) == 26
    solvable_rows = 0
    for rec in table:
        pi = rec.prime_spectrum
        assert rec.prime_partition.clique | rec.prime_partition.independent == pi, rec.name
        assert not rec.prime_partition.clique & rec.prime_partition.independent, rec.name
        if rec.solvable_partition is not None:
            solvable_rows += 1
            sp = rec.solvable_partition
            assert sp.clique | sp.independent == pi, rec.name
            assert not sp.clique & sp.independent, rec.name
    assert solvable_rows == 16
    m22 = groups.sporadic_record("M22")
    g = Graph(sorted(m22.prime_spectrum), m22.solvable_edges)
    verdict = is_split_degree(g)
    assert not verdict.split
    assert set(verdict.forbidden.vertices) == {3, 5, 7, 11}
    assert verdict.forbidden.kind == "2K2"
    cf = g.compact_form()
    contents = {tuple(sorted(c)) for c in cf.class_contents.values()}
    assert contents == {(11,), (5,), (2,), (3, 7)}
    quotient = cf.quotient
    degs = quotient.degree_sequence()
    assert degs == [2, 2, 1, 1]  # a path on four classes
    by_members = {l.members: l for l in quotient.vertices}
    assert quotient.adjacent(by_members[(11,)], by_members[(5,)])
    assert quotient.adjacent(by_members[(5,)], by_members[(2,)])
    assert quotient.adjacent(by_members[(2,)], by_members[(3, 7)])
    _report(3, True, "26 + 16 sporadic partitions consistent; M22 witness and compact path exact")


def test_criterion_4_theorem_c_sample_grid():
    """Classical grid (linear/unitary dimensions 4..20 at 7 field sizes,
    symplectic/orthogonal ranks 4..12 at 3 field sizes): partition built and
    certificate re-verified.  Every small-rank/exceptional family at >= 3
    valid field sizes rebuilds its diagram with a validating partition.
    Under 60 s at the default budget."""
    start = time.perf_counter()
    built = 0
    for family in ("A", "2A"):
        for dim in range(4, 21):
            for q in (2, 3, 4, 5, 7, 8, 9):
                cert = gkbuild.classical_compact_partition(groups.classical(family, dim - 1, q))
                part = cert.partition
                failures = recheck(cert)
                assert not failures, (family, dim, q, failures)
                built += 1
    for family in ("B", "C", "D", "2D"):
        for rank in range(4, 13):
            for q in (2, 3, 5):
                cert = gkbuild.classical_compact_partition(groups.classical(family, rank, q))
                part = cert.partition
                failures = recheck(cert)
                assert not failures, (family, rank, q, failures)
                built += 1
    # the serialized certificate re-verifies through the JSON round trip too
    cert = gkbuild.classical_compact_partition(groups.classical("2A", 12, 4))
    assert not recheck(certificate_from_json(cert.to_json()))

    samples = [
        ("A1", (4, 5, 7, 8, 9, 11, 13, 27)),
        ("A2", (5, 7, 13, 19)),
        ("2A2", (5, 7, 8)),
        ("B2", (3, 5, 7)),
        ("B3", (3, 5, 7)),
        ("G2", (4, 5, 13, 27)),
        ("F4", (3, 4, 5, 8)),
        ("E6", (2, 3, 4, 5)),
        ("2E6", (2, 5, 8)),
        ("E7", (2, 3, 4)),
        ("E8", (2, 3, 4)),
        ("2B2", (8, 32, 128)),
        ("3D4", (2, 3, 4)),
        ("2G2", (27, 243, 2187)),
        ("2F4", (8, 32, 128)),
    ]
    diagrams = 0
    for family, qs in samples:
        assert len(qs) >= 3
        for q in qs:
            graph, cert = gkbuild.exceptional_compact(groups.parse_descriptor(f"{family}({q})"))
            part = cert.partition
            ok, reason = validate_partition(graph, part)
            assert ok, (family, q, reason)
            failures = recheck(cert)
            assert not failures, (family, q, failures)
            diagrams += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        elapsed < 60.0,
        f"{built} classical partitions re-verified and {diagrams} diagram builds "
        f"validated in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_spectrum_cross_checks():
    """Compact form of the spectrum-built prime graph equals the published
    construction, as labeled class graphs.  Exact."""
    cases = (
        [("A1", q) for q in (4, 5, 7, 8, 9, 11, 13, 27)]
        + [("2B2", q) for q in (8, 32, 128)]
        + [("2G2", 27), ("B2", 3), ("B3", 3), (groups.TITS_NAME, 2)]
    )
    for family, q in cases:
        if family == "A1":
            d = groups.classical("A", 1, q)
        elif family == "B2":
            d = groups.classical("B", 2, q)
        elif family == "B3":
            d = groups.classical("B", 3, q)
        elif family == groups.TITS_NAME:
            d = groups.sporadic(family)
        else:
            d = groups.exceptional(family, q)
        lhs = groups.gk_from_spectrum(groups.spectrum_formulas(d)).compact_form().quotient
        rhs, cert = gkbuild.exceptional_compact(d)
        part = cert.partition
        assert same_class_graph(lhs, rhs), (family, q)
        ok, reason = validate_partition(rhs, part)
        assert ok, (family, q, reason)
    _report(5, True, f"{len(cases)} spectrum-vs-construction compact forms equal exactly")


def test_criterion_6_prop71_concrete_witness():
    """(n,p,a) = (13,2,2): the four witness primes are exactly {43,127} and
    {19,73} with order indices 7,7,9,9 over GF(4); the model graph is 2K2.
    Exact, against an independent order oracle."""
    cert = gkbuild.nonsplit_witness_linear(13, 2, 2)
    primes = cert.witness.vertices
    assert set(primes[:2]) == {43, 127}
    assert set(primes[2:]) == {19, 73}
    for r in primes[:2]:
        assert brute_order(4 % r, r) == 7
    for r in primes[2:]:
        assert brute_order(4 % r, r) == 9
    model = Graph(primes, [(primes[0], primes[1]), (primes[2], primes[3])])
    w = model.find_forbidden()
    assert w is not None and w.kind == "2K2"
    assert not recheck(cert)
    _report(6, True, "witness {43,127} x {19,73} with orders 7,7,9,9; model graph is 2K2")


def test_criterion_7_psl11_2():
    """The encoded nine-class compact solvable graph fails the split check
    with witness classes {R3, R7, R10, R11}, and is its own compact form."""
    graph, cert = gkbuild.psl11_2_sc()
    verdict = is_split_degree(graph)
    assert not verdict.split
    w = cert.witness
    assert {v.name for v in w.vertices} == {"R3", "R7", "R10", "R11"}
    sub = graph.induced(w.vertices)
    found = sub.find_forbidden()
    assert found is not None and found.kind == "2K2"
    cf = graph.compact_form()
    assert all(len(c) == 1 for c in cf.class_contents.values())
    assert not recheck(cert)
    _report(7, True, "nine-class graph nonsplit with witness {R3,R7,R10,R11}; already compact")


def test_criterion_8_zsigmondy_exceptions():
    """R_i(n) is empty exactly on the exception list, for 2 <= |n| <= 20 and
    1 <= i <= 12 (covering the negative-base cases).  Exact."""
    checked = 0
    for n in list(range(2, 21)) + list(range(-2, -21, -1)):
        for i in range(1, 13):
            empty = not nt.ppd_set(i, n)
            assert empty == nt.is_zsigmondy_exception(i, n), (n, i)
            checked += 1
    _report(8, True, f"{checked} (base, index) cells match the exception list exactly")


def test_criterion_9_artin_pairs():
    """artin_pairs(2, 1000) equals the independent brute-force enumeration
    element for element, and contains 11 and 19.  Exact."""
    got = gkbuild.artin_pairs(2, 1000)
    oracle = []
    for n in brute_primes(1000):
        if n == 2:
            continue
        acc, order = 2 % n, 1
        while acc != 1:
            acc = acc * 2 % n
            order += 1
        if order == n - 1:
            oracle.append(n)
    assert got == oracle
    assert 11 in got and 19 in got
    _report(9, True, f"{len(got)} primes up to 1000 with 2 a primitive root; oracle match exact")


def _random_graph(rng, n, p=0.45):
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(range(n), edges)


def _random_split_graph(rng, n):
    k = rng.randrange(n + 1)
    edges = [(u, v) for u, v in combinations(range(k), 2)]
    for v in range(k, n):
        for u in range(k):
            if rng.random() < 0.4:
                edges.append((u, v))
    return Graph(range(n), edges)


def _random_spectrum_descriptor(rng):
    roll = rng.randrange(10)
    if roll < 5:
        while True:
            q = rng.randrange(4, 2000)
            try:
                return groups.classical("A", 1, q)
            except Exception:
                continue
    if roll < 8:
        while True:
            q = rng.randrange(3, 500)
            try:
                return groups.classical("B", 2, q)
            except Exception:
                continue
    if roll == 8:
        return groups.exceptional("2B2", rng.choice((8, 32, 128, 512)))
    return rng.choice(
        [
            groups.exceptional("2G2", rng.choice((27, 243, 2187))),
            groups.classical("B", 3, 3),
            groups.sporadic(groups.TITS_NAME),
        ]
    )


def test_criterion_10_randomized_properties():
    """Compact-form idempotence, split-complement closure, split heredity,
    and clique components away from 2, on 1000 seeded random graphs/spectra
    each; zero failures."""
    rng = random.Random(20260811)
    for _ in range(1000):
        g = _random_graph(rng, rng.randrange(1, 11))
        again = g.compact_form().quotient.compact_form()
        assert all(len(c) == 1 for c in again.class_contents.values())
    rng = random.Random(31337)
    for _ in range(1000):
        g = _random_graph(rng, rng.randrange(1, 10))
        assert is_split_degree(g).split == is_split_degree(g.complement()).split
    rng = random.Random(4242)
    for _ in range(1000):
        g = _random_split_graph(rng, rng.randrange(1, 11))
        assert is_split_degree(g).split
        sub = [v for v in g.vertices if rng.random() < 0.6]
        assert is_split_degree(g.induced(sub)).split
    rng = random.Random(777)
    for _ in range(1000):
        d = _random_spectrum_descriptor(rng)
        g = groups.gk_from_spectrum(groups.spectrum_formulas(d))
        for comp in g.components():
            if 2 not in comp:
                assert g.is_clique(comp), d
    _report(10, True, "4 x 1000 randomized property checks, zero failures")
