import copy
import json
import re
from itertools import combinations

import pytest

from gksplit import campaigns, exceptional, gkbuild, groups
from gksplit import numtheory as nt
from gksplit.certificates import TAG_L53, certificate_from_json, recheck
from gksplit.errors import (
    BudgetExceeded,
    CheckFailed,
    InternalInconsistency,
    InvalidField,
    NotSimple,
    PreconditionViolated,
    RankTooSmall,
    UnsupportedFamily,
)
from gksplit.graph import Graph, same_class_graph
from gksplit.splitcheck import SplitPartition, SplitVerdict, flag_special, is_split_degree, validate_partition

from oracles import (
    altsym_edges,
    altsym_rows_by_degree,
    brute_artin_pairs,
    brute_order,
    brute_primes,
    classical_order_factors,
    classical_phi,
    convention_order,
    cyclotomic_divides,
    lemma52_indices,
    ppd_class_empty,
    prime_powers,
)


def altsym(kind, n):
    """The validated descriptor of gk_altsym's group: kind is "alternating"
    or "symmetric"."""
    return {"alternating": groups.alternating, "symmetric": groups.symmetric}[kind](n)


class TestAltSym:
    def test_sym12_edge(self):
        g = gkbuild.gk_altsym(groups.symmetric(12))
        assert g.adjacent(5, 7)

    def test_alt7_two_edges(self):
        g = gkbuild.gk_altsym(groups.alternating(7))
        assert not g.adjacent(2, 5)  # 4 + 5 > 7
        assert g.adjacent(2, 3)  # 4 + 3 <= 7

    def test_partition_examples(self):
        assert gkbuild.altsym_partition(12).clique == {2, 3, 5}
        assert gkbuild.altsym_partition(12).independent == {7, 11}
        assert gkbuild.altsym_partition(5).clique == {2}
        assert gkbuild.altsym_partition(5).independent == {3, 5}
        assert gkbuild.altsym_partition(4).clique == {2}
        assert gkbuild.altsym_partition(4).independent == {3}

    def test_degree_six_exception(self):
        # Alt(6) has no element of order 6, so 3 sits on the independent side
        part = gkbuild.altsym_partition(6)
        assert part.clique == {2} and part.independent == {3, 5}
        for kind in ("alternating", "symmetric"):
            ok, reason = validate_partition(gkbuild.gk_altsym(altsym(kind, 6)), part)
            assert ok, (kind, reason)

    def test_against_permutation_orders(self):
        # cross-check adjacency against cycle-type arithmetic for small n
        for n in range(5, 26):
            g = gkbuild.gk_altsym(groups.symmetric(n))
            for p in brute_primes(n):
                for q in brute_primes(n):
                    if p < q and p != 2:
                        assert g.adjacent(p, q) == (p + q <= n)

    def test_bad_kind(self):
        # only an Alt or Sym descriptor names a degree-sum prime graph
        for d in (groups.classical("A", 1, 4), groups.sporadic("M11"), groups.exceptional("G2", 3)):
            with pytest.raises(UnsupportedFamily):
                gkbuild.gk_altsym(d)

    @pytest.mark.parametrize("kind", ["alternating", "symmetric"])
    def test_rows_against_element_orders(self, kind):
        # the prefix-mask rows against the order criterion, edge by edge
        for n in range(2, 401):
            if kind == "alternating" and n < 5:
                with pytest.raises(NotSimple):
                    altsym(kind, n)
                continue
            g = gkbuild.gk_altsym(altsym(kind, n))
            primes, edges = altsym_edges(kind, n)
            assert list(g.vertices) == primes
            assert {frozenset(e) for e in g.edges} == edges, (kind, n)
            # equal rows too, so both halves of each row are right
            assert g == Graph(primes, [tuple(e) for e in edges]), (kind, n)


#: calls to gk_altsym per degree n, as (kind, degree): the two kinds of a
#: degree share one row pass, which must not depend on the order of calls
CALL_ORDERS = {
    "sym-then-alt": lambda n: [("symmetric", n), ("alternating", n)],
    "alt-then-sym": lambda n: [("alternating", n), ("symmetric", n)],
    "same-degree-twice": lambda n: [("alternating", n), ("alternating", n), ("symmetric", n), ("symmetric", n)],
    "degrees-interleaved": lambda n: [
        ("alternating", n), ("symmetric", n - 1), ("symmetric", n), ("alternating", n - 1),
    ],
}


@pytest.mark.parametrize("order", CALL_ORDERS)
def test_altsym_rows_against_the_edge_rule_to_3000_in_any_call_order(order):
    previous = None
    for n, primes, rows in altsym_rows_by_degree(3000):
        expected = {n: (primes, rows), n - 1: previous}
        for kind, degree in CALL_ORDERS[order](n):
            if degree < (5 if kind == "alternating" else 2):
                continue
            g = gkbuild.gk_altsym(altsym(kind, degree))
            want_primes, want_rows = expected[degree]
            assert (g.vertices, g.rows) == (want_primes, want_rows[kind]), (order, kind, degree)
        previous = primes, rows


class TestIndexFunctions:
    def test_nu_involution(self):
        for n in range(1, 60):
            assert nt.nu(nt.nu(n)) == n

    def test_nu_values(self):
        assert nt.nu(4) == 4
        assert nt.nu(6) == 3
        assert nt.nu(3) == 6
        assert nt.nu(1) == 2

    # The independent side's order indices, those with phi-value in (n/2, n];
    # no Zsigmondy exception falls at these points, so every index is kept.
    def test_j_set_linear_13(self):
        cert = gkbuild.classical_compact_partition(groups.classical("A", 12, 4))
        assert cert.context["independent_indices"] == [7, 8, 9, 10, 11, 12, 13]

    def test_j_set_symplectic_rank4(self):
        # eta preimages of {3, 4}: odd 3 stays, even 6 halves to 3, even 8 halves to 4
        cert = gkbuild.classical_compact_partition(groups.classical("C", 4, 3))
        assert cert.context["independent_indices"] == [3, 6, 8]

    def test_j_set_rank_guard(self):
        with pytest.raises(RankTooSmall):
            gkbuild.classical_compact_partition(groups.classical("A", 2, 4))


def theorem_c_grid():
    """(descriptor, kind, eps, prk) at every point of the Theorem-C grid."""
    for family, eps in (("A", 1), ("2A", -1)):
        for dim in range(4, 21):
            for q in (2, 3, 4, 5, 7, 8, 9):
                yield groups.classical(family, dim - 1, q), "linear-unitary", eps, dim
    for family in ("B", "C", "D", "2D"):
        for rank in range(4, 13):
            for q in (2, 3, 5):
                yield groups.classical(family, rank, q), "symplectic-orthogonal", 1, rank


def interval_steps(cert):
    return [s for s in cert.steps if s.check is not None and s.check["op"] == "in_interval"]


class TestClassicalPartition:
    def test_psl5_2(self):
        cert = gkbuild.classical_compact_partition(groups.classical("A", 4, 2))
        part = cert.partition
        indep = {l.name: l.members for l in part.independent}
        assert indep == {"R3": (7,), "R4": (5,), "R5": (31,)}
        clique = {l.name: l.members for l in part.clique}
        # R_1(2) is empty, so the clique side is the characteristic plus R_2
        assert clique == {"p": (2,), "R2": (3,)}
        assert not recheck(cert)

    def test_psl13_4(self):
        cert = gkbuild.classical_compact_partition(groups.classical("A", 12, 4))
        part = cert.partition
        names = sorted(int(l.name[1:]) for l in part.independent)
        assert names == [7, 8, 9, 10, 11, 12, 13]
        r7 = next(l for l in part.independent if l.name == "R7")
        assert r7.members == (43, 127)
        assert not recheck(cert)

    def test_rank_three_rejected(self):
        with pytest.raises(RankTooSmall):
            gkbuild.classical_compact_partition(groups.classical("B", 3, 3))

    def test_not_classical_refused(self):
        for d in (groups.exceptional("G2", 4), groups.alternating(7)):
            with pytest.raises(UnsupportedFamily):
                gkbuild.classical_compact_partition(d)

    def test_members_have_claimed_orders(self):
        cert = gkbuild.classical_compact_partition(groups.classical("2A", 7, 3))
        part = cert.partition
        for label in part.independent | part.clique:
            if label.name == "p":
                continue
            index = int(label.name[1:])
            for r in label.members:
                assert brute_order(3 % r, r) if r == 2 else True
                assert nt.mult_order(r, 3) == index

    def test_groups_over_one_field_share_class_steps_that_stay_unchanged(self):
        # B12(3) and C12(3) have the same classes: each label and its
        # nonempty step is one object, built once for the field
        first, second = (gkbuild.classical_compact_partition(groups.classical(f, 12, 3)) for f in "BC")
        nonempty = [s for s in first.steps if s.check and s.check["op"] == "zsigmondy_nonempty"]
        assert len(nonempty) == len(first.context["independent_indices"]) == 9
        assert all(any(s is t for t in second.steps) for s in nonempty)
        assert first.partition.independent == second.partition.independent
        assert {id(label) for label in first.partition.independent} == {id(label) for label in second.partition.independent}
        before = copy.deepcopy([s.check for s in nonempty])
        assert not recheck(first) and not recheck(second)
        again = certificate_from_json(first.to_json())
        assert not recheck(again)
        assert [s.check for s in nonempty] == before
        third = gkbuild.classical_compact_partition(groups.classical("B", 12, 3))
        assert third.steps == first.steps and third.to_json() == first.to_json()
        # a class is shared within one budget only: at budget 1 no member is named
        starved = gkbuild.classical_compact_partition(groups.classical("B", 12, 3), budget=1)
        assert not any(label.members for label in starved.partition.independent)
        assert all(label.members for label in gkbuild.classical_compact_partition(groups.classical("C", 12, 3)).partition.independent)

    @staticmethod
    def _classes(q, budget):
        """The R_e(q) labels of E7(q)'s diagram and of B9(q)'s and C9(q)'s
        certificates, keyed by e, and the class cache's (hits, misses) before
        and after each of the three."""
        info = gkbuild._class_members.cache_info
        counts = [info()[:2]]
        graph, _ = exceptional.exceptional_compact(groups.parse_descriptor(f"E7({q})"), budget)
        counts.append(info()[:2])
        built = [{int(v.name[1:]): v for v in graph.vertices if v.name[1:].isdigit()}]
        for family in "BC":
            cert = gkbuild.classical_compact_partition(groups.classical(family, 9, q), budget)
            counts.append(info()[:2])
            labels = cert.partition.clique | cert.partition.independent
            built.append({int(v.name[1:]): v for v in labels if v.name[1:].isdigit()})
        return built, counts

    def test_classical_and_diagram_groups_share_one_class_cache(self):
        # each (e, q, budget) is one miss of gkbuild._class_members, the cache
        # the benchmark counts, and a hit for every later group that asks;
        # the budget is one no other test asks at
        (diagram, b9, c9), counts = self._classes(5, 1_234_567)
        (h0, m0), (h1, m1), (h2, m2), (h3, m3) = counts
        assert set(b9) == set(c9) == {*range(1, 11), 12, 14, 16, 18}
        assert set(diagram) == set(b9) - {16}
        assert (h1 - h0, m1 - m0) == (0, 13)
        assert (h2 - h1, m2 - m1) == (13, 1)
        assert (h3 - h2, m3 - m2) == (14, 0)
        for e, label in b9.items():
            assert c9[e] is label is gkbuild._class_members(e, 5, 1_234_567)[0]
            assert label.members == tuple(sorted(nt.ppd_set(e, 5)))
            assert e == 16 or diagram[e].members == label.members

    def test_an_exhausted_class_has_no_members_on_either_path(self):
        (diagram, b9, c9), _ = self._classes(5, 1)
        exhausted = set()
        for e, label in b9.items():
            try:
                assert label.members == tuple(sorted(nt.ppd_set(e, 5, 1))) != ()
            except BudgetExceeded:
                assert label.members == c9[e].members == ()
                exhausted.add(e)
                assert e == 16 or diagram[e].members == ()
        assert 0 < len(exhausted) < len(b9)  # both outcomes occur

    def test_certificate_round_trip(self):
        cert = gkbuild.classical_compact_partition(groups.classical("D", 5, 3))
        part = cert.partition
        again = certificate_from_json(cert.to_json())
        assert not recheck(again)
        assert again.partition.clique == part.clique

    def test_grid_phi_values_match_oracle(self):
        # One in_interval step per independent class, its phi-value recomputed
        # from nu/eta; every pair fact behind Lemma 5.3(iii) follows from
        # those values, so the certificate need not list the pairs.  A class
        # is an order index: Phi_e divides a factor of the order formula,
        # which leaves out R_2n of D_n and R_n of 2D_n at odd n.
        for d, kind, eps, n in theorem_c_grid():
            cert = gkbuild.classical_compact_partition(d)
            part = cert.partition
            assert cert.context["prk"] == n, d
            assert not recheck(cert), d
            indices = cert.context["independent_indices"]
            factors = classical_order_factors(d.family, n)
            assert indices == [
                e for e in range(1, 2 * n + 1)
                if n < 2 * classical_phi(e, kind, eps) and classical_phi(e, kind, eps) <= n
                and any(cyclotomic_divides(e, f, s) for f, s in factors)
                and not ppd_class_empty(e, d.q)
            ], d
            assert {label.name for label in part.independent} == {f"R{j}" for j in indices}
            steps = interval_steps(cert)
            assert len(steps) == len(indices), d
            phi_values = {}
            for j in indices:
                (s,) = [s for s in steps if f"R_{j}({d.q}) " in s.claim]
                phi_values[j] = classical_phi(j, kind, eps)
                assert s.check == {"op": "in_interval", "x": phi_values[j], "lo": n // 2, "hi": n}, d
            for (j1, m1), (j2, m2) in combinations(phi_values.items(), 2):
                assert j1 != j2
                assert m1 + m2 > n, (d, j1, j2)
                lo, hi = sorted((m1, m2))
                assert lo == hi or hi % lo, (d, j1, j2)
            lemma = [s for s in cert.assumptions() if s.tag == TAG_L53 and "nonadjacent" in s.claim]
            assert len(lemma) == 1, d
            assert len(cert.steps) <= 3 * (len(part.clique) + len(part.independent)) + 3, d

    def test_printed_members_divide_the_order(self):
        # every class the classical route prints holds primes of |G|; the
        # phi-value bound alone would admit R_2n of D_n and R_n of odd-rank
        # 2D_n, whose primes divide no factor (R_8(3) = {41}, and 41 does
        # not divide |D4(3)|)
        for family in groups.CLASSICAL_FAMILIES:
            for rank in range(4, 21):
                for q in (2, 3, 4, 5, 7, 8, 9):
                    d = groups.classical(family, rank, q)
                    order = groups.order(d)
                    part = gkbuild.classical_compact_partition(d).partition
                    for label in part.clique | part.independent:
                        assert label.members and all(order % r == 0 for r in label.members), (d, label)

    def test_a63_2_linear_and_each_phi_bound_checked(self):
        cert = gkbuild.classical_compact_partition(groups.classical("A", 63, 2))
        part = cert.partition
        assert len(cert.steps) <= 3 * (len(part.clique) + len(part.independent)) + 3
        doc = json.loads(cert.to_json())
        positions = [k for k, s in enumerate(doc["steps"]) if s["check"] and s["check"]["op"] == "in_interval"]
        assert len(positions) == 32
        for k in positions:
            forged = json.loads(cert.to_json())
            forged["steps"][k]["check"]["x"] = cert.context["prk"] // 2
            assert recheck(certificate_from_json(json.dumps(forged))) == [doc["steps"][k]["claim"]]

    def test_empty_independent_side_is_fine(self):
        # nothing in the grid produces it, but the partition type allows I = {}
        part = gkbuild.classical_compact_partition(groups.classical("A", 4, 2)).partition
        assert part.independent  # sanity: here it is nonempty


class TestLemma52:
    def test_35_2_3(self):
        cert = gkbuild.lemma52_check(35, 2, 3)
        assert cert.context["a_prime"] == 1
        assert not recheck(cert)

    def test_7_2_2_consistent_with_members(self):
        cert = gkbuild.lemma52_check(7, 2, 2)
        assert not recheck(cert)
        assert nt.ppd_set(7, 4) == {43, 127}

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            gkbuild.lemma52_check(6, 2, 1)
        with pytest.raises(PreconditionViolated):
            gkbuild.lemma52_check(4, 3, 2)  # pi(2) inside pi(4)


class TestNonsplitWitnessLinear:
    def test_13_2_2_exact(self):
        cert = gkbuild.nonsplit_witness_linear(13, 2, 2)
        primes = cert.witness.vertices
        assert set(primes[:2]) == {43, 127}
        assert set(primes[2:]) == {19, 73}
        assert cert.context["k1"] == 7 and cert.context["k2"] == 9
        for r in primes[:2]:
            assert nt.mult_order(r, 4) == 7
        for r in primes[2:]:
            assert nt.mult_order(r, 4) == 9
        assert not recheck(cert)
        model = Graph(primes, [(primes[0], primes[1]), (primes[2], primes[3])])
        w = model.find_forbidden()
        assert w is not None and w.kind == "2K2"

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            gkbuild.nonsplit_witness_linear(11, 2, 2)
        with pytest.raises(PreconditionViolated):
            gkbuild.nonsplit_witness_linear(13, 2, 1)
        with pytest.raises(PreconditionViolated):
            gkbuild.nonsplit_witness_linear(13, 4, 2)

    def test_14_3_2_revalidates(self):
        cert = gkbuild.nonsplit_witness_linear(14, 3, 2)
        primes = cert.witness.vertices
        q = 9
        ks = (cert.context["k1"],) * 2 + (cert.context["k2"],) * 2
        for r, k in zip(primes, ks):
            assert brute_order(q % r, r) == k
        assert len(set(primes)) == 4
        assert not recheck(cert)

    @pytest.mark.parametrize(
        "n,p,a",
        [
            (12, 2, 2), (13, 2, 2), (15, 2, 2), (16, 2, 3), (18, 2, 2),
            (13, 3, 2), (14, 3, 2), (17, 3, 3), (13, 5, 2), (15, 5, 2),
            (20, 2, 4), (19, 7, 2),
        ],
    )
    def test_sweep_orders_and_shape(self, n, p, a):
        q = p**a
        cert = gkbuild.nonsplit_witness_linear(n, p, a)
        primes = cert.witness.vertices
        k1, k2 = cert.context["k1"], cert.context["k2"]
        # smallest admissible pair, inside the open interval, non-dividing
        assert n / 2 < k1 < k2 < n
        assert k2 % k1 and k1 % k2
        for r, k in zip(primes, (k1, k1, k2, k2)):
            assert brute_order(q % r, r) == k
        assert len(set(primes)) == 4
        model = Graph(primes, [(primes[0], primes[1]), (primes[2], primes[3])])
        w = model.find_forbidden()
        assert w is not None and w.kind == "2K2"
        assert not recheck(cert)

    def test_picks_first_two_lemma52_indices(self):
        # the indices come from lemma52_check; the oracle is the admissibility
        # rule written out
        for n in range(12, 41):
            for p in (2, 3, 5, 7):
                for a in (2, 3, 4, 6):
                    expected = lemma52_indices(n, p, a)[:2]
                    if len(expected) < 2:
                        with pytest.raises(PreconditionViolated):
                            gkbuild.nonsplit_witness_linear(n, p, a)
                        continue
                    cert = gkbuild.nonsplit_witness_linear(n, p, a)
                    assert [cert.context["k1"], cert.context["k2"]] == expected, (n, p, a)

    def test_wings_are_the_least_members(self):
        # each wing is the least prime of R_{ka}(p) resp. R_{ka'}(p); the
        # reference takes the min over the whole class, factoring Phi_{ka}(p)
        for n in range(12, 41):
            for p in (2, 3, 5, 7):
                for a in (2, 3, 4, 6):
                    if len(lemma52_indices(n, p, a)) < 2:
                        continue
                    cert = gkbuild.nonsplit_witness_linear(n, p, a)
                    expected = []
                    for k in (cert.context["k1"], cert.context["k2"]):
                        a_prime = nt.pi_part(a, k)
                        expected += [min(nt.ppd_set(k * a, p)), min(nt.ppd_set(k * a_prime, p))]
                    assert list(cert.witness.vertices) == expected, (n, p, a)


class TestScNonsplit:
    def test_19_2(self):
        cert = gkbuild.sc_nonsplit_certificate(19, 2)
        assert (cert.context["k"], cert.context["m"], cert.context["l"]) == (7, 11, 9)
        assert brute_order(2, 19) == 18
        assert not recheck(cert)
        names = {v.name for v in cert.witness.vertices}
        assert names == {"R7", "R11", "R18", "R19"}

    def test_17_3(self):
        assert brute_order(3, 17) == 16
        cert = gkbuild.sc_nonsplit_certificate(17, 3)
        assert not recheck(cert)

    def test_rejections(self):
        with pytest.raises(PreconditionViolated):
            gkbuild.sc_nonsplit_certificate(11, 2)  # too small
        with pytest.raises(PreconditionViolated):
            gkbuild.sc_nonsplit_certificate(17, 2)  # 2 has order 8 mod 17

    def test_assumptions_separated(self):
        cert = gkbuild.sc_nonsplit_certificate(19, 2)
        assert cert.assumptions() and cert.checked_steps()
        for s in cert.checked_steps():
            assert s.check is not None


class TestProp72:
    def test_5_7_2(self):
        cert = gkbuild.prop72_certificate(5, 7, 2)
        assert cert.context["n"] == 35 and cert.context["q"] == 8
        assert not recheck(cert)

    def test_3_5_2_rejected(self):
        with pytest.raises(PreconditionViolated):
            gkbuild.prop72_certificate(3, 5, 2)  # 15 = 0 mod 3

    def test_5_7_3(self):
        cert = gkbuild.prop72_certificate(5, 7, 3)
        assert cert.context["q"] == 27
        assert not recheck(cert)

    def test_5_13_5_concrete_without_factoring(self):
        # Phi_195(5) and Phi_192(5) are not factored: the least members are found
        # by the trial scan
        cert = gkbuild.prop72_certificate(5, 13, 5)
        assert cert.context["symbolic"] is False
        assert (cert.context["sample_r_n"], cert.context["sample_r_n_minus_1"]) == (14821, 193)
        assert not recheck(cert)

    def test_symbolic_under_tiny_budget(self):
        cert = gkbuild.prop72_certificate(5, 7, 2, budget=10)
        assert cert.context["symbolic"] is True
        assert not recheck(cert)


class TestPsl11:
    def test_witness_validates(self):
        graph, cert = gkbuild.psl11_2_sc()
        w = cert.witness
        assert {v.name for v in w.vertices} == {"R3", "R7", "R10", "R11"}
        sub = graph.induced(w.vertices)
        found = sub.find_forbidden()
        assert found is not None and found.kind == "2K2"

    def test_not_split(self):
        graph, _ = gkbuild.psl11_2_sc()
        assert not is_split_degree(graph).split

    def test_already_compact(self):
        graph, _ = gkbuild.psl11_2_sc()
        cf = graph.compact_form()
        assert all(len(c) == 1 for c in cf.class_contents.values())

    def test_members_and_certificate(self):
        graph, cert = gkbuild.psl11_2_sc()
        assert not recheck(cert)
        for label in graph.vertices:
            if label.name == "hub":
                assert label.members == (2, 3)
                continue
            index = int(label.name[1:])
            for r in label.members:
                assert brute_order(2, r) == index


class TestArtin:
    def test_2_up_to_30(self):
        assert gkbuild.artin_pairs(2, 30) == [3, 5, 11, 13, 19, 29]

    def test_squares_have_none(self):
        assert gkbuild.artin_pairs(4, 500) == []
        assert gkbuild.artin_pairs(9, 500) == []

    def test_contains_11(self):
        assert 11 in gkbuild.artin_pairs(2, 11)

    @pytest.mark.parametrize("p", [3, 5, 6, 7, 10])
    def test_matches_order_loop(self, p):
        # covers n == p and composite bases
        assert gkbuild.artin_pairs(p, 500) == brute_artin_pairs(p, 500)


def _member_sides(part):
    return [{frozenset(v.members) for v in side} for side in (part.clique, part.independent)] + [part.special]


def diagram(family, q, budget=nt.DEFAULT_BUDGET):
    """(graph, certified partition, certificate) of exceptional_compact of the group family(q)."""
    graph, cert = gkbuild.exceptional_compact(groups.parse_descriptor(f"{family}({q})"), budget)
    return graph, cert.partition, cert


def order_primes(d):
    """pi(|G|) of the Lie-type group d: the characteristic and the primes of
    each factor q^f - s of its order list, factored through its cyclotomic
    pieces Phi_e(q), that divide the order (the divisor may remove some)."""
    q, order = d.q, groups.order(d)
    primes = {groups.char_and_degree(q)[0]}
    for f, s in groups._order_rule(d)[1]:
        for e in range(1, 2 * f + 1):
            if cyclotomic_divides(e, f, s):
                primes |= nt.prime_set(nt.cyclotomic_value(e, q))
    return {r for r in primes if order % r == 0}


#: E8's diagram has no class R7 or R14, although Phi_7 and Phi_14 divide its
#: factor q^14 - 1: E8(2) lacks 43 and 127, E8(5) lacks 29, 449 and 19531
DIAGRAM_COVERAGE = [
    pytest.param(f, marks=pytest.mark.xfail(strict=True, reason="E8 diagram lacks R7 and R14"))
    if f == "E8" else f
    for f in exceptional.diagram_families()
]


class TestExceptionalGraphs:
    @pytest.mark.parametrize("family", DIAGRAM_COVERAGE)
    def test_class_members_are_the_order_primes(self, family):
        # at every q < 60 where each class names its members, the classes
        # together hold exactly the primes of |G|
        seen = 0
        for q in prime_powers(2, 59):
            try:
                d = groups.parse_descriptor(f"{family}({q})")
            except (InvalidField, NotSimple):
                continue
            graph, _ = gkbuild.exceptional_compact(d)
            members = [set(v.members) for v in graph.vertices]
            if all(members):
                assert set().union(*members) == order_primes(d), d
                seen += 1
        assert seen, family

    @pytest.mark.parametrize("family, q", [("B2", 3), ("B2", 7), ("B3", 3), (groups.TITS_NAME, 2)])
    def test_spectrum_partition_flag_is_verified(self, family, q):
        # the diagrams transcribed from a spectrum, and the Tits group's
        # spectrum build, set the special flag from the graph
        d = groups.sporadic(family) if family == groups.TITS_NAME else groups.parse_descriptor(f"{family}({q})")
        graph, cert = gkbuild.exceptional_compact(d)
        part = cert.partition
        assert part == flag_special(graph, part.clique, part.independent)

    def test_b2_partition_is_the_order_four_rule(self):
        # the classes that avoid p and whose members all have order 4 modulo q
        # are independent, the rest form the clique: the characteristic rule
        # gives the same partition for every prime power q <= 400
        qs = prime_powers(3, 400)
        for q in qs:
            p, _ = groups.char_and_degree(q)
            graph, part, _ = diagram("B2", q)
            indep = {
                v for v in graph.vertices
                if p not in v.members and all(convention_order(r, q) == 4 for r in v.members)
            }
            assert (part.clique, part.independent) == (set(graph.vertices) - indep, indep), q
        assert len(qs) == 96

    def test_spectrum_transcriptions_match_the_spectrum(self):
        # the B2 = C2 and B3(3) = C3(3) diagrams are transcribed from
        # groups.spectrum_formulas: each is the compact form of the prime graph
        # built from the maximal element orders, by member sets, and its
        # partition is the one read off that graph (C = the class of p for B2,
        # the class of 2 for B3(3)), special flag included
        cases = [(family, q) for q in prime_powers(3, 400) for family in ("B2", "C2")]
        cases += [("B3", 3), ("C3", 3)]
        for family, q in cases:
            graph, part, _ = diagram(family, q)
            mu = groups.spectrum_formulas(groups.parse_descriptor(f"{family}({q})"))
            lhs = groups.gk_from_spectrum(mu).compact_form().quotient
            assert same_class_graph(lhs, graph), (family, q)
            marked = 2 if family[1] == "3" else groups.char_and_degree(q)[0]
            clique = {v for v in lhs.vertices if marked in v.members}
            want = flag_special(lhs, clique, set(lhs.vertices) - clique)
            assert _member_sides(part) == _member_sides(want), (family, q)
        assert len(cases) == 194

    def test_2b2_8(self):
        graph, part, cert = diagram("2B2", 8)
        assert graph.edges == ()
        members = {frozenset(v.members) for v in graph.vertices}
        assert members == {frozenset({2}), frozenset({7}), frozenset({5}), frozenset({13})}
        ok, _ = validate_partition(graph, part)
        assert ok and len(part.clique) == 1

    def test_g2_one_mod_three_path(self):
        # 3 | q - 1 with R_1 \ {3} nonempty needs q = 1 mod 4 or an odd
        # divisor of q - 1 beyond 3; q = 13 gives the full path
        graph, part, cert = diagram("G2", 13)
        by_name = {v.name: v for v in graph.vertices}
        assert set(by_name) == {"R2p", "R1", "3", "R3", "R6"}
        assert graph.adjacent(by_name["R2p"], by_name["R1"])
        assert graph.adjacent(by_name["R1"], by_name["3"])
        assert graph.adjacent(by_name["3"], by_name["R3"])
        assert graph.degree(by_name["R6"]) == 0
        assert {l.name for l in part.clique} == {"R1", "3"}

    def test_g2_4_degenerate_path(self):
        # at q = 4 the class R_1 \ {3} is empty and drops out
        graph, part, cert = diagram("G2", 4)
        names = {v.name for v in graph.vertices}
        assert "R1" not in names
        ok, _ = validate_partition(graph, part)
        assert ok

    def test_3d4_2_empty_r6(self):
        graph, part, cert = diagram("3D4", 2)
        names = {v.name for v in graph.vertices}
        assert names == {"R", "R3", "R12"}
        assert {l.name for l in part.clique} == {"R", "R3"}
        assert {l.name for l in part.independent} == {"R12"}

    def test_e8_five_in_r4(self):
        graph, part, cert = diagram("E8", 2)
        by_name = {v.name: v for v in graph.vertices}
        assert "5" in by_name and "R4" not in by_name  # R_4(2) = {5} entirely
        assert graph.adjacent(by_name["5"], by_name["R20"])
        ok, _ = validate_partition(graph, part)
        assert ok

    def test_e8_without_five(self):
        graph, part, cert = diagram("E8", 4)
        by_name = {v.name: v for v in graph.vertices}
        assert "5" not in by_name and "R4" in by_name
        assert graph.degree(by_name["R20"]) == 0

    def test_a2_cases(self):
        # (q-1)_3 = 1, 3, 9 at q = 5, 7, 19
        for q, in_clique in ((5, False), (7, False), (19, True)):
            graph, part, cert = diagram("A2", q)
            three = next(v for v in graph.vertices if v.name == "3")
            assert (three in part.clique) == in_clique, q
            ok, reason = validate_partition(graph, part)
            assert ok, (q, reason)

    def test_2a2_8_case_a(self):
        graph, part, cert = diagram("2A2", 8)
        names = {v.name for v in graph.vertices}
        assert names == {"p", "3", "U2", "RN3"}
        assert {l.name for l in part.clique} == {"3", "p"}

    def test_field_constraints_enforced(self):
        with pytest.raises(Exception):
            diagram("2G2", 9)

    def test_twin_free_samples(self):
        # Families and field sizes whose compact diagram carries no true
        # twins, three field sizes each.  Known exclusions, where distinct
        # drawn classes share a closed neighborhood: B3/C3 diagrams at q > 3
        # ({p} and R4), E6/2E6 (R1 and R2) except when both are empty (q = 2),
        # 2F4 (the two pi(q -+ sqrt(2q) + 1) classes), F4 at odd q ({2} and
        # the R1+R2+p class), and the linear/unitary rank-3 case when the
        # three-part of q - eps exceeds 3 at odd characteristic.
        cases = [
            ("A1", (4, 7, 9)),
            ("A2", (5, 7, 13)),
            ("2A2", (5, 7, 8)),
            ("B2", (3, 5, 7)),      # two isolated classes, R and R4
            ("G2", (13, 27, 31)),
            ("F4", (4, 8, 32)),
            ("E7", (2, 3, 4)),
            ("E8", (2, 3, 4)),
            ("2B2", (8, 32, 128)),
            ("3D4", (3, 4, 5)),  # at q = 2 the empty R6 leaves R and R3 twins
            ("2G2", (27, 243, 2187)),
        ]
        singles = [("B3", 3), ("E6", 2)]
        flat = [(fam, q) for fam, qs in cases for q in qs] + singles
        for fam, q in flat:
            graph, _, _ = diagram(fam, q)
            cf = graph.compact_form()
            assert all(len(c) == 1 for c in cf.class_contents.values()), (fam, q)

    def test_budget_never_changes_the_diagram(self):
        # class existence is decided without factoring: at budget 1 a class
        # whose members run out is kept bare, with its edges and its side
        samples = dict(campaigns._EXCEPTIONAL_SAMPLES)
        bare = 0

        def shape(family, q, budget):
            graph, part, _ = diagram(family, q, budget)
            names = lambda labels: sorted(v.name for v in labels)
            edges = sorted(tuple(names(e)) for e in graph.edges)
            return names(graph.vertices), edges, names(part.clique), part.special, graph

        for family in exceptional.diagram_families():
            for q in samples.get(family) or samples["B" + family[1:]]:
                *low, graph = shape(family, q, 1)
                assert low == list(shape(family, q, nt.DEFAULT_BUDGET)[:-1]), (family, q)
                bare += sum(not v.members for v in graph.vertices)
        assert bare > 50

    def test_b3c3_shared(self):
        g1, p1, _ = diagram("B3", 5)
        g2, p2, _ = diagram("C3", 5)
        assert same_class_graph(g1, g2)

    @pytest.mark.parametrize(
        "pred",
        [{"all": []}, {"any": []}, {"pred": "char_is", "value": 2}, {"pred": "char_is_not", "value": 2},
         {"pred": "nonempty", "index": 4}, {"pred": "q_odd"}],
        ids=["all", "any", "char_is", "char_is_not", "nonempty", "q_odd"],
    )
    def test_predicate_kinds_no_diagram_uses_are_rejected(self, pred):
        # the predicate language is what data/diagrams.json uses; a kind
        # outside it is a typo in the data and must fail loudly
        with pytest.raises(ValueError, match="unknown predicate"):
            exceptional._eval_pred(pred, 5, 1, [])


class TestDescriptorFor:
    # exceptional_compact is keyed by the parsed descriptor: each diagram
    # family name parses at a sample field size into a group that has a
    # diagram, and a group of another family has none
    def test_every_family_covered(self):
        samples = dict(campaigns._EXCEPTIONAL_SAMPLES)
        for family in exceptional.diagram_families():
            q = (samples.get(family) or samples["B" + family[1:]])[0]
            d = groups.parse_descriptor(f"{family}({q})")
            graph, cert = gkbuild.exceptional_compact(d)
            part = cert.partition
            assert validate_partition(graph, part) == (True, None), family

    def test_unknown_family(self):
        for text in ("A3(4)", "D7(5)", "Alt(7)", "M22"):
            with pytest.raises(UnsupportedFamily):
                gkbuild.exceptional_compact(groups.parse_descriptor(text))


class TestTheoremD:
    def test_verdict_holds_on_the_true_compact_form(self):
        # for a diagram family theoremD_verify returns the drawn class graph,
        # which can hold true twins (2 and U1 in A2(11)); over every diagram
        # group with q < 300 its compact form is split, and the certified
        # partition validates on it, a merged class on C when any of its
        # classes is
        groups_seen = with_twins = 0
        for family in exceptional.diagram_families():
            for q in prime_powers(2, 299):
                try:
                    d = groups.parse_descriptor(f"{family}({q})")
                except (InvalidField, NotSimple):
                    continue
                graph, _, cert = gkbuild.theoremD_verify(d)
                cf = graph.compact_form()
                assert is_split_degree(cf.quotient).split, d
                clique = frozenset(cf.class_map[v] for v in cert.partition.clique)
                part = SplitPartition(clique, frozenset(cf.class_contents) - clique)
                assert validate_partition(cf.quotient, part) == (True, None), d
                groups_seen += 1
                with_twins += cf.quotient.n < graph.n
        assert (groups_seen, with_twins) == (1030, 519)

    def test_alt7(self):
        obj, verdict, cert = gkbuild.theoremD_verify(groups.alternating(7))
        assert verdict.split
        assert cert.partition.clique == {2, 3} and cert.partition.independent == {5, 7}

    def test_singleton_prime_graph(self):
        obj, verdict, cert = gkbuild.theoremD_verify(groups.symmetric(2))
        assert verdict.split
        assert obj.n == 1

    def test_psl5_2(self):
        obj, verdict, cert = gkbuild.theoremD_verify(groups.classical("A", 4, 2))
        assert verdict.split and obj is None
        assert not recheck(cert)

    def test_sporadic(self):
        obj, verdict, cert = gkbuild.theoremD_verify(groups.sporadic("Co1"))
        assert verdict.split
        assert verdict.partition.clique == {2, 3, 5}

    def test_every_family_has_a_route(self):
        descriptors = [
            groups.alternating(9),
            groups.symmetric(3),
            groups.sporadic("M"),
            groups.sporadic("Tits"),
            groups.classical("A", 1, 8),
            groups.classical("A", 2, 9),
            groups.classical("2A", 2, 3),
            groups.classical("B", 2, 7),
            groups.classical("B", 3, 3),
            groups.classical("C", 3, 9),
            groups.classical("A", 5, 2),
            groups.classical("2A", 6, 2),
            groups.classical("B", 4, 3),
            groups.classical("C", 5, 2),
            groups.classical("D", 4, 3),
            groups.classical("2D", 4, 2),
            groups.exceptional("G2", 5),
            groups.exceptional("F4", 2),
            groups.exceptional("E6", 2),
            groups.exceptional("2E6", 2),
            groups.exceptional("E7", 2),
            groups.exceptional("E8", 3),
            groups.exceptional("2B2", 8),
            groups.exceptional("2G2", 27),
            groups.exceptional("2F4", 8),
            groups.exceptional("3D4", 2),
        ]
        for d in descriptors:
            obj, verdict, cert = gkbuild.theoremD_verify(d)
            assert verdict.split, d
            assert not recheck(cert), d


def planted(monkeypatch, key, edit):
    """Load data/diagrams.json with edit applied to the template of key."""
    data = copy.deepcopy(exceptional._load())
    edit(data["families"][key])
    monkeypatch.setattr(exceptional, "_DIAGRAMS", data)


def raises_for(text, reason, error=CheckFailed):
    """theoremD_verify of the group text raises error (a failed check unless
    told otherwise) naming the group and the reason; returns the error."""
    d = groups.parse_descriptor(text)
    with pytest.raises(error, match=re.escape(reason)) as info:
        gkbuild.theoremD_verify(d, 1)
    assert str(d) in str(info.value)
    return info.value


class TestTheoremDCheckSite:
    # theoremD_verify is the one place a built group's partition is checked;
    # each planted defect must raise there, naming the group, and no other
    # partition may be tried in its place
    def test_edge_inside_i(self, monkeypatch):
        # G2(5) takes the q = -1 (mod 3) variant, whose I holds R1p and R3
        planted(monkeypatch, "G2", lambda t: t["variants"][2]["edges"].append(["R1p", "R3", None]))
        raises_for("G2(5)", "certified partition of G2(5) invalid: I is not independent")

    def test_diagram_made_nonsplit(self, monkeypatch):
        # 2B2(8) has the classes {2}, {7}, {5}, {13}; two edges make a 2K2
        planted(monkeypatch, "2B2", lambda t: t["variants"][0]["edges"].extend(
            [["2", "pi_q_minus_1", None], ["pi_v_minus", "pi_v_plus", None]]))
        assert not is_split_degree(exceptional.exceptional_compact(groups.parse_descriptor("2B2(8)"), 1)[0]).split
        raises_for("2B2(8)", "I is not independent")

    def test_stated_partition_fails_with_a_valid_one_after_it(self, monkeypatch):
        def edit(template):
            template["variants"][0]["partitions"] = [
                {"when": None, "clique": ["pi_minus", "pi_plus"], "independent": ["p"]},
                {"when": None, "clique": ["p"], "independent": ["pi_minus", "pi_plus"]},
            ]

        planted(monkeypatch, "A1", edit)
        raises_for("A1(8)", "C is not a clique")

    def test_no_partition_applies(self, monkeypatch):
        def edit(template):
            for alt in template["variants"][0]["partitions"]:
                alt["when"] = {"pred": "q_eq", "value": 1}

        planted(monkeypatch, "A2", edit)
        raises_for("A2(5)", "no stated partition of A2(5) applies")

    def test_no_variant_applies(self, monkeypatch):
        def edit(template):
            for variant in template["variants"]:
                variant["when"] = {"pred": "q_eq", "value": 1}

        planted(monkeypatch, "G2", edit)
        raises_for("G2(5)", "no diagram variant of G2(5) applies")

    def test_altsym_partition(self, monkeypatch):
        monkeypatch.setattr(gkbuild, "altsym_partition", lambda n: SplitPartition(frozenset({2, 3, 5}), frozenset({7})))
        raises_for("Alt(7)", "C is not a clique")

    def test_wrong_tits_clique(self, monkeypatch):
        real = exceptional.tits_compact

        def wrong():
            graph, cert = real()
            clique = {v for v in graph.vertices if {2, 13}.intersection(v.members)}
            return graph, cert._replace(partition=flag_special(graph, clique, set(graph.vertices) - clique))

        monkeypatch.setattr(exceptional, "tits_compact", wrong)
        raises_for("Tits", "C is not a clique")

    def test_degree_route_disagrees(self, monkeypatch):
        monkeypatch.setattr(gkbuild, "is_split_degree", lambda g: SplitVerdict(False, 1, None))
        # the partition has validated: the verifier is at fault, not the data
        error = raises_for("3D4(2)", "compact graph of 3D4(2) is not split", InternalInconsistency)
        assert not isinstance(error, CheckFailed)

    def test_every_diagram_group_below_1000_at_budget_1(self):
        # every diagram family at every prime power q < 1000; A2 and 2A2
        # certify each of their two stated partitions somewhere on the grid
        seen, a2_cliques = 0, set()
        for family in exceptional.diagram_families():
            for q in prime_powers(2, 999):
                try:
                    d = groups.parse_descriptor(f"{family}({q})")
                except (InvalidField, NotSimple):
                    continue
                graph, verdict, cert = gkbuild.theoremD_verify(d, 1)
                assert verdict.split and graph is not None, d
                seen += 1
                if family in ("A2", "2A2"):
                    a2_cliques.add(frozenset(v.name for v in cert.partition.clique))
        assert seen == 2514
        assert frozenset({"2", "3", "p", "U1"}) in a2_cliques
        assert frozenset({"2", "p", "U1"}) in a2_cliques
