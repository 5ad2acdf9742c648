import hashlib
import json
import time
from math import factorial

import pytest

from gksplit import exceptional, gkbuild, groups
from gksplit import numtheory as nt
from gksplit.errors import InvalidField, NotSimple, SpectrumError, UnsupportedFamily

from oracles import brute_factor, parent_first_factors


def alt_order(n):
    return factorial(n) // 2


class TestDescriptors:
    def test_alternating_bounds(self):
        groups.alternating(5)
        with pytest.raises(NotSimple):
            groups.alternating(4)

    def test_symmetric_bounds(self):
        groups.symmetric(2)
        with pytest.raises(NotSimple):
            groups.symmetric(1)

    def test_small_linear_rejected(self):
        for q in (2, 3):
            with pytest.raises(NotSimple):
                groups.classical("A", 1, q)
        groups.classical("A", 1, 4)

    def test_non_prime_power_field(self):
        with pytest.raises(InvalidField):
            groups.classical("A", 2, 6)

    def test_suzuki_field_constraint(self):
        groups.exceptional("2B2", 8)
        with pytest.raises(InvalidField):
            groups.exceptional("2B2", 16)
        with pytest.raises(NotSimple):
            groups.exceptional("2B2", 2)

    def test_ree_field_constraint(self):
        groups.exceptional("2G2", 27)
        with pytest.raises(InvalidField):
            groups.exceptional("2G2", 9)
        with pytest.raises(NotSimple):
            groups.exceptional("2G2", 3)

    def test_g2_2_rejected(self):
        with pytest.raises(NotSimple):
            groups.exceptional("G2", 2)

    def test_tits_flag(self):
        d = groups.sporadic("2F4(2)'")
        assert d.tits
        assert groups.sporadic("Tits") == d
        with pytest.raises(NotSimple):
            groups.exceptional("2F4", 2)

    def test_tits_is_read_from_the_name(self):
        # the Tits group is the sporadic-style descriptor named 2F4(2)';
        # built by hand it is the same group, and no other descriptor is it
        d = groups.GroupDescriptor("sporadic", name=groups.TITS_NAME)
        assert d.tits and d == groups.sporadic("Tits")
        assert gkbuild.theoremD_verify(d)[1].split
        assert not groups.sporadic("M22").tits and not groups.exceptional("2F4", 8).tits
        with pytest.raises(AttributeError):
            d.tits = False

    def test_aliases_normalized(self):
        assert groups.classical("C", 2, 3) == groups.classical("B", 2, 3)
        assert groups.classical("D", 3, 3) == groups.classical("A", 3, 3)
        assert groups.classical("2D", 3, 3) == groups.classical("2A", 3, 3)
        assert groups.classical("2D", 2, 3) == groups.classical("A", 1, 9)

    def test_prk(self):
        assert groups.prk(groups.classical("A", 4, 2)) == 5
        assert groups.prk(groups.classical("2A", 4, 2)) == 5
        assert groups.prk(groups.classical("C", 4, 3)) == 4


class TestParseDescriptorOwner:
    def test_tits_aliases(self):
        tits = groups.sporadic(groups.TITS_NAME)
        for text in ("Tits", "tits", "2F4(2)'", " 2F4(2)' "):
            assert groups.parse_descriptor(text) == tits

    def test_2f4_2_not_simple(self):
        with pytest.raises(NotSimple):
            groups.parse_descriptor("2F4(2)")


class TestOrders:
    def test_a1_4_is_alt5(self):
        assert groups.order(groups.classical("A", 1, 4)) == 60 == alt_order(5)

    def test_b2_3(self):
        assert groups.order(groups.classical("B", 2, 3)) == 25920

    def test_symmetric(self):
        assert groups.order(groups.symmetric(4)) == 24

    def test_exceptional_isomorphisms(self):
        # PSL2(5) = PSL2(4) = Alt(5); PSL2(9) = Alt(6); PSL4(2) = Alt(8)
        assert groups.order(groups.classical("A", 1, 5)) == alt_order(5)
        assert groups.order(groups.classical("A", 1, 9)) == alt_order(6)
        assert groups.order(groups.classical("A", 3, 2)) == alt_order(8)

    def test_bn_cn_same_order(self):
        assert groups.order(groups.classical("B", 3, 5)) == groups.order(
            groups.classical("C", 3, 5)
        )

    def test_sporadic_orders_match_factorizations(self):
        for rec in groups.sporadic_table():
            value = groups.order(groups.sporadic(rec.name))
            assert brute_factor(value) == list(rec.order_factors) or value > 10**18
            # for the big ones, verify the factorization multiplies back
            check = 1
            for p, e in rec.order_factors:
                check *= p**e
            assert check == value

    def test_tits_order(self):
        assert groups.order(groups.sporadic("Tits")) == 17971200

    def test_lie_orders_pinned(self):
        # every classical family at ranks 1..29 and every exceptional family
        # at 19 field sizes: the digest of the orders as recorded from the
        # per-family product formulas before they became one degree rule
        digest, seen = hashlib.sha256(), 0
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 128, 243, 2187):
            calls = [(groups.classical, (f, r, q)) for f in groups.CLASSICAL_FAMILIES for r in range(1, 30)]
            calls += [(groups.exceptional, (f, q)) for f in groups.EXCEPTIONAL_FAMILIES]
            for make, args in calls:
                try:
                    d = make(*args)
                except (InvalidField, NotSimple):
                    continue
                digest.update(f"{d}:{groups.order(d):x}\n".encode())
                seen += 1
        assert seen == 3328
        assert digest.hexdigest() == "4f3123495306e0009e88d1a694a6860c222d82ed991cbb4a9da152feb95228d4"


class TestOrderIndices:
    """order_indices, which reads a divisor table, against a verbatim copy
    of the trial-division scan it replaced (``oracles.parent_first_factors``)."""

    def _descriptors(self):
        for family in groups.CLASSICAL_FAMILIES:
            for rank in range(1, 65):
                try:
                    yield groups.classical(family, rank, 5)
                except NotSimple:
                    continue
        for family in groups.EXCEPTIONAL_FAMILIES:
            yield groups.exceptional(family, {"2B2": 8, "2G2": 27, "2F4": 8}.get(family, 4))

    def test_against_the_parent_scan(self):
        groups._first_factors.cache_clear()
        groups._divisors.cache_clear()
        seen = 0
        for _ in range(2):  # from cold tables, then from warm ones
            for d in self._descriptors():
                assert groups.order_indices(d) == parent_first_factors(tuple(groups._order_rule(d)[1])), d
                seen += 1
        # every rank but 2A1, B1, C1, D1, D2 and 2D1, which name no simple group
        assert seen == 2 * (6 * 64 - 6 + len(groups.EXCEPTIONAL_FAMILIES))

    def test_divisors(self):
        for m in range(1, 2000):
            assert groups._divisors(m) == tuple(a for a in range(1, m + 1) if m % a == 0), m


class TestSporadicTable:
    def test_twenty_six(self):
        table = groups.sporadic_table()
        assert len(table) == 26
        assert len({r.name for r in table}) == 26

    def test_partition_consistency(self):
        for rec in groups.sporadic_table():
            pi = rec.prime_spectrum
            pp = rec.prime_partition
            assert pp.clique | pp.independent == pi, rec.name
            assert not pp.clique & pp.independent, rec.name
            if rec.solvable_partition is not None:
                sp = rec.solvable_partition
                assert sp.clique | sp.independent == pi, rec.name
                assert not sp.clique & sp.independent, rec.name

    def test_split_solvable_exactly_sixteen(self):
        table = groups.sporadic_table()
        with_partition = {r.name for r in table if r.solvable_partition}
        assert len(with_partition) == 16
        nonsplit = {r.name for r in table} - with_partition
        assert nonsplit == {
            "M22", "M23", "M24", "Co3", "Co2", "Fi23", "Fi24'", "B", "M", "J4",
        }

    def test_witness_sets(self):
        table = {r.name: r for r in groups.sporadic_table()}
        assert table["J4"].prime_partition.clique == {2, 3, 5}
        assert table["J4"].prime_partition.independent == {7, 11, 23, 29, 31, 37, 43}
        assert table["Ly"].solvable_partition.clique == {2, 3, 11}
        assert table["Ly"].solvable_partition.independent == {5, 7, 31, 37, 67}
        assert table["M22"].solvable_witness == (3, 5, 7, 11)
        assert set(table["M22"].solvable_edges) == {
            (11, 5), (5, 2), (2, 3), (2, 7), (3, 7),
        }
        # every witness lies inside the prime spectrum, except the one
        # documented defect (29 printed for B, which 29 does not divide)
        for rec in table.values():
            if rec.solvable_witness and rec.name != "B":
                assert set(rec.solvable_witness) <= rec.prime_spectrum, rec.name
        assert table["B"].notes is not None

    def test_alias_lookup(self):
        assert groups.sporadic_record("F1").name == "M"
        assert groups.sporadic_record("F5").name == "HN"
        assert groups.sporadic_record("O'N").name == "ON"
        with pytest.raises(UnsupportedFamily):
            groups.sporadic_record("Zz9")


class TestSpectra:
    def test_a1_7(self):
        mu = groups.spectrum_formulas(groups.classical("A", 1, 7))
        assert mu.mu == {7, 3, 4}

    def test_2g2_27(self):
        mu = groups.spectrum_formulas(groups.exceptional("2G2", 27))
        assert mu.mu == {6, 9, 26, 14, 19, 37}

    def test_2b2_32(self):
        mu = groups.spectrum_formulas(groups.exceptional("2B2", 32))
        assert mu.mu == {4, 31, 25, 41}

    def test_b2_3_is_antichain(self):
        mu = groups.spectrum_formulas(groups.classical("B", 2, 3))
        assert mu.mu == {5, 9, 12}

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            groups.spectrum_formulas(groups.exceptional("E8", 2))

    def test_kind_of_routes_exactly_the_closed_form_spectra(self, monkeypatch):
        descriptors = []
        for family in exceptional.diagram_families():
            for q in (2, 3, 4, 5, 7, 8, 9, 11, 27, 32, 125, 128, 2187):
                try:
                    descriptors.append(groups.parse_descriptor(f"{family}({q})"))
                except (InvalidField, NotSimple):
                    pass
        names = ["Tits", "M22", "M11", "J4", "B", "A4(2)", "2A4(3)", "C4(3)", "D7(5)", "2D5(2)", "2D2(3)", "Alt(9)", "Sym(7)"]
        descriptors += [groups.parse_descriptor(name) for name in names]
        closed = set()
        for d in descriptors:
            try:
                groups.spectrum_formulas(d)
                closed.add(d)
            except UnsupportedFamily:
                pass
        assert {str(d) for d in closed} >= {"A1(4)", "B2(3)", "B3(3)", "C3(3)", "2B2(8)", "2G2(27)", "2F4(2)'"}

        # from the descriptor alone: no formula, no spectrum, no order
        def refused(*args):
            raise AssertionError("kind_of evaluated a spectrum or an order")

        for name in ("spectrum_formulas", "SpectrumData", "order", "maximal_elements"):
            monkeypatch.setattr(groups, name, refused)
        for d in descriptors:
            assert (gkbuild.kind_of(d) in ("closed-form diagram", "Tits")) == (d in closed), d

    def test_antichain_enforced(self):
        d = groups.classical("A", 1, 5)
        with pytest.raises(SpectrumError):
            groups.SpectrumData(d, frozenset({3, 6}))

    def test_foreign_prime_rejected(self):
        d = groups.classical("A", 1, 5)
        with pytest.raises(SpectrumError):
            groups.SpectrumData(d, frozenset({7}))

    def test_antichain_everywhere(self):
        descriptors = [groups.classical("A", 1, q) for q in (4, 5, 7, 8, 9, 11, 13, 27)]
        descriptors += [groups.exceptional("2B2", q) for q in (8, 32, 128)]
        descriptors += [
            groups.exceptional("2G2", 27),
            groups.classical("B", 2, 3),
            groups.classical("B", 3, 3),
            groups.sporadic("Tits"),
        ]
        for d in descriptors:
            mu = groups.spectrum_formulas(d).mu
            for m in mu:
                assert not any(x != m and x % m == 0 for x in mu), d


class TestGkFromSpectrum:
    def test_2b2_8_edgeless(self):
        g = groups.gk_from_spectrum(groups.spectrum_formulas(groups.exceptional("2B2", 8)))
        assert g.vertices == (2, 5, 7, 13) and g.edges == ()

    def test_tits_edges(self):
        g = groups.gk_from_spectrum(groups.spectrum_formulas(groups.sporadic("Tits")))
        assert set(map(frozenset, g.edges)) == {frozenset({2, 3}), frozenset({2, 5})}

    def test_b3_3(self):
        g = groups.gk_from_spectrum(groups.spectrum_formulas(groups.classical("B", 3, 3)))
        assert g.vertices == (2, 3, 5, 7, 13)
        assert set(map(frozenset, g.edges)) == {
            frozenset({2, 3}), frozenset({2, 5}), frozenset({2, 7}),
        }

    def test_suzuki_components_are_cliques(self):
        # components away from 2 are cliques, for every closed-form spectrum
        descriptors = [groups.classical("A", 1, q) for q in (4, 5, 7, 9, 11, 27)]
        descriptors += [groups.classical("B", 2, q) for q in (3, 5, 7, 9)]
        descriptors += [groups.exceptional("2B2", q) for q in (8, 32)]
        descriptors += [groups.exceptional("2G2", 27), groups.sporadic("Tits")]
        for d in descriptors:
            g = groups.gk_from_spectrum(groups.spectrum_formulas(d))
            for comp in g.components():
                if 2 not in comp:
                    assert g.is_clique(comp), d

    def test_a1_three_disjoint_cliques(self):
        for q in (5, 7, 9, 11, 13, 27):
            d = groups.classical("A", 1, q)
            p, _ = groups.char_and_degree(q)
            k = 2 if q % 2 else 1
            parts = [
                nt.prime_set(p),
                nt.prime_set((q - 1) // k),
                nt.prime_set((q + 1) // k),
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert not parts[i] & parts[j]
            g = groups.gk_from_spectrum(groups.spectrum_formulas(d))
            comps = g.components()
            for part in parts:
                assert any(part == comp for comp in comps), (q, part, comps)


class TestSpectrumCoverage:
    def test_covers(self):
        d = groups.classical("A", 1, 7)
        assert groups.spectrum_covers(groups.spectrum_formulas(d))

    def test_partial_detected(self):
        d = groups.classical("A", 1, 7)
        partial = groups.SpectrumData(d, frozenset({7, 4}))
        assert not groups.spectrum_covers(partial)

    def test_both_directions(self):
        # _make skips the constructor's check, so a prime of mu outside |G|
        # reaches the cover test, which must see it
        d = groups.classical("A", 1, 7)
        assert not groups.spectrum_covers(groups.SpectrumData._make((d, frozenset({7, 3, 4, 11}))))
        assert not groups.spectrum_covers(groups.SpectrumData._make((d, frozenset({7, 3, 4 * 5**40}))))
        assert groups.spectrum_covers(groups.SpectrumData._make((d, frozenset({7**9, 3**20, 2**70}))))

    def test_alternating_symmetric_and_sporadic(self):
        for d, mu, covers in (
            (groups.alternating(7), {4, 5, 6, 7}, True),
            (groups.alternating(10), {5, 12}, False),
            (groups.symmetric(10), {5, 7, 12}, True),
            (groups.sporadic("M11"), {5, 6, 8, 11}, True),
            (groups.sporadic("Tits"), {12, 16, 20}, False),
        ):
            assert groups.spectrum_covers(groups.SpectrumData(d, frozenset(mu))) == covers, d

    def test_foreign_element_order_named(self):
        with pytest.raises(SpectrumError, match="element order 14 has a prime that does not divide"):
            groups.SpectrumData(groups.classical("A", 1, 5), frozenset({14, 5}))

    def test_alt_million_refused_without_its_order(self):
        # |Alt(10^6)| has 18.5 million bits and takes 9 s to compute; the
        # cover test reads the product of the primes up to 10^6 instead
        start = time.perf_counter()
        with pytest.raises(SpectrumError, match="do not cover"):
            groups.spectrum_from_json(json.dumps({"group": "Alt(1000000)", "mu": [2]}))
        assert time.perf_counter() - start < 5


class TestMaximalElements:
    def test_basic(self):
        assert groups.maximal_elements([2, 4, 8, 3]) == {8, 3}
        assert groups.maximal_elements([5, 4, 12, 6, 9]) == {5, 9, 12}
