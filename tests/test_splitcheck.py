import random
from itertools import combinations, compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gksplit import graph as graph_module, splitcheck
from gksplit.errors import InternalInconsistency, InvalidPartition, PreconditionViolated
from gksplit.gkbuild import altsym_partition, gk_altsym
from gksplit.groups import parse_descriptor
from gksplit.graph import Graph, is_clique_mask, is_independent_mask
from gksplit.splitcheck import (
    SplitPartition,
    _partition_from_2sat,
    is_split_degree,
    is_split_forbidden,
    m_index,
    specialize,
    validate_partition,
)

from oracles import (
    brute_chromatic,
    brute_is_split,
    generator_dominator,
    generator_is_clique_mask,
    generator_is_independent_mask,
    generator_is_split_degree,
    generator_validate_partition,
    graphs_on,
)
from test_graph import M22_SOLVABLE, complete, cycle, path, planted, pseudo_split_graphs, small_graphs


class TestMIndex:
    def test_k3(self):
        assert m_index(complete(3)) == 3

    def test_star(self):
        star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
        assert m_index(star) == 2

    def test_edgeless(self):
        assert m_index(Graph(range(5))) == 1

    def test_empty_graph(self):
        with pytest.raises(PreconditionViolated):
            m_index(Graph([]))


class TestDegreeRoute:
    def test_2k2_refuted(self):
        v = is_split_degree(Graph(range(4), [(0, 1), (2, 3)]))
        assert not v.split and v.forbidden.kind == "2K2"

    def test_small_graphs_always_split(self):
        for edges in graphs_on(3):
            v = is_split_degree(Graph(range(3), edges))
            assert v.split

    def test_p4(self):
        v = is_split_degree(path(4))
        assert v.split and v.m_index == 2
        ok, _ = validate_partition(path(4), v.partition)
        assert ok

    def test_empty_graph_is_split(self):
        v = is_split_degree(Graph([]))
        assert v.split and v.partition.clique == frozenset()

    def test_partition_always_validates(self):
        for n in range(7):
            for edges in graphs_on(n):
                v = is_split_degree(Graph(range(n), edges))
                if v.split:
                    ok, reason = validate_partition(Graph(range(n), edges), v.partition)
                    assert ok, (n, edges, reason)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_degree_order_splits_at_m(self, data):
        # On a split graph the top m vertices of every non-increasing degree
        # order form a clique and the rest an independent set, so the degree
        # route needs no search over ways of breaking ties.
        n = data.draw(st.integers(1, 9))
        k = data.draw(st.integers(0, n))
        edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges += [(u, v) for u in range(k, n) for v in range(k) if data.draw(st.booleans())]
        g = Graph(range(n), edges)
        drawn = data.draw(st.permutations(range(n)))
        order = sorted(drawn, key=g.degree, reverse=True)  # stable: ties keep the drawn order
        m = m_index(g)
        assert g.is_clique(order[:m]) and g.is_independent(order[m:])


class TestForbiddenRoute:
    def test_c4_c5(self):
        assert not is_split_forbidden(cycle(4)).split
        assert not is_split_forbidden(cycle(5)).split

    def test_k5_minus_matching(self):
        g = complete(5)
        trimmed = Graph(g.vertices, [e for e in g.edges if e not in ((0, 1), (2, 3))])
        assert is_split_forbidden(trimmed).split == is_split_degree(trimmed).split

    def test_partition_extraction_independent(self):
        v = is_split_forbidden(path(4))
        assert v.split
        ok, _ = validate_partition(path(4), v.partition)
        assert ok


    @given(small_graphs(9))
    @settings(max_examples=300, deadline=None)
    def test_both_routes_agree_with_brute_force(self, g):
        a, b = is_split_degree(g), is_split_forbidden(g)
        assert a.split == b.split == brute_is_split(g.vertices, g.edges)
        if b.split:
            ok, reason = validate_partition(g, b.partition)
            assert ok, reason

    @given(pseudo_split_graphs())
    @settings(max_examples=200, deadline=None)
    def test_partition_validates_on_pseudo_split_graphs(self, g):
        b = is_split_forbidden(g)
        assert b.split == brute_is_split(g.vertices, g.edges)
        if b.split:
            ok, reason = validate_partition(g, b.partition)
            assert ok, reason


class TestValidate:
    def test_k3_full_clique(self):
        g = complete(3)
        ok, reason = validate_partition(g, SplitPartition(frozenset(g.vertices), frozenset()))
        assert ok and reason is None

    def test_2k2_never_valid(self):
        g = Graph(range(4), [(0, 1), (2, 3)])
        vs = list(g.vertices)
        for size in range(5):
            for c in combinations(vs, size):
                part = SplitPartition(frozenset(c), frozenset(vs) - set(c))
                ok, reason = validate_partition(g, part)
                assert not ok and reason

    def test_special_flag(self):
        g = path(4)  # 0-1-2-3
        part = SplitPartition(frozenset({1, 2}), frozenset({0, 3}), special=True)
        ok, _ = validate_partition(g, part)
        assert ok

    def test_special_violation_reported(self):
        g = complete(3)
        part = SplitPartition(frozenset({0, 1}), frozenset({2}), special=True)
        ok, reason = validate_partition(g, part)
        assert not ok and "adjacent to all" in reason

    def test_cover_and_overlap(self):
        g = complete(3)
        ok, reason = validate_partition(g, SplitPartition(frozenset({0}), frozenset({1})))
        assert not ok and "cover" in reason
        ok, reason = validate_partition(g, SplitPartition(frozenset({0, 1}), frozenset({1, 2})))
        assert not ok and "overlap" in reason


class TestSpecialize:
    def test_absorbs_dominating_vertex(self):
        g = complete(3)
        out = specialize(g, SplitPartition(frozenset({0, 1}), frozenset({2})))
        assert out.clique == {0, 1, 2} and out.special

    def test_already_special_unchanged(self):
        g = path(4)
        part = SplitPartition(frozenset({1, 2}), frozenset({0, 3}))
        out = specialize(g, part)
        assert out.clique == part.clique and out.special

    def test_invalid_input_rejected(self):
        star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(InvalidPartition):
            specialize(star, SplitPartition(frozenset(), frozenset({1, 2, 3})))

    @pytest.mark.parametrize("n", range(7))
    def test_special_flag_both_ways_exhaustive(self, n):
        """Each route's special flag is the definition, true or false, on
        every split graph of up to 6 vertices; ``specialize`` of either
        partition is special, keeps the old clique and moves one vertex,
        or none when the partition is special already."""
        for edge_list in graphs_on(n):
            g = Graph(range(n), edge_list)
            edges = {frozenset(e) for e in edge_list}

            def special(p):
                return all(any(frozenset((u, c)) not in edges for c in p.clique) for u in p.independent)

            for verdict in (is_split_degree(g), is_split_forbidden(g)):
                if not verdict.split:
                    continue
                p = verdict.partition
                assert p.special == special(p), edge_list
                out = specialize(g, p)
                assert validate_partition(g, out) == (True, None) and out.special and special(out), edge_list
                assert p.clique <= out.clique and len(out.clique - p.clique) == (0 if p.special else 1), edge_list


class TestPartitionMasks:
    """Both routes build their partition from a clique-side bitset, so they
    turn no label set into a mask; ``validate_partition`` masks at most twice."""

    @pytest.fixture
    def masks(self, monkeypatch):
        calls = []

        def counting(self, subset):
            calls.append(subset)
            return real(self, subset)

        real = Graph.mask
        monkeypatch.setattr(Graph, "mask", counting)
        return calls

    @pytest.mark.parametrize("route", [is_split_degree, is_split_forbidden, _partition_from_2sat])
    def test_routes_mask_no_label_set(self, route, masks):
        g = gk_altsym(parse_descriptor("Alt(300)"))
        masks.clear()
        assert route(g) is not None
        assert masks == []

    @pytest.mark.parametrize("special", [False, True])
    def test_validate_masks_at_most_twice(self, special, masks):
        g = gk_altsym(parse_descriptor("Alt(300)"))
        p = is_split_degree(g).partition
        p = specialize(g, p) if special else SplitPartition(p.clique, p.independent)
        masks.clear()
        assert validate_partition(g, p) == (True, None)
        assert len(masks) <= 2


class TestAgreementSmall:
    def test_exhaustive_up_to_five(self):
        for n in range(6):
            for edges in graphs_on(n):
                g = Graph(range(n), edges)
                a = is_split_degree(g).split
                b = is_split_forbidden(g).split
                c = brute_is_split(g.vertices, g.edges)
                assert a == b == c, (n, edges)


class TestTwoSat:
    """The 2-SAT decides the forbidden route: ``Graph.find_forbidden`` solves
    it first, checks a solution against the rows and scans for a witness
    only when the clauses are unsatisfiable.  One solve per graph serves
    both routes, and a forged solution raises instead of giving a verdict."""

    @pytest.mark.parametrize("n", range(7))
    def test_exhaustive_against_brute_force(self, n):
        for edges in graphs_on(n):
            g = Graph(range(n), edges)
            p = _partition_from_2sat(g)
            assert (p is not None) == brute_is_split(range(n), edges), edges
            if p is not None:
                ok, reason = validate_partition(g, p)
                assert ok, (edges, reason)

    @pytest.mark.parametrize("kind", ["Alt", "Sym"])
    def test_partition_validates_at_degree_2000(self, kind):
        g = gk_altsym(parse_descriptor(f"{kind}(2000)"))
        ok, reason = validate_partition(g, _partition_from_2sat(g))
        assert ok, reason

    @pytest.mark.parametrize("n", range(7))
    def test_decides_as_the_scan_does(self, n):
        for edges in graphs_on(n):
            g = Graph(range(n), edges)
            scan = Graph(range(n), edges)._scan_forbidden()
            assert g.find_forbidden() == scan, edges
            assert (g.clique_side() is not None) == (scan is None), edges

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(rows)
            return real(rows)

        real = graph_module._split_mask
        monkeypatch.setattr(graph_module, "_split_mask", counting)
        return calls

    @pytest.mark.parametrize("kind", [None, "2K2", "C5"])
    def test_one_solve_across_both_routes(self, kind, solves):
        g = planted(kind)
        degree, forbidden = is_split_degree(g), is_split_forbidden(g)
        assert degree.split == forbidden.split == (kind is None)
        assert g.find_forbidden() == forbidden.forbidden
        assert len(solves) == 1

    @pytest.mark.parametrize(
        "kind, forge",
        [
            (None, lambda real, rows: real(rows) ^ 1),
            (None, lambda real, rows: None),
            ("2K2", lambda real, rows: 0b111111),
        ],
        ids=["vertex-0-on-the-wrong-side", "split-called-unsatisfiable", "clique-side-for-2K2"],
    )
    def test_forged_solution_raises(self, kind, forge, monkeypatch):
        real = graph_module._split_mask
        monkeypatch.setattr(graph_module, "_split_mask", lambda rows: forge(real, rows))
        g = planted(kind)
        with pytest.raises(InternalInconsistency):
            is_split_forbidden(g)
        with pytest.raises(InternalInconsistency):
            g.find_forbidden()
        if kind is not None:
            with pytest.raises(InternalInconsistency):
                is_split_degree(g)


def random_split_graph(rng, n):
    """A random split graph: clique + independent set + random cross edges."""
    k = rng.randrange(n + 1)
    clique = list(range(k))
    rest = list(range(k, n))
    edges = [(u, v) for u, v in combinations(clique, 2)]
    for v in rest:
        for u in clique:
            if rng.random() < 0.4:
                edges.append((u, v))
    return Graph(range(n), edges)


class TestProperties:
    @given(small_graphs())
    @settings(max_examples=200, deadline=None)
    def test_complement_closure(self, g):
        assert is_split_degree(g).split == is_split_degree(g.complement()).split

    @given(small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_hereditary(self, g):
        if not is_split_degree(g).split:
            return
        vs = list(g.vertices)
        rng = random.Random(len(vs) * 31 + len(g.edges))
        for _ in range(3):
            sub = [v for v in vs if rng.random() < 0.6]
            assert is_split_degree(g.induced(sub)).split

    def test_disconnected_split_shape(self):
        # at most one component of a split graph contains an edge
        rng = random.Random(404)
        for _ in range(200):
            g = random_split_graph(rng, rng.randrange(2, 9))
            v = is_split_degree(g)
            if v.split:
                with_edges = [c for c in g.components() if any(
                    g.adjacent(u, w) for u, w in combinations(sorted(c, key=str), 2)
                )]
                assert len(with_edges) <= 1

    def test_m_index_is_chromatic_number_for_split(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_split_graph(rng, rng.randrange(1, 9))
            v = is_split_degree(g)
            assert v.split
            assert v.m_index == brute_chromatic(g.vertices, g.edges), g.edges


class TestM22:
    def test_degree_and_forbidden_agree(self):
        a = is_split_degree(M22_SOLVABLE)
        b = is_split_forbidden(M22_SOLVABLE)
        assert not a.split and not b.split
        assert set(a.forbidden.vertices) == {3, 5, 7, 11}


class TestAgainstGeneratorForms:
    """The degree route, ``validate_partition`` and the mask tests answer as
    their generator forms in ``oracles`` (one loop over the set bits each) on
    every labelled graph on 6 vertices and on the Alt/Sym prime graphs up to
    degree 500, and the special test is fed symmetric rows only."""

    @pytest.fixture(autouse=True)
    def symmetric_rows_only(self, monkeypatch):
        seen = set()

        def checked(rows, side, rest):
            if rows not in seen:
                assert all(rows[j] >> i & 1 for i, row in enumerate(rows) for j in graph_module.bits(row)), rows
                seen.add(rows)
            return real(rows, side, rest)

        real = splitcheck._dominator
        monkeypatch.setattr(splitcheck, "_dominator", checked)
        return seen

    @staticmethod
    def agree(g, sides):
        """The rewritten checks against the generator forms on g, with the
        clique side of each bitset in sides, its complement the rest."""
        vs, rows, full = g.vertices, g.rows, (1 << g.n) - 1
        split, m, clique, indep, special = generator_is_split_degree(vs, rows)
        v = is_split_degree(g)
        assert (v.split, v.m_index) == (split, m), (vs, rows)
        if g.n:
            assert m_index(g) == m
        if split:
            assert v.partition == (clique, indep, special), (vs, rows)
        for side in sides:
            rest = full & ~side
            assert is_clique_mask(rows, side) == generator_is_clique_mask(rows, side), (rows, side)
            assert is_independent_mask(rows, side) == generator_is_independent_mask(rows, side), (rows, side)
            assert splitcheck._dominator(rows, side, rest) == generator_dominator(rows, side, rest), (rows, side)
            c = frozenset(compress(vs, graph_module._flags(side)))
            for flag in (False, True):
                got = validate_partition(g, SplitPartition(c, frozenset(vs) - c, flag))
                assert got == generator_validate_partition(vs, rows, c, frozenset(vs) - c, flag), (rows, side, flag)
        # a first vertex in both sides, a last one in neither
        for p in ((c, frozenset(vs) - c | set(vs[:1])), (c, frozenset(vs) - c - set(vs[-1:]))):
            assert validate_partition(g, SplitPartition(*p)) == generator_validate_partition(vs, rows, *p, False)

    def test_every_graph_on_six_vertices(self, symmetric_rows_only):
        fed = set()
        for k, edges in enumerate(graphs_on(6)):
            g = Graph(range(6), edges)
            # one side per graph and its complement: each of the 64 sides
            # meets 1024 graphs over the corpus
            self.agree(g, (k % 64, 63 ^ k % 64))
            fed.add(g.rows)
        assert fed == symmetric_rows_only

    def test_alt_sym_to_degree_500(self, symmetric_rows_only):
        fed = set()
        for n in range(2, 501):
            part = altsym_partition(n)
            for kind in ("Sym", "Alt") if n >= 5 else ("Sym",):
                g = gk_altsym(parse_descriptor(f"{kind}({n})"))
                side = g.mask(part.clique)
                # the partition's clique side, then one vertex moved across
                # it each way: the first of I joins C, the first of C leaves
                self.agree(g, (side, (side | side + 1) & (1 << g.n) - 1, side & side - 1))
                fed.add(g.rows)
        assert fed == symmetric_rows_only
