import json
import re
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gksplit import gkbuild, graph as graph_module, groups
from gksplit.cli import _write_graph
from gksplit.errors import InternalInconsistency, LoopEdge, MalformedInput, UnknownVertex
from gksplit.graph import (
    ClassLabel,
    Graph,
    label_key,
    same_class_graph,
    witness_edges,
)
from gksplit.splitcheck import is_split_degree, is_split_forbidden

from oracles import (
    adjacency,
    brute_first_forbidden,
    brute_has_forbidden,
    brute_quad_starts,
    graphs_on,
    head_pair_quotient,
    reference_compact,
    reference_components,
    reference_edges,
    reference_graph_dot,
    reference_graph_json,
    reference_graph_table,
)


def small_graphs(max_n=7):
    """Hypothesis strategy: a random labeled graph on up to max_n vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        verts = list(range(n))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    edges.append((i, j))
        return Graph(verts, edges)

    return build()


def pseudo_split_graphs(max_n=9):
    """Hypothesis strategy: a clique C, an independent set I with random edges
    to C, and, when drawn, an induced C5 joined to all of C, on shuffled labels.

    Such a graph has no induced 2K2 or C4, so its only possible witness is
    the C5; one drawn extra edge may spoil that and make any witness appear.
    """

    @st.composite
    def build(draw):
        five = draw(st.booleans())
        n = draw(st.integers(5 if five else 0, max_n))
        labels = draw(st.permutations(range(n)))
        ring = labels[:5] if five else []
        rest = labels[len(ring):]
        k = draw(st.integers(0, len(rest)))
        clique, indep = rest[:k], rest[k:]
        edges = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
        edges += [(u, v) for u in clique for v in indep if draw(st.booleans())]
        edges += [(u, v) for u in clique for v in ring]
        edges += [(ring[i], ring[(i + 1) % 5]) for i in range(len(ring))]
        if n >= 2 and draw(st.booleans()):
            u, v = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
            edges.append((u, v))
        return Graph(labels, edges)

    return build()


#: The witnesses that clique_first_graphs puts on the top labels, as edges
#: on 0, 1, ...: a C5, a 2K2, a C4, and a C5 beside an edge.
_TOP_WITNESSES = {
    "C5": [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
    "2K2": [(0, 1), (2, 3)],
    "C4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "C5+edge": [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6)],
}


def clique_first_graphs(max_clique=5, max_hanging=3):
    """Hypothesis strategy: a large clique on the lowest labels, vertices
    with random edges to it next, and a witness on the top labels, every one
    of its vertices joined to the whole clique.

    Without the extra edge one draw may add, the top labels hold every
    witness, so a scan that starts at the bottom meets the clique first and
    the witness last.
    """

    @st.composite
    def build(draw):
        k = draw(st.integers(1, max_clique))
        m = draw(st.integers(0, max_hanging))
        top = _TOP_WITNESSES[draw(st.sampled_from(sorted(_TOP_WITNESSES)))]
        base, size = k + m, 1 + max(v for e in top for v in e)
        n = base + size
        edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges += [(u, v) for u in range(k) for v in range(k, base) if draw(st.booleans())]
        edges += [(u, v) for u in range(k) for v in range(base, n)]
        edges += [(base + u, base + v) for u, v in top]
        if draw(st.booleans()):
            u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            edges.append((u, v))
        return Graph(range(n), edges)

    return build()


def path(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


M22_SOLVABLE = Graph([2, 3, 5, 7, 11], [(11, 5), (5, 2), (2, 3), (2, 7), (3, 7)])


class TestConstruction:
    def test_edgeless(self):
        g = Graph(["a", "b"], []) if False else Graph([1, 2], [])
        assert g.n == 2 and g.edges == ()

    def test_k1(self):
        assert Graph([5]).n == 1

    def test_triangle(self):
        g = complete(3)
        assert len(g.edges) == 3 and g.is_clique(g.vertices)

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            Graph([1, 2], [(1, 3)])

    def test_loop(self):
        with pytest.raises(LoopEdge):
            Graph([1, 2], [(1, 1)])

    def test_duplicate_edges_collapse(self):
        g = Graph([1, 2], [(1, 2), (2, 1)])
        assert len(g.edges) == 1


class TestInduced:
    def test_k3_restriction(self):
        assert len(complete(3).induced([0, 1]).edges) == 1

    def test_matching_restriction(self):
        g = Graph([0, 1, 2, 3], [(0, 1), (2, 3)])
        assert g.induced([0, 2]).edges == ()

    def test_c5_any_four_is_path(self):
        # every 4-subset of a pentagon induces a path on 4 vertices
        g = cycle(5)
        for drop in range(5):
            sub = g.induced([v for v in range(5) if v != drop])
            degs = sub.degree_sequence()
            assert degs == [2, 2, 1, 1]

    def test_unknown_subset(self):
        with pytest.raises(UnknownVertex):
            complete(3).induced([7])


class TestNeighborhoods:
    def test_isolated(self):
        g = Graph([1, 2], [])
        assert g.closed_nbhd(1) == {1}

    def test_star_center(self):
        star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
        assert star.closed_nbhd(0) == {0, 1, 2, 3}

    def test_path_leaf(self):
        assert path(3).closed_nbhd(0) == {0, 1}


class TestComponents:
    def test_connected(self):
        assert len(path(4).components()) == 1

    def test_two_matchings(self):
        g = Graph(range(4), [(0, 1), (2, 3)])
        assert len(g.components()) == 2

    def test_edgeless(self):
        assert len(Graph(range(4)).components()) == 4


class TestCliqueIndependent:
    def test_empty_vacuous(self):
        g = complete(3)
        assert g.is_clique([]) and g.is_independent([])

    def test_k3(self):
        g = complete(3)
        assert g.is_clique(g.vertices) and not g.is_independent(g.vertices)

    def test_unknown_vertex(self):
        g = complete(3)
        with pytest.raises(UnknownVertex):
            g.is_clique([7])
        with pytest.raises(UnknownVertex):
            g.is_independent([7])

    def test_matching_transversal(self):
        g = Graph(range(4), [(0, 1), (2, 3)])
        assert g.is_independent([0, 2])


def twinned_graph(rng, class_labels):
    """A seeded random graph on 0 to 40 vertices: a random base graph whose
    vertices are blown up into runs of one to three true twins, labelled by
    distinct ints or by distinct ClassLabels with or without members."""
    size = rng.randrange(41)
    runs = []
    while sum(runs) < size:
        runs.append(min(rng.randint(1, 3), size - sum(runs)))
    base = [[0] * len(runs) for _ in runs]
    density = rng.random()
    for u, v in combinations(range(len(runs)), 2):
        base[u][v] = base[v][u] = rng.random() < density
    of = [u for u, run in enumerate(runs) for _ in range(run)]
    if class_labels:
        labels = [
            ClassLabel(f"R{k}", tuple(sorted(rng.sample(range(2, 99), rng.randrange(3)))))
            for k in rng.sample(range(100), size)
        ]
    else:
        labels = rng.sample(range(1000), size)
    edges = [(labels[i], labels[j]) for i, j in combinations(range(size), 2) if of[i] == of[j] or base[of[i]][of[j]]]
    return Graph(labels, edges)


def assert_head_pair_quotient(g):
    cf = g.compact_form()
    labels, rows = head_pair_quotient(g.vertices, g.rows)
    assert [(c.name, c.members) for c in cf.quotient.vertices] == labels
    assert cf.quotient.rows == tuple(rows)


class TestCompactForm:
    def test_complete_collapses(self):
        cf = complete(4).compact_form()
        assert cf.quotient.n == 1
        (label,) = cf.quotient.vertices
        assert label.members == (0, 1, 2, 3)

    def test_edgeless_pair_stays(self):
        cf = Graph([1, 2]).compact_form()
        assert cf.quotient.n == 2

    def test_m22_path(self):
        cf = M22_SOLVABLE.compact_form()
        contents = {tuple(sorted(c)) for c in cf.class_contents.values()}
        assert contents == {(11,), (5,), (2,), (3, 7)}
        q = cf.quotient
        assert q.degree_sequence() == [2, 2, 1, 1]
        by_members = {l.members: l for l in q.vertices}
        assert q.adjacent(by_members[(11,)], by_members[(5,)])
        assert q.adjacent(by_members[(5,)], by_members[(2,)])
        assert q.adjacent(by_members[(2,)], by_members[(3, 7)])

    # the transpose block in bytes: 1 and 3 give one head per block, 100 and
    # 5000 several heads with a ragged last block; None keeps the default
    @pytest.mark.parametrize("block", [None, 1, 3, 100])
    @pytest.mark.parametrize("class_labels", [False, True], ids=["int", "ClassLabel"])
    def test_quotient_rows_against_head_pairs(self, monkeypatch, block, class_labels):
        if block is not None:
            monkeypatch.setattr(graph_module, "_TRANSPOSE_BYTES", block)
        for seed in range(150):
            assert_head_pair_quotient(twinned_graph(Random(seed), class_labels))

    @pytest.mark.parametrize("kind", ["symmetric", "alternating"])
    def test_altsym_quotient_rows_against_head_pairs_to_3000(self, kind):
        make = groups.symmetric if kind == "symmetric" else groups.alternating
        for n in range(2 if kind == "symmetric" else 5, 3001):
            assert_head_pair_quotient(gkbuild.gk_altsym(make(n)))

    @pytest.mark.parametrize("block", [1, 3, 5000])
    def test_altsym_quotient_rows_in_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(graph_module, "_TRANSPOSE_BYTES", block)
        for n in (5, 6, 7, 100, 997, 3000):
            for make in (groups.symmetric, groups.alternating):
                assert_head_pair_quotient(gkbuild.gk_altsym(make(n)))

    @given(small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, g):
        quotient = g.compact_form().quotient
        again = quotient.compact_form()
        assert all(len(c) == 1 for c in again.class_contents.values())

    @given(small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_twin_classes_are_cliques(self, g):
        cf = g.compact_form()
        for members in cf.class_contents.values():
            assert g.is_clique(members)

    @given(small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_component_count_preserved(self, g):
        cf = g.compact_form()
        assert len(cf.quotient.components()) == len(g.components())


class TestForbidden:
    def test_c5_found(self):
        w = cycle(5).find_forbidden()
        assert w.kind == "C5" and set(w.vertices) == {0, 1, 2, 3, 4}

    def test_k4_clean(self):
        assert complete(4).find_forbidden() is None

    def test_m22_matching(self):
        w = M22_SOLVABLE.find_forbidden()
        assert w.kind == "2K2" and set(w.vertices) == {3, 5, 7, 11}
        for u, v in witness_edges(w):
            assert M22_SOLVABLE.adjacent(u, v)

    def test_c4(self):
        w = cycle(4).find_forbidden()
        assert w.kind == "C4"

    @given(small_graphs(6))
    @settings(max_examples=200, deadline=None)
    def test_against_brute_scan(self, g):
        got = g.find_forbidden()
        expect = brute_has_forbidden(g.vertices, g.edges)
        assert (got is not None) == expect
        if got is not None:
            sub = g.induced(got.vertices)
            claimed = set(map(frozenset, witness_edges(got)))
            assert set(map(frozenset, sub.edges)) == claimed


    @given(small_graphs(9))
    @settings(max_examples=300, deadline=None)
    def test_first_witness_matches_lexicographic_scan(self, g):
        got = g.find_forbidden()
        got = None if got is None else (got.kind, got.vertices)
        assert got == brute_first_forbidden(g.vertices, g.edges)

    @given(pseudo_split_graphs())
    @settings(max_examples=300, deadline=None)
    def test_first_witness_on_pseudo_split_graphs(self, g):
        got = g.find_forbidden()
        got = None if got is None else (got.kind, got.vertices)
        assert got == brute_first_forbidden(g.vertices, g.edges)

    @given(clique_first_graphs())
    @settings(max_examples=200, deadline=None)
    def test_first_witness_on_clique_first_graphs(self, g):
        got = g.find_forbidden()
        got = None if got is None else (got.kind, got.vertices)
        assert got == brute_first_forbidden(g.vertices, g.edges)


class TestStartsQuad:
    """The pretest of the quad scan: is a the smallest vertex of some
    induced 2K2 or C4?"""

    def test_exhaustive_up_to_six_vertices(self):
        for n in range(7):
            for edges in graphs_on(n):
                rows = [0] * n
                for u, v in edges:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                starts = brute_quad_starts(range(n), edges)
                assert [graph_module._starts_quad(rows, a) for a in range(n)] == [a in starts for a in range(n)], edges

    def test_pretest_without_a_quad_is_an_inconsistency(self, monkeypatch):
        assert cycle(5).find_forbidden().kind == "C5"
        monkeypatch.setattr(graph_module, "_starts_quad", lambda rows, a: True)
        with pytest.raises(InternalInconsistency):
            cycle(5).find_forbidden()


def planted(kind=None):
    """A split graph, clique 0..5 and independent side 6..11, with a 2K2 or
    a C5 planted on the independent side when kind names one.  Around the C5
    every clique vertex sees all five cycle vertices, so the graph has no
    2K2 and no C4."""
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)] + [(11, 0), (11, 1)]
    if kind != "C5":
        edges += [(i, 0) for i in range(6, 11)] + ([(6, 7), (9, 10)] if kind else [])
    else:
        edges += [(i, j) for i in range(6, 11) for j in range(6)]
        edges += [(6, 7), (7, 8), (8, 9), (9, 10), (10, 6)]
    return Graph(range(12), edges)


class TestWitnessMemo:
    """find_forbidden scans each non-split graph once, and a split graph
    never, as its 2-SAT decides first; both split routes share the result."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(rows)
            return real(rows)

        real = graph_module._first_quad
        monkeypatch.setattr(graph_module, "_first_quad", counting)
        return calls

    @pytest.mark.parametrize("kind", ["2K2", "C5"])
    def test_both_routes_share_one_scan(self, kind, scans):
        g = planted(kind)
        degree, forbidden = is_split_degree(g), is_split_forbidden(g)
        assert not degree.split and not forbidden.split
        assert degree.forbidden == forbidden.forbidden == g.find_forbidden()
        assert degree.forbidden.kind == kind
        assert len(scans) == 1

    def test_split_graph_keeps_none(self, scans):
        g = planted()
        assert is_split_forbidden(g).split
        assert [g.find_forbidden() for _ in range(3)] == [None] * 3
        assert len(scans) == 0

    def test_derived_graphs_scan_on_their_own(self, scans):
        g = cycle(4)
        assert g.find_forbidden().kind == "C4"
        assert g.complement().find_forbidden().kind == "2K2"
        assert g.induced([0, 1, 2]).find_forbidden() is None
        assert g.find_forbidden().kind == "C4"
        assert len(scans) == 2


class TestSerialization:
    def test_json_round_trip_ints(self):
        g = M22_SOLVABLE
        assert Graph.from_json(g.to_json()) == g

    def test_json_round_trip_classes(self):
        g = Graph(
            [ClassLabel("R4", (5,)), ClassLabel("p", (2,)), 3],
            [(ClassLabel("R4", (5,)), 3)],
        )
        assert Graph.from_json(g.to_json()) == g

    @pytest.mark.parametrize(
        "edges, error, text",
        [
            ([[1, 1]], LoopEdge, "loop at 1"),
            ([[1, 2], [1, 3]], UnknownVertex, "edge endpoint 3 is not a vertex"),
            ([[1, {"class": {"name": "R"}}]], UnknownVertex, "edge endpoint ClassLabel('R') is not a vertex"),
            ([[True, 2]], MalformedInput, "cannot decode vertex label True"),
            ([[1.0, 2]], MalformedInput, "cannot decode vertex label 1.0"),
            ([[[1], 2]], MalformedInput, "cannot decode vertex label [1]"),
            ([[1, 2, 3]], MalformedInput, "too many values to unpack"),
            ([[1, 3], [2, True]], MalformedInput, "cannot decode vertex label True"),
        ],
        ids=["loop", "unknown-int", "unknown-class", "bool", "float", "list", "triple", "decoded-before-checked"],
    )
    def test_int_document_errors(self, edges, error, text):
        with pytest.raises(error, match=re.escape(text)):
            Graph.from_json(json.dumps({"vertices": [1, 2], "edges": edges}))

    def test_schema_field(self):
        doc = json.loads(complete(2).to_json())
        assert doc["schema"] == "gksplit/graph/1"

    def test_dot_stable(self):
        text = M22_SOLVABLE.to_dot()
        assert text == M22_SOLVABLE.to_dot()
        assert '"11" -- "5"' in text or '"5" -- "11"' in text

    def test_same_class_graph(self):
        a = Graph([ClassLabel("x", (2, 3)), ClassLabel("y", (5,))], [])
        b = Graph([ClassLabel("u", (5,)), ClassLabel("w", (2, 3))], [])
        assert same_class_graph(a, b)
        c = Graph(
            [ClassLabel("u", (5,)), ClassLabel("w", (2, 3))],
            [(ClassLabel("u", (5,)), ClassLabel("w", (2, 3)))],
        )
        assert not same_class_graph(a, c)


#: Vertex labels that collide in every way the codecs care about: small ints,
#: classes with and without members, names with quotes, newlines, non-ASCII
#: text and digits (a class "2" of {2} merges with the vertex 2).
mixed_labels = st.one_of(
    st.integers(-2, 12),
    st.builds(
        ClassLabel,
        st.text(alphabet='R2"\né \\', max_size=3),
        st.lists(st.integers(0, 12), max_size=3).map(tuple),
    ),
)


@st.composite
def mixed_graphs(draw, max_n=12):
    """(vertices, edges) on up to max_n mixed labels, edges shuffled and
    oriented at random."""
    vs = draw(st.lists(mixed_labels, max_size=max_n, unique=True))
    edges = [
        (u, v) if draw(st.booleans()) else (v, u)
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
        if draw(st.booleans())
    ]
    return vs, draw(st.permutations(edges))


def _plain(label):
    return label.name, label.members


EDGELESS_CLASSES = ([ClassLabel("R1"), ClassLabel('a"b\né'), ClassLabel("R2", ()), 5], [])


class TestAgainstReference:
    @given(mixed_graphs())
    @example(([], []))
    @example(EDGELESS_CLASSES)
    @settings(max_examples=300, deadline=None)
    def test_construction(self, data):
        g = Graph(*data)
        assert (list(g.vertices), list(g.edges)) == reference_edges(*data)

    @given(mixed_graphs())
    @example(([], []))
    @example(EDGELESS_CLASSES)
    @example(([2, ClassLabel("R\u00e9", (3, 5))], [(ClassLabel("R\u00e9", (3, 5)), 2)]))
    @settings(max_examples=300, deadline=None)
    def test_to_json(self, data):
        g = Graph(*data)
        pieces = []
        assert g.to_json(pieces.append) is None
        assert "".join(pieces) == g.to_json() == reference_graph_json(g)

    @given(mixed_graphs())
    @example(([], []))
    @example(EDGELESS_CLASSES)
    @example(([2, ClassLabel("R\u00e9", (3, 5))], [(ClassLabel("R\u00e9", (3, 5)), 2)]))
    @settings(max_examples=300, deadline=None)
    def test_to_dot(self, data):
        g = Graph(*data)
        pieces = []
        assert g.to_dot(pieces.append) is None
        assert "".join(pieces) == g.to_dot() == reference_graph_dot(g)

    @given(mixed_graphs())
    @example(([], []))
    @example(EDGELESS_CLASSES)
    @example(([2, ClassLabel("R\u00e9", (3, 5))], [(ClassLabel("R\u00e9", (3, 5)), 2)]))
    @settings(max_examples=300, deadline=None)
    def test_graph_table(self, data):
        g = Graph(*data)
        pieces = []
        _write_graph(g, "table", "title", pieces.append)
        assert "".join(pieces) == reference_graph_table(g, "title")
        assert repr(g) == f"Graph({len(g.vertices)} vertices, {len(g.edges)} edges)"

    @given(mixed_graphs())
    @example(([], []))
    @example(EDGELESS_CLASSES)
    @example(([2, ClassLabel("2", (2,)), 3], [(2, 3)]))
    @example(([2, ClassLabel("2", (2,)), 3], [(2, 3), (ClassLabel("2", (2,)), 3)]))
    # classes "11" < "13" < "2" < "3" in label order, heads 2 < 3 < 11 < 13
    @example(([2, 3, 11, 13], [(2, 11), (11, 13), (13, 3)]))
    @example(([5, 7, 11], [(5, 7), (5, 11), (7, 11)]))  # a single class
    @settings(max_examples=300, deadline=None)
    def test_compact_form(self, data):
        try:
            vertices, edges, class_map, contents = reference_compact(Graph(*data))
        except ValueError:
            with pytest.raises(MalformedInput):
                Graph(*data).compact_form()
            return
        cf = Graph(*data).compact_form()
        assert [_plain(c) for c in cf.quotient.vertices] == vertices
        assert [(_plain(a), _plain(b)) for a, b in cf.quotient.edges] == edges
        assert {v: _plain(c) for v, c in cf.class_map.items()} == class_map
        assert {_plain(c): s for c, s in cf.class_contents.items()} == contents

    @given(mixed_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_clique_and_independent(self, graph, data):
        g = Graph(*graph)
        sub = data.draw(st.lists(st.sampled_from(g.vertices), unique=True) if g.n else st.just([]))
        pairs = [(u, v) for i, u in enumerate(sub) for v in sub[i + 1 :]]
        edges = {frozenset(e) for e in g.edges}
        assert g.is_clique(sub) == all(frozenset(p) in edges for p in pairs)
        assert g.is_independent(sub) == all(frozenset(p) not in edges for p in pairs)


class TestRowAccessors:
    """Every label-level view of the bitset rows against the plain edge list."""

    @given(mixed_graphs(), st.data())
    @example(([], []), None)
    @settings(max_examples=300, deadline=None)
    def test_against_reference(self, graph, data):
        g = Graph(*graph)
        vs, es = reference_edges(*graph)
        adj = adjacency(vs, es)
        assert list(g.edges) == es
        for v in vs:
            assert g.neighbors(v) == adj[v] and g.closed_nbhd(v) == adj[v] | {v}
            assert g.degree(v) == len(adj[v])
            assert [g.adjacent(v, w) for w in vs] == [w in adj[v] for w in vs]
        assert g.degree_sequence() == sorted((len(adj[v]) for v in vs), reverse=True)
        assert g.components() == reference_components(vs, es)
        others = [(u, v) for u, v in combinations(vs, 2) if v not in adj[u]]
        assert (list(g.complement().vertices), list(g.complement().edges)) == reference_edges(vs, others)
        if data is None:
            return
        sub = data.draw(st.lists(st.sampled_from(vs), unique=True) if vs else st.just([]))
        pairs = list(combinations(sub, 2))
        assert g.is_clique(sub) == all(v in adj[u] for u, v in pairs)
        assert g.is_independent(sub) == all(v not in adj[u] for u, v in pairs)
        h = g.induced(sub)
        assert (list(h.vertices), list(h.edges)) == reference_edges(sub, [(u, v) for u, v in pairs if v in adj[u]])
        shuffled = Graph(data.draw(st.permutations(vs)), [(v, u) for u, v in data.draw(st.permutations(es))])
        assert shuffled == g and hash(shuffled) == hash(g)
        if es:
            assert Graph(vs, es[1:]) != g

    @given(mixed_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_unknown_vertex(self, graph, data):
        g = Graph(*graph)
        stranger = data.draw(mixed_labels.filter(lambda x: x not in g))
        some = g.vertices[0] if g.n else stranger
        for call in (
            lambda: g.neighbors(stranger), lambda: g.closed_nbhd(stranger), lambda: g.degree(stranger),
            lambda: g.adjacent(stranger, some), lambda: g.adjacent(some, stranger),
            lambda: g.is_clique([stranger]), lambda: g.is_independent([stranger]),
            lambda: g.induced([stranger]), lambda: g.is_clique([*g.vertices, stranger]),
        ):
            with pytest.raises(UnknownVertex):
                call()


class TestLabelsThatPrintAlike:
    @pytest.mark.parametrize(
        "vertices",
        [
            [1, {"class": {"name": "1"}}],
            [{"class": {"name": "R", "members": [2]}}, {"class": {"name": "R={2}"}}],
            [{"class": {"name": "R", "members": [2]}}, {"class": {"name": "R{2}"}}],
        ],
        ids=["int-and-class", "dot-text", "table-text"],
    )
    def test_rejected(self, vertices):
        with pytest.raises(MalformedInput):
            Graph.from_json(json.dumps({"vertices": vertices, "edges": []}))

    def test_repeated_label_is_one_vertex(self):
        g = Graph.from_json('{"vertices": [1, 1, 2], "edges": [[1, 2]]}')
        assert g.vertices == (1, 2)


class TestLabelOrder:
    def test_ints_before_classes(self):
        assert label_key(7) < label_key(ClassLabel("A", ()))

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            label_key(3.5)
