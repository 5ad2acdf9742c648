"""Finite simple graph core.

Vertices are labels: either plain integers (primes in the intended use) or
``ClassLabel`` values naming a symbolic class of primes (the R_i classes of
the compact diagrams, or the merged classes produced by ``compact_form``).
Graphs are immutable after construction and every iteration order is
deterministic (sorted by a total label order), so witnesses, exports and
quotients are reproducible bit for bit.

A graph is its sorted label tuple, a label -> index dict built once, and one
int bitset row per vertex index: bit j of ``rows[i]`` is set exactly when
vertices i and j are adjacent.  Degrees are bit counts, clique and
independence tests are mask tests, every search reads the rows, and the
edge list and neighbour sets are derived from them on demand.
"""

from __future__ import annotations

import json
import reprlib
from functools import reduce
from itertools import compress, count
from operator import and_, itemgetter, or_
from typing import NamedTuple

from .errors import InternalInconsistency, LoopEdge, MalformedInput, UnknownVertex

_SCHEMA = "gksplit/graph/1"


class ClassLabel(NamedTuple):
    """A named vertex class, optionally carrying its known prime members."""

    name: str
    members: tuple[int, ...] = ()

    def __repr__(self):
        if self.members:
            return f"ClassLabel({self.name!r}, {self.members!r})"
        return f"ClassLabel({self.name!r})"


def label_key(label):
    """Total order on labels: integers first (numeric), then classes by name."""
    if isinstance(label, int):
        return (0, label, "", ())
    if isinstance(label, ClassLabel):
        return (1, 0, label.name, label.members)
    raise TypeError(f"unsupported vertex label {label!r}")


def label_members(label) -> frozenset[int]:
    """Underlying prime members of a label; a bare integer is its own class."""
    if isinstance(label, int):
        return frozenset((label,))
    return frozenset(label.members)


class ForbiddenWitness(NamedTuple):
    """An induced subgraph certifying non-splitness.

    kind is one of "2K2", "C4", "C5"; vertices are listed so the claimed
    edges are consecutive (matching pairs for 2K2, cycle order for C4/C5).
    """

    kind: str
    vertices: tuple


#: Graph._witness and Graph._clique_side before they are computed; None
#: means "no witness" and "no split partition".
_UNSCANNED = object()


def witness_edges(witness: ForbiddenWitness) -> list[tuple]:
    v = witness.vertices
    if witness.kind == "2K2":
        return [(v[0], v[1]), (v[2], v[3])]
    return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


class Graph:
    """Immutable finite simple undirected graph over sortable labels.

    Built from labels and edges, or from ``rows`` by a construction that already
    knows the adjacency: then ``vertices`` must be unique and in label order,
    and the rows (symmetric, loop-free) are taken as given.
    """

    __slots__ = ("_vertices", "_index", "_rows", "_edges", "_witness", "_clique_side")

    def __init__(self, vertices, edges=(), *, rows=None):
        if rows is None:
            vertices = sorted(set(vertices), key=label_key)
        index = {v: i for i, v in enumerate(vertices)}
        if rows is None:
            rows = [0] * len(vertices)
            for u, v in edges:
                i, j = index.get(u), index.get(v)
                if i is None:
                    raise UnknownVertex(f"edge endpoint {u!r} is not a vertex")
                if j is None:
                    raise UnknownVertex(f"edge endpoint {v!r} is not a vertex")
                if i == j:
                    raise LoopEdge(f"loop at {u!r}")
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        self._vertices = tuple(vertices)
        self._index = index
        self._rows = tuple(rows)
        self._edges = None
        self._witness = _UNSCANNED
        self._clique_side = _UNSCANNED

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def rows(self) -> tuple:
        """Adjacency bitsets: bit j of rows[i] is set iff vertices i, j are adjacent."""
        return self._rows

    @property
    def edges(self) -> tuple:
        if self._edges is None:
            vs, rows = self._vertices, self._rows
            self._edges = tuple((vs[i], vs[j]) for i, r in enumerate(rows) for j in bits(r >> i + 1, i + 1))
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    def mask(self, subset) -> int:
        """The bitset of a set of vertices; UnknownVertex for any other label."""
        mask = 0
        for v in subset:
            mask |= 1 << self._at(v)
        return mask

    def _at(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"{v!r} is not a vertex") from None

    def _labels(self, mask) -> list:
        return [self._vertices[i] for i in bits(mask)]

    def neighbors(self, v) -> frozenset:
        return frozenset(self._labels(self._rows[self._at(v)]))

    def adjacent(self, u, v) -> bool:
        return self._rows[self._at(u)] >> self._at(v) & 1 == 1

    def degree(self, v) -> int:
        return self._rows[self._at(v)].bit_count()

    def degree_sequence(self) -> list[int]:
        """Degrees in non-increasing order."""
        return sorted((row.bit_count() for row in self._rows), reverse=True)

    def __contains__(self, v) -> bool:
        return v in self._index

    def __eq__(self, other):
        return isinstance(other, Graph) and (self._vertices, self._rows) == (other._vertices, other._rows)

    def __hash__(self):
        return hash((self._vertices, self._rows))

    def __repr__(self):
        return f"Graph({self.n} vertices, {edge_count(self._rows)} edges)"

    # -- constructions -----------------------------------------------------

    def induced(self, subset) -> "Graph":
        keep = self.mask(subset)
        vs = self._vertices
        edges = [(vs[i], vs[j]) for i in bits(keep) for j in bits(self._rows[i] & keep)]
        return Graph(self._labels(keep), edges)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self._vertices, rows=[full & ~(row | 1 << i) for i, row in enumerate(self._rows)])

    def closed_nbhd(self, v) -> frozenset:
        """The ball of radius 1: the vertex together with its neighbours."""
        return self.neighbors(v) | {v}

    def components(self) -> list[frozenset]:
        """Connected components, each a vertex set, in sorted order."""
        out = []
        left = (1 << self.n) - 1
        while left:
            comp = frontier = left & -left
            while frontier:
                reach = 0
                for i in bits(frontier):
                    reach |= self._rows[i]
                frontier = reach & ~comp
                comp |= frontier
            left &= ~comp
            out.append(frozenset(self._labels(comp)))
        return out

    def is_clique(self, subset) -> bool:
        return is_clique_mask(self._rows, self.mask(subset))

    def is_independent(self, subset) -> bool:
        return is_independent_mask(self._rows, self.mask(subset))

    # -- compact form --------------------------------------------------------

    def compact_form(self) -> "CompactForm":
        """Quotient by the true-twin relation u = v iff closed nbhds coincide.

        Class labels are deterministic: each class is named after its smallest
        member and carries the union of the members' underlying primes.  Two
        classes whose labels would coincide are MalformedInput.

        Each quotient row is read off its class head's bitset row in one
        pass over the row's binary digits, with no loop over edges.
        """
        vs, rows = self._vertices, self._rows
        buckets: dict[int, list] = {}
        for i, row in enumerate(rows):
            buckets.setdefault(row | 1 << i, []).append(i)
        groups = list(buckets.values())  # each in label order already
        labels = [_merge_label([vs[i] for i in group]) for group in groups]
        contents = {label: frozenset(vs[i] for i in group) for label, group in zip(labels, groups)}
        if len(contents) < len(labels):
            twin = next(label for label in labels if labels.count(label) > 1)
            raise MalformedInput(f"two true-twin classes would both be labelled {label_text(twin)!r}")
        # Twins see the same classes, so the first vertex of a class, its
        # head, stands for it: two classes are adjacent iff their heads are.
        # bin(row | 1 << n) is "0b1" and then the n digits of the row, bit i
        # at index n + 2 - i; the heads' digits read in descending class
        # label order spell the class's quotient row in binary.
        order = sorted(range(len(groups)), key=lambda k: label_key(labels[k]))
        heads = [groups[k][0] for k in order]
        qrows = []
        if heads:  # itemgetter takes at least one index
            top = 1 << len(vs)
            pick = itemgetter(*[len(vs) + 2 - i for i in reversed(heads)])
            qrows = [int("".join(pick(bin(rows[i] | top))), 2) for i in heads]
        quotient = Graph([labels[k] for k in order], rows=qrows)
        class_of = {vs[i]: label for label, group in zip(labels, groups) for i in group}
        return CompactForm(quotient, class_of, contents)

    # -- forbidden-subgraph search -------------------------------------------

    def clique_side(self):
        """The clique side of a split partition as a bitset, from the 2-SAT
        of ``_split_mask``; None when the graph is not split.  Solved once
        per graph; later calls return its result."""
        if self._clique_side is _UNSCANNED:
            self._clique_side = _split_mask(self._rows)
        return self._clique_side

    def find_forbidden(self):
        """The first induced 2K2, C4 or C5; None when the graph is split.

        A graph is split exactly when none of the three occurs (Foldes-Hammer)
        and exactly when its 2-SAT is satisfiable (``clique_side``), so the
        2-SAT decides first.  When it is satisfiable, its partition is checked
        against the rows and None is returned without a scan.  Only when it is
        unsatisfiable does the witness scan run.  A partition that fails the
        check, or a scan that finds nothing after an unsatisfiable 2-SAT, is
        InternalInconsistency.  The answer is kept; later calls return it.

        The witness is the one a scan of all 4-subsets, then all 5-subsets,
        in lexicographic vertex order would meet first, but the search runs
        on the bitset rows:

        * 2K2/C4: a per-vertex pretest (``_starts_quad``) finds the smallest
          vertex a of any quad.  With N and F the neighbours and the
          non-neighbours of a above a, it tries only the edges among the
          vertices of F that miss some vertex of N and the non-edges among
          the vertices of N that see some vertex of F.  Building those two
          sets costs O(n) bitset operations per a; the pair loops are nearly
          empty on a graph close to split, but cubic over all a in the
          worst case.  For that a alone, the edges among a < b < c fix the
          neighbourhood the fourth vertex d > c must have, so the smallest
          d is one lowest-bit read: O(n^2) bitset operations.  When no a
          passes there is no quad;
        * C5 in O(n^2): a graph with no 2K2 and no C4 has at most one induced
          C5 (Blazsik-Hujter-Pluhar-Tuza 1993), so the first one found is the
          lexicographically first.

        No degree reasoning is used, so the search stays independent of the
        Hammer-Simeone degree route.
        """
        if self._witness is _UNSCANNED:
            side, witness = self.clique_side(), None
            if side is None:
                witness = self._scan_forbidden()
                if witness is None:
                    raise InternalInconsistency("the 2-SAT is unsatisfiable, yet no forbidden subgraph exists")
            elif not is_split_side(self._rows, side):
                raise InternalInconsistency("the 2-SAT partition is not a clique and an independent set")
            self._witness = witness
        return self._witness

    def _scan_forbidden(self):
        rows = self._rows
        quad = _first_quad(rows)
        if quad is not None:
            pairs = [(x, y) for k, x in enumerate(quad) for y in quad[k + 1 :] if rows[x] >> y & 1]
            if len(pairs) == 2:  # a 2K2, written as its two edges
                kind, ring = "2K2", pairs[0] + pairs[1]
            else:
                kind, ring = "C4", _walk_cycle(rows, quad)
        else:
            five = _lone_pentagon(rows)
            if five is None:
                return None
            kind, ring = "C5", _walk_cycle(rows, five)
        return ForbiddenWitness(kind, tuple(self._vertices[i] for i in ring))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """The bytes of json.dumps(doc, indent=2) for the graph document.

        Each label is encoded once (``_label_json``), the edge list is
        written one bitset row at a time (``edge_text``), and one join
        writes the whole document: the list's frame rides on its first and
        last rows.
        """
        text = [_label_json(v) for v in self._vertices]
        deep = [t.replace("\n", "\n      ") for t in text]
        vertices = [t.replace("\n", "\n    ") for t in text]
        head = f'{{\n  "schema": {json.dumps(_SCHEMA)},\n  "vertices": {_json_list(vertices)},\n  "edges": '
        edges = edge_text(self._rows, deep, "[\n      ", ",\n      ", "\n    ]", ",\n    ")
        if not edges:
            return head + "[]\n}"
        edges[0] = f"{head}[\n    {edges[0]}"
        edges[-1] = f"{edges[-1]}\n  ]\n}}"
        return ",\n    ".join(edges)

    @staticmethod
    def from_json(text: str) -> "Graph":
        doc = load_document(text, "graph")
        try:
            # An int label decodes to itself; everything else, bool included,
            # goes through decode_label.
            vertices = [
                x if type(x) is int else decode_label(x) for x in json_typed(doc["vertices"], list, "graph vertices")
            ]
            edges = [
                (u if type(u) is int else decode_label(u), v if type(v) is int else decode_label(v))
                for u, v in json_typed(doc["edges"], list, "graph edges")
            ]
        except KeyError as exc:
            raise MalformedInput(f"graph document lacks field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"malformed graph document: {exc}") from None
        g = Graph(vertices, edges)
        # Distinct ints never print alike, and ints sort before classes, so
        # only a document whose last label is a class needs the check.
        if not g.vertices or isinstance(g.vertices[-1], int):
            return g
        seen = {}
        for v in g.vertices:
            for sep in ("", "="):
                other = seen.setdefault((sep, label_text(v, sep)), v)
                if other != v:
                    raise MalformedInput(f"vertices {other!r} and {v!r} both print as {label_text(v, sep)!r}")
        return g

    def to_dot(self, name: str = "G") -> str:
        """Graphviz text: one quoted vertex line per label (``R5={11,31}``
        for classes), then one ``u -- v`` line per edge, joined per row."""
        text = [f'"{label_text(v, "=")}"' for v in self._vertices]
        lines = [f"graph {name} {{"]
        lines.extend(f"  {t};" for t in text)
        lines.extend(edge_text(self._rows, text, "  ", " -- ", ";", "\n"))
        lines.append("}\n")
        return "\n".join(lines)


class CompactForm(NamedTuple):
    """Result of the true-twin quotient.

    quotient        graph over ClassLabel vertices
    class_map       source vertex -> its class label
    class_contents  class label -> nonempty frozenset of source vertices
    """

    quotient: Graph
    class_map: dict
    class_contents: dict


def _merge_label(group) -> ClassLabel:
    head = group[0]
    name = str(head) if isinstance(head, int) else head.name
    members = set()
    for v in group:
        if isinstance(v, int):
            members.add(v)
        elif v.members:
            members.update(v.members)
        else:
            return ClassLabel(name)
    return ClassLabel(name, tuple(sorted(members)))


def members_signature(g: Graph):
    """Canonical (vertex, edge) signature keyed by underlying prime members.

    Lets two class graphs built by different routes be compared as labelled
    class graphs.  Requires every label's members to be known and the member
    sets to be pairwise distinct.
    """
    sig = {}
    for v in g.vertices:
        got = label_members(v)
        if not got:
            raise ValueError(f"label {v!r} has unknown members")
        if got in sig.values():
            raise ValueError("member sets are not pairwise distinct")
        sig[v] = got
    vset = frozenset(sig.values())
    eset = frozenset(frozenset((sig[u], sig[v])) for u, v in g.edges)
    return vset, eset


def same_class_graph(g1: Graph, g2: Graph) -> bool:
    """Equality of class graphs up to renaming, via member-set signatures."""
    return members_signature(g1) == members_signature(g2)


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int) -> bytes:
    """One byte per binary digit of mask (non-negative), lowest bit first:
    1 where the bit is set, 0 where not; a selector for ``compress``."""
    return bin(mask)[:1:-1].encode().translate(_BIT_VALUES)


def bits(mask: int, start: int = 0):
    """Indices of the set bits of mask (non-negative), in increasing order,
    each plus start.  One C-level pass over the binary digits; the rows of
    prime graphs are dense, where this beats peeling off the lowest bit."""
    return compress(count(start), _flags(mask))


def edge_count(rows) -> int:
    """The number of edges of a graph with these adjacency rows."""
    return sum(row.bit_count() for row in rows) // 2


def edge_text(rows, text, left: str, mid: str, right: str, sep: str) -> list[str]:
    """The edges i < j written as left + text[i] + mid + text[j] + right and
    joined by sep, in lexicographic order; one string per row that has an
    edge to a later vertex, so sep.join of the result is the whole list.

    Each row is one C-level join over the texts its upper bits select.
    """
    out = []
    for i, row in enumerate(rows):
        upper = row >> i + 1
        if upper:
            head = left + text[i] + mid
            body = (right + sep + head).join(compress(text[i + 1 :], _flags(upper)))
            out.append(f"{head}{body}{right}")
    return out


def _split_mask(rows):
    """The clique side of a split partition as a 2-SAT solution
    (Aspvall-Plass-Tarjan 1979), or None when the clauses are unsatisfiable.

    The variable of v says "v is in C".  An edge forbids both ends in I and
    a non-edge forbids both ends in C, so the clauses are satisfiable exactly
    when the graph is split.  Literal i is "vertex i in C" and n + i is
    "vertex i in I"; a set of literals is one int of 2n bits.  The
    implications out of i go to the I-literals of its non-neighbours, those
    out of n + i to the C-literals of its neighbours, and as the rows are
    symmetric the same two masks with the halves swapped lead back in.
    Kosaraju's two passes visit each literal once: O(n) big-int steps.
    """
    n = len(rows)
    full = (1 << n) - 1
    non = [full & ~(row | 1 << i) for i, row in enumerate(rows)]
    # Pass 1: depth-first along the implications, lowest literal first,
    # recording the order in which literals finish.
    left, finished = (1 << 2 * n) - 1, []
    while left:
        stack = [(left & -left).bit_length() - 1]
        left &= left - 1
        while stack:
            v = stack[-1]
            ahead = left & (non[v] << n if v < n else rows[v - n])
            if ahead:
                w = (ahead & -ahead).bit_length() - 1
                left ^= 1 << w
                stack.append(w)
            else:
                finished.append(stack.pop())
    # Pass 2: close each component over the reversed implications, latest
    # finish first.  Components come out in topological order; each makes
    # its literals true and their negations false, so of a literal and its
    # negation the one whose component comes later stays true.
    left, true = (1 << 2 * n) - 1, 0
    for v in reversed(finished):
        if not left >> v & 1:
            continue
        comp = frontier = 1 << v
        left ^= comp
        while frontier:
            u = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = left & (rows[u] << n if u < n else non[u - n])
            left ^= new
            frontier |= new
            comp |= new
        negated = comp >> n | (comp & full) << n
        if comp & negated:
            return None
        true = true & ~negated | comp
    return true & full


def is_clique_mask(rows, sub) -> bool:
    """Whether the vertex indices in the bitset sub are pairwise adjacent in rows."""
    return all((rows[i] | 1 << i) & sub == sub for i in bits(sub))


def is_independent_mask(rows, sub) -> bool:
    """Whether no two vertex indices in the bitset sub are adjacent in rows."""
    return not any(rows[i] & sub for i in bits(sub))


def is_split_side(rows, side) -> bool:
    """Whether the bitset side is a clique in rows and the other vertices are independent."""
    return is_clique_mask(rows, side) and is_independent_mask(rows, (1 << len(rows)) - 1 & ~side)


def _first_quad(rows):
    """Lexicographically first a < b < c < d inducing a 2K2 or a C4, or None.

    The smallest a is the first vertex that passes ``_starts_quad``; the
    (b, c) loop runs for that a alone.  On {a, b, c} a 2K2 or C4 leaves one
    edge x-y (then d sees only the third vertex) or a path y-x-z (then d
    sees y and z but not x).  Write A and B for the vertices above b
    adjacent to a only and to b only.  With a ~ b: c in A needs d in
    N(c) & B, c in B needs d in N(c) & A, and c adjacent to neither needs d
    in N(c), also adjacent to neither.  With a !~ b: c in A needs d in
    B - N(c), c in B needs d in A - N(c), and c adjacent to both needs d
    adjacent to both and not to c.
    """
    n = len(rows)
    full = (1 << n) - 1
    a = next((a for a in range(n) if _starts_quad(rows, a)), None)
    if a is None:
        return None
    ra = rows[a]
    for b in range(a + 1, n):
        rb = rows[b]
        above = full >> (b + 1) << (b + 1)
        only_a = ra & ~rb & above
        only_b = rb & ~ra & above
        adjacent = ra >> b & 1
        rest = (~(ra | rb) if adjacent else ra & rb) & above
        for c in bits(only_a | only_b | rest):
            if only_a >> c & 1:
                want = only_b
            elif only_b >> c & 1:
                want = only_a
            else:
                want = rest
            hit = (rows[c] & want if adjacent else want & ~rows[c]) >> (c + 1)
            if hit:
                return a, b, c, c + (hit & -hit).bit_length()
    raise InternalInconsistency(f"vertex {a} starts an induced 2K2 or C4, yet no quad starts at it")


def _starts_quad(rows, a):
    """Whether a is the smallest vertex of some induced 2K2 or C4.

    Write N and F for the neighbours and the non-neighbours of a above a.
    A C4 a-x-z-y needs non-adjacent x, y in N with a common neighbour z in
    F; a 2K2 a-x, y-w needs adjacent y, w in F with a common non-neighbour
    x in N.  So only the vertices of F that miss some vertex of N (miss)
    and those of N that see some vertex of F (see) can take part, and one
    mask test per edge inside miss and per non-edge inside see decides.
    Building the two sets takes O(n) bitset steps; the pair loops are
    nearly empty on a graph close to split, but O(n^2) in the worst case,
    so over all a the test is still cubic at worst.
    """
    above = (1 << len(rows)) - 1 >> (a + 1) << (a + 1)
    near = rows[a] & above
    far = above & ~near
    miss = far & ~reduce(and_, compress(rows, _flags(near)), far)
    see = near & reduce(or_, compress(rows, _flags(far)), 0)
    for y, row in zip(bits(miss), compress(rows, _flags(miss))):
        pair = row & miss
        if pair:
            lone = near & ~row
            if any(lone & ~rows[w] for w in bits(pair)):
                return True
    for x, row in zip(bits(see), compress(rows, _flags(see))):
        gap = see & ~row & ~(1 << x)
        if gap:
            reach = row & far
            if any(reach & rows[y] for y in bits(gap)):
                return True
    return False


def _lone_pentagon(rows):
    """Sorted indices of an induced C5 in a graph with no induced 2K2 or C4.

    Such a graph with a C5 Q splits into Q, a clique K joined to all of Q and
    an independent set S with no edge to Q (Maffray-Preissmann 1994).  The
    vertices v outside N[v] then induce one edge u-w when v is in Q and none
    when v is in K; no C5 passes through S.  So the first edge u-w outside
    N[v] decides v: it closes a C5 x-v-y exactly when some x in N(v) sees
    u but not w and some y in N(v) sees w but not u.  O(n^2) bitset steps.
    """
    full = (1 << len(rows)) - 1
    for v in range(len(rows)):
        far = full & ~rows[v] & ~(1 << v)
        for u in bits(far):
            near = rows[u] & far
            if near:
                w = (near & -near).bit_length() - 1
                xs = rows[v] & rows[u] & ~rows[w]
                ys = rows[v] & rows[w] & ~rows[u]
                if xs and ys:
                    x = (xs & -xs).bit_length() - 1
                    y = (ys & -ys).bit_length() - 1
                    if not rows[x] >> y & 1:
                        return tuple(sorted((v, x, u, w, y)))
                break
    return None


def _walk_cycle(rows, ring):
    """The induced cycle on the sorted indices ring, walked from its first
    vertex towards that vertex's smaller neighbour."""
    order, prev = [ring[0]], None
    while len(order) < len(ring):
        step = next(w for w in ring if rows[order[-1]] >> w & 1 and w != prev)
        prev = order[-1]
        order.append(step)
    return tuple(order)


def encode_label(label):
    """JSON form of a label: the integer itself, or {"class": {name, members}}.

    The one encoder behind graph, split-result and certificate documents.
    """
    if isinstance(label, int):
        return label
    return {"class": {"name": label.name, "members": list(label.members)}}


def decode_label(obj):
    """Inverse of :func:`encode_label`; MalformedInput on anything else.

    An integer label is a JSON integer, the rule of :func:`json_typed`,
    tested inline because every label of a document passes through here.
    A class has a string name and a list of JSON integer members.
    """
    if type(obj) is int:
        return obj
    try:
        cls = obj["class"]
        name, members = cls["name"], cls.get("members", [])
    except (KeyError, TypeError):
        raise MalformedInput(f"cannot decode vertex label {reprlib.repr(obj)}") from None
    members = [json_typed(x, int, "class member") for x in json_typed(members, list, "class members")]
    return ClassLabel(json_typed(name, str, "class name"), tuple(members))


#: the JSON name of each Python type a document value may be required to have
_JSON_KINDS = {int: "integer", str: "string", bool: "boolean", list: "list", dict: "object"}


def load_document(text: str, what: str) -> dict:
    """The JSON object of a graph, spectrum or certificate document (what
    names which), the one place those are parsed.  Any failure of the
    decoder, nesting too deep for it included, and a top level that is not
    an object are MalformedInput."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise MalformedInput(f"malformed {what} document: nested too deeply") from None
    except ValueError as exc:
        raise MalformedInput(f"malformed {what} document: {exc}") from None
    return json_typed(doc, dict, f"a {what} document")


def json_typed(value, kind: type, what: str):
    """value when its type is exactly kind (a key of ``_JSON_KINDS``), else
    MalformedInput naming what: the one value rule of the document readers.

    Exactly, since JSON true decodes to a bool, which Python counts as an
    int, and 1.0 to a float; neither is a JSON integer.  ``reprlib`` prints
    the value short, however deeply it is nested."""
    if type(value) is kind:
        return value
    raise MalformedInput(f"{what} must be a JSON {_JSON_KINDS[kind]}, got {reprlib.repr(value)}")


def _label_json(label) -> str:
    """json.dumps(encode_label(label), indent=2), written out directly."""
    if isinstance(label, int):
        return str(label)
    members = "[\n      " + ",\n      ".join(map(str, label.members)) + "\n    ]" if label.members else "[]"
    return f'{{\n  "class": {{\n    "name": {json.dumps(label.name)},\n    "members": {members}\n  }}\n}}'


def _json_list(items) -> str:
    """A JSON list at depth 1 of items already indented for depth 2."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def label_text(label, sep: str = "") -> str:
    """Printed form of a label: ``R5{11,31}`` in tables, ``R5={11,31}`` (sep "=") in DOT."""
    if isinstance(label, int):
        return str(label)
    if label.members:
        return f"{label.name}{sep}{{{','.join(map(str, label.members))}}}"
    return label.name
