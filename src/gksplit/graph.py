"""Finite simple graph core.

Vertices are labels: either plain integers (primes in the intended use) or
``ClassLabel`` values naming a symbolic class of primes (the R_i classes of
the compact diagrams, or the merged classes produced by ``compact_form``).
Graphs are immutable after construction and every iteration order is
deterministic (sorted by a total label order), so witnesses, exports and
quotients are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import LoopEdge, MalformedInput, UnknownVertex

_SCHEMA = "gksplit/graph/1"


@dataclass(frozen=True)
class ClassLabel:
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


@dataclass(frozen=True)
class ForbiddenWitness:
    """An induced subgraph certifying non-splitness.

    kind is one of "2K2", "C4", "C5"; vertices are listed so the claimed
    edges are consecutive (matching pairs for 2K2, cycle order for C4/C5).
    """

    kind: str
    vertices: tuple


def witness_edges(witness: ForbiddenWitness) -> list[tuple]:
    v = witness.vertices
    if witness.kind == "2K2":
        return [(v[0], v[1]), (v[2], v[3])]
    return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


class Graph:
    """Immutable finite simple undirected graph over sortable labels."""

    __slots__ = ("_vertices", "_adj", "_edges")

    def __init__(self, vertices, edges=()):
        vs = sorted(set(vertices), key=label_key)
        index = {v: i for i, v in enumerate(vs)}
        adj = [set() for _ in vs]
        for u, v in edges:
            i, j = index.get(u), index.get(v)
            if i is None:
                raise UnknownVertex(f"edge endpoint {u!r} is not a vertex")
            if j is None:
                raise UnknownVertex(f"edge endpoint {v!r} is not a vertex")
            if i == j:
                raise LoopEdge(f"loop at {u!r}")
            adj[i].add(j)
            adj[j].add(i)
        self._vertices = tuple(vs)
        self._adj = {v: frozenset([vs[j] for j in nb]) for v, nb in zip(vs, adj)}
        self._edges = tuple(
            (u, vs[j]) for i, u in enumerate(vs) for j in sorted(adj[i]) if j > i
        )

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    def neighbors(self, v) -> frozenset:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(f"{v!r} is not a vertex") from None

    def adjacent(self, u, v) -> bool:
        return v in self.neighbors(u)

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def degree_sequence(self) -> list[int]:
        """Degrees in non-increasing order."""
        return sorted((len(nb) for nb in self._adj.values()), reverse=True)

    def __contains__(self, v) -> bool:
        return v in self._adj

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self._vertices, self._edges))

    def __repr__(self):
        return f"Graph({self.n} vertices, {len(self._edges)} edges)"

    # -- constructions -----------------------------------------------------

    def induced(self, subset) -> "Graph":
        sub = set(subset)
        for v in sub:
            if v not in self._adj:
                raise UnknownVertex(f"{v!r} is not a vertex")
        edges = [(u, v) for u, v in self._edges if u in sub and v in sub]
        return Graph(sub, edges)

    def complement(self) -> "Graph":
        vs = self._vertices
        edges = [
            (u, v)
            for i, u in enumerate(vs)
            for v in vs[i + 1 :]
            if v not in self._adj[u]
        ]
        return Graph(vs, edges)

    def closed_nbhd(self, v) -> frozenset:
        """The ball of radius 1: the vertex together with its neighbours."""
        return self.neighbors(v) | {v}

    def components(self) -> list[frozenset]:
        """Connected components, each a vertex set, in sorted order."""
        seen = set()
        out = []
        for root in self._vertices:
            if root in seen:
                continue
            comp = {root}
            stack = [root]
            while stack:
                for w in self._adj[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def is_clique(self, subset) -> bool:
        sub = frozenset(subset)
        return all(len(self.neighbors(v) & sub) == len(sub) - 1 for v in sub)

    def is_independent(self, subset) -> bool:
        sub = frozenset(subset)
        return all(self.neighbors(v).isdisjoint(sub) for v in sub)

    # -- compact form --------------------------------------------------------

    def compact_form(self) -> "CompactForm":
        """Quotient by the true-twin relation u = v iff closed nbhds coincide.

        Class labels are deterministic: each class is named after its smallest
        member and carries the union of the members' underlying primes.
        """
        buckets: dict[frozenset, list] = {}
        for v in self._vertices:
            buckets.setdefault(self._adj[v] | {v}, []).append(v)
        groups = list(buckets.values())  # each in label order already
        labels = [_merge_label(group) for group in groups]
        number = {label: k for k, label in enumerate(labels)}  # equal labels: one class
        class_of = {v: label for label, group in zip(labels, groups) for v in group}
        index = {v: number[label] for v, label in class_of.items()}
        pairs = {(index[u], index[v]) for u, v in self._edges}
        quotient = Graph(labels, [(labels[i], labels[j]) for i, j in pairs if i != j])
        contents = {label: frozenset(group) for label, group in zip(labels, groups)}
        return CompactForm(quotient, class_of, contents)

    # -- forbidden-subgraph search -------------------------------------------

    def find_forbidden(self):
        """The first induced 2K2, C4 or C5; None when the graph is split.

        A graph is split exactly when none of the three occurs (Foldes-Hammer).
        The witness is the one a scan of all 4-subsets, then all 5-subsets,
        in lexicographic vertex order would meet first, but the search runs
        on int bitset adjacency rows:

        * 2K2/C4 in O(n^3) bitset operations: the edges among the first three
          vertices a < b < c of a quad fix the neighbourhood its fourth
          vertex d > c must have, so the smallest d is one lowest-bit read;
        * C5 in O(n^2): a graph with no 2K2 and no C4 has at most one induced
          C5 (Blazsik-Hujter-Pluhar-Tuza 1993), so the first one found is the
          lexicographically first.

        No degree reasoning is used, so the search stays independent of the
        Hammer-Simeone degree route.
        """
        vs = self._vertices
        index = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for u, v in self._edges:
            i, j = index[u], index[v]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        quad = _first_quad(rows)
        if quad is not None:
            return _classify_quad(self, tuple(vs[i] for i in quad))
        five = _lone_pentagon(rows)
        if five is not None:
            return ForbiddenWitness("C5", _pentagon_order(self, tuple(vs[i] for i in five)))
        return None

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """The bytes of json.dumps(doc, indent=2), each label encoded once."""
        text = {v: json.dumps(encode_label(v), indent=2) for v in self._vertices}
        deep = {v: t.replace("\n", "\n      ") for v, t in text.items()}
        vertices = [t.replace("\n", "\n    ") for t in text.values()]
        edges = [f"[\n      {deep[u]},\n      {deep[v]}\n    ]" for u, v in self._edges]
        return (
            f'{{\n  "schema": {json.dumps(_SCHEMA)},\n  "vertices": {_json_list(vertices)},'
            f'\n  "edges": {_json_list(edges)}\n}}'
        )

    @staticmethod
    def from_json(text: str) -> "Graph":
        try:
            doc = json.loads(text)
            vertices = [decode_label(x) for x in doc["vertices"]]
            edges = [(decode_label(u), decode_label(v)) for u, v in doc["edges"]]
        except KeyError as exc:
            raise MalformedInput(f"graph document lacks field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"malformed graph document: {exc}") from None
        g = Graph(vertices, edges)
        seen = {}
        for v in g.vertices:
            for sep in ("", "="):
                other = seen.setdefault((sep, label_text(v, sep)), v)
                if other != v:
                    raise MalformedInput(f"vertices {other!r} and {v!r} both print as {label_text(v, sep)!r}")
        return g

    def to_dot(self, name: str = "G") -> str:
        text = {v: f'"{label_text(v, "=")}"' for v in self._vertices}
        lines = [f"graph {name} {{"]
        lines.extend(f"  {text[v]};" for v in self._vertices)
        lines.extend(f"  {text[u]} -- {text[v]};" for u, v in self._edges)
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CompactForm:
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
    members = []
    for v in group:
        got = label_members(v)
        if not got:
            return ClassLabel(name)
        members.extend(got)
    return ClassLabel(name, tuple(sorted(set(members))))


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


def _bits(mask):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first_quad(rows):
    """Lexicographically first a < b < c < d inducing a 2K2 or a C4, or None.

    On {a, b, c} a 2K2 or C4 leaves one edge x-y (then d sees only the third
    vertex) or a path y-x-z (then d sees y and z but not x).  Write A and B
    for the vertices above b adjacent to a only and to b only.  With a ~ b:
    c in A needs d in N(c) & B, c in B needs d in N(c) & A, and c adjacent
    to neither needs d in N(c), also adjacent to neither.  With a !~ b: c in
    A needs d in B - N(c), c in B needs d in A - N(c), and c adjacent to
    both needs d adjacent to both and not to c.
    """
    n = len(rows)
    full = (1 << n) - 1
    for a in range(n):
        ra = rows[a]
        for b in range(a + 1, n):
            rb = rows[b]
            above = full >> (b + 1) << (b + 1)
            only_a = ra & ~rb & above
            only_b = rb & ~ra & above
            adjacent = ra >> b & 1
            rest = (~(ra | rb) if adjacent else ra & rb) & above
            for c in _bits(only_a | only_b | rest):
                if only_a >> c & 1:
                    want = only_b
                elif only_b >> c & 1:
                    want = only_a
                else:
                    want = rest
                hit = (rows[c] & want if adjacent else want & ~rows[c]) >> (c + 1)
                if hit:
                    return a, b, c, c + (hit & -hit).bit_length()
    return None


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
        for u in _bits(far):
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


def _classify_quad(g: Graph, quad):
    pairs = [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    present = [g.adjacent(quad[i], quad[j]) for i, j in pairs]
    count = sum(present)
    if count == 2:
        hit = [pairs[k] for k, yes in enumerate(present) if yes]
        (a, b), (c, d) = hit
        if len({a, b, c, d}) == 4:
            return ForbiddenWitness(
                "2K2", (quad[a], quad[b], quad[c], quad[d])
            )
    elif count == 4:
        degs = [0, 0, 0, 0]
        for k, yes in enumerate(present):
            if yes:
                i, j = pairs[k]
                degs[i] += 1
                degs[j] += 1
        if degs == [2, 2, 2, 2]:
            a = quad[0]
            nb = [v for v in quad[1:] if g.adjacent(a, v)]
            other = next(v for v in quad[1:] if v not in nb)
            return ForbiddenWitness("C4", (a, nb[0], other, nb[1]))
    return None


def _pentagon_order(g: Graph, five):
    if sum(1 for i in range(5) for j in range(i + 1, 5) if g.adjacent(five[i], five[j])) != 5:
        return None
    inside = {v: sum(1 for w in five if w != v and g.adjacent(v, w)) for v in five}
    if any(d != 2 for d in inside.values()):
        return None
    # 5 edges, all inner degrees 2, so it is C5; walk the cycle.
    start = five[0]
    order = [start]
    prev = None
    cur = start
    for _ in range(4):
        nxt = next(
            w for w in five if w != cur and w != prev and g.adjacent(cur, w)
        )
        order.append(nxt)
        prev, cur = cur, nxt
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

    JSON true/false are not integer labels, although Python's bool is an int.
    """
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    try:
        cls = obj["class"]
        members = cls.get("members", ())
        if any(isinstance(x, bool) for x in members):
            raise ValueError("boolean class member")
        return ClassLabel(str(cls["name"]), tuple(int(x) for x in members))
    except (KeyError, TypeError, ValueError):
        raise MalformedInput(f"cannot decode vertex label {obj!r}") from None


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
