"""Split-graph recognition by two independent routes.

Route one is the Hammer-Simeone degree-sequence criterion: with degrees
sorted d1 >= ... >= dn and m = max{i : d_i >= i-1}, the graph is split iff

    sum_{i<=m} d_i  =  m(m-1) + sum_{i>m} d_i,

in which case the m vertices of largest degree form the clique side.  Route
two is the Foldes-Hammer forbidden-subgraph characterization: split iff no
induced 2K2, C4 or C5.  ``Graph.find_forbidden`` first solves a 2-SAT
instance with one clause per vertex pair, by a bitset Kosaraju over the
adjacency rows in O(n) big-int steps; it is satisfiable exactly when the
graph is split, and its solution, checked against the rows, is the split
partition.  Only when it is unsatisfiable does the search for the first
witness run on the rows: a per-vertex pretest finds the smallest vertex of
any induced 2K2 or C4 (O(n^2) bitset steps on a graph close to split, cubic
at worst) and the quad search runs from that vertex alone; the then unique
C5 takes O(n^2).
Neither part of route two reads a degree.  The two routes must always agree;
a disagreement is raised as InternalInconsistency, never repaired.

Both routes decide their partition as a clique-side bitset over the vertex
indices.  One special test on masks serves every caller, and the labels are
built once, when the ``SplitPartition`` is made: by the degree route only
when a caller reads its verdict's ``partition``.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import and_
from typing import NamedTuple

from .errors import InternalInconsistency, InvalidPartition, PreconditionViolated
from .graph import ForbiddenWitness, Graph, encode_label, is_clique_mask, is_independent_mask, is_split_side
from .graph import _flags, label_key, label_text


class SplitPartition(NamedTuple):
    """A claimed split partition: clique side C, independent side I.

    ``special`` asserts additionally that every vertex of I has a
    non-neighbour in C.
    """

    clique: frozenset
    independent: frozenset
    special: bool = False

    def as_sorted(self):
        return (
            sorted(self.clique, key=label_key),
            sorted(self.independent, key=label_key),
        )


def partition_doc(p: SplitPartition) -> dict:
    """The JSON block of a partition, shared by split results and certificates."""
    c, i = p.as_sorted()
    return {
        "clique": [encode_label(v) for v in c],
        "independent": [encode_label(v) for v in i],
        "special": p.special,
    }


def witness_doc(w: ForbiddenWitness) -> dict:
    """The JSON block of a witness, shared by split results and certificates."""
    return {"kind": w.kind, "vertices": [encode_label(v) for v in w.vertices]}


def partition_text(p: SplitPartition) -> str:
    """The table line of a partition, shared by split results and theorem D."""
    c, i = p.as_sorted()
    return (
        "C = {" + ", ".join(label_text(v) for v in c) + "}  "
        "I = {" + ", ".join(label_text(v) for v in i) + "}"
    )


class SplitVerdict:
    """Outcome of a split check: split, m_index, partition and forbidden.

    m_index is None for verdicts not derived from a degree sequence: those of
    the forbidden route, and certificate-backed claims about graphs that
    were never materialized.  The degree route hands over its partition as a
    clique-side bitset; its labels and special flag are built the first time
    ``partition`` is read, and kept.
    """

    __slots__ = ("split", "m_index", "forbidden", "_partition", "_side")

    def __init__(self, split: bool, m_index: int | None = None, partition: SplitPartition | None = None,
                 forbidden: ForbiddenWitness | None = None):
        self.split, self.m_index, self.forbidden = split, m_index, forbidden
        self._partition, self._side = partition, None

    @property
    def partition(self) -> SplitPartition | None:
        if self._side is not None:
            self._partition, self._side = _partition(*self._side), None
        return self._partition

    def __repr__(self):
        return (f"SplitVerdict(split={self.split!r}, m_index={self.m_index!r}, "
                f"partition={self.partition!r}, forbidden={self.forbidden!r})")


def m_index(g: Graph) -> int:
    """max{i : d_i >= i-1} over the non-increasing degree sequence."""
    if g.n == 0:
        raise PreconditionViolated("m_index is undefined for the empty graph")
    return _degrees(g)[2]


def _degrees(g: Graph) -> tuple[list[int], list[int], int]:
    """The degrees of g in vertex order, the same sorted non-increasing, and
    m, by binary search: d_j - j falls strictly along the sorted degrees, so
    the 0-based j with d_j >= j, whose count is m, are a prefix."""
    degree = [row.bit_count() for row in g.rows]
    degs = sorted(degree, reverse=True)
    lo, hi = 0, len(degs)
    while lo < hi:
        mid = (lo + hi) // 2
        if degs[mid] >= mid:
            lo = mid + 1
        else:
            hi = mid
    return degree, degs, lo


def validate_partition(g: Graph, p: SplitPartition) -> tuple[bool, str | None]:
    """Check every invariant of a split partition against g.

    Returns (True, None) or (False, reason).  The special condition is only
    demanded when the partition claims it.  Past the label checks of overlap
    and cover, I is the complement of C, and C is masked once.
    """
    if p.clique & p.independent:
        return False, f"C and I overlap on {sorted(p.clique & p.independent, key=label_key)}"
    if p.clique | p.independent != set(g.vertices):
        return False, "C and I do not cover the vertex set"
    side = g.mask(p.clique)
    rest = (1 << g.n) - 1 & ~side
    if not is_clique_mask(g.rows, side):
        return False, "C is not a clique"
    if not is_independent_mask(g.rows, rest):
        return False, "I is not independent"
    if p.special and (v := _dominator(g.rows, side, rest)) is not None:
        return False, f"{g.vertices[v]!r} in I is adjacent to all of C"
    return True, None


def _dominator(rows, side: int, rest: int) -> int | None:
    """The special test: the first index of I (bitset rest) whose row holds
    all of C (bitset side).  None exactly when the split partition is
    special, that is when every vertex of I has a non-neighbour in C.

    The rows must be symmetric: then i sees all of C exactly when bit i is
    in every row of C, so the dominators are rest under one AND over C's
    rows, and the first of them is its lowest bit."""
    seen = reduce(and_, compress(rows, _flags(side)), rest)
    return (seen & -seen).bit_length() - 1 if seen else None


def _partition(g: Graph, side: int) -> SplitPartition:
    """The split partition of g whose clique side is the bitset ``side``:
    its labels are built here, once, and its special flag read off the rows."""
    rest, vs = (1 << g.n) - 1 & ~side, g.vertices
    clique, indep = frozenset(compress(vs, _flags(side))), frozenset(compress(vs, _flags(rest)))
    return SplitPartition(clique, indep, _dominator(g.rows, side, rest) is None)


def specialize(g: Graph, p: SplitPartition) -> SplitPartition:
    """p made special: the first I-vertex adjacent to all of C, if any, moves into C."""
    ok, reason = validate_partition(g, SplitPartition(p.clique, p.independent))
    if not ok:
        raise InvalidPartition(reason)
    side = g.mask(p.clique)
    if (v := _dominator(g.rows, side, (1 << g.n) - 1 & ~side)) is not None:
        # One move suffices: v sees all of C, so C + v is a clique, and I is
        # independent, so every other vertex of I misses v in the new C.
        side |= 1 << v
    out = _partition(g, side)
    if not (out.special and is_split_side(g.rows, side)):
        raise InternalInconsistency("specialize produced an invalid partition")  # pragma: no cover
    return out


def flag_special(g: Graph, clique, indep) -> SplitPartition:
    """The split partition (C, I) of g, with its special flag computed."""
    clique, indep = frozenset(clique), frozenset(indep)
    return SplitPartition(clique, indep, _dominator(g.rows, g.mask(clique), g.mask(indep)) is None)


def is_split_degree(g: Graph) -> SplitVerdict:
    """Degree-sequence split check with partition extraction."""
    if g.n == 0:
        return SplitVerdict(True, None, SplitPartition(frozenset(), frozenset(), True))
    degree, degs, m = _degrees(g)
    if sum(degs[:m]) == m * (m - 1) + sum(degs[m:]):
        # The top-m degree sum is the same however ties are broken, and the
        # equality forces those m vertices to be a clique and the rest to be
        # independent (Hammer-Simeone), so any non-increasing order will do;
        # a stable one puts ties in label order.
        by_degree = sorted(range(g.n), key=degree.__getitem__, reverse=True)
        side = sum(1 << i for i in by_degree[:m])
        if not is_split_side(g.rows, side):
            raise InternalInconsistency("degree equality holds but no clique/independent partition was found")
        verdict = SplitVerdict(True, m)
        verdict._side = g, side  # its partition is built when first read
        return verdict
    witness = g.find_forbidden()
    if witness is None:
        raise InternalInconsistency("degree equality fails but no forbidden subgraph exists")
    return SplitVerdict(False, m, None, witness)


def _partition_from_2sat(g: Graph) -> SplitPartition | None:
    """The split partition of the 2-SAT (``Graph.clique_side``), or None
    when the clauses are unsatisfiable."""
    side = g.clique_side()
    return None if side is None else _partition(g, side)


def is_split_forbidden(g: Graph) -> SplitVerdict:
    """Forbidden-subgraph split check; the independent oracle for the degree route.

    ``Graph.find_forbidden`` decides by the 2-SAT and scans for a witness
    only when the clauses are unsatisfiable.  When split, the partition is
    that 2-SAT's, solved once per graph, so neither the verdict nor the
    partition uses any degree reasoning.
    """
    witness = g.find_forbidden()
    if witness is not None:
        return SplitVerdict(False, None, None, witness)
    return SplitVerdict(True, None, _partition_from_2sat(g))
