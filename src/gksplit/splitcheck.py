"""Split-graph recognition by two independent routes.

Route one is the Hammer-Simeone degree-sequence criterion: with degrees
sorted d1 >= ... >= dn and m = max{i : d_i >= i-1}, the graph is split iff

    sum_{i<=m} d_i  =  m(m-1) + sum_{i>m} d_i,

in which case the m vertices of largest degree form the clique side.  Route
two is the Foldes-Hammer forbidden-subgraph characterization: split iff no
induced 2K2, C4 or C5.  ``Graph.find_forbidden`` looks for the first such
witness on bitset rows, 2K2/C4 in O(n^3) and the then unique C5 in O(n^2);
a split partition comes from a 2-SAT instance with one clause per vertex
pair, solved by strongly connected components in O(n^2).  Neither part of
route two reads a degree.  The two routes must always agree; a disagreement
is raised as InternalInconsistency, never repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistency, InvalidPartition, PreconditionViolated
from .graph import ForbiddenWitness, Graph, bits, encode_label, label_key


@dataclass(frozen=True)
class SplitPartition:
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


@dataclass(frozen=True)
class SplitVerdict:
    """Outcome of a split check.

    m_index is None for verdicts not derived from a degree sequence: those of
    the forbidden route, and certificate-backed claims about graphs that
    were never materialized.
    """

    split: bool
    m_index: int | None = None
    partition: SplitPartition | None = None
    forbidden: ForbiddenWitness | None = None


def m_index(g: Graph) -> int:
    """max{i : d_i >= i-1} over the non-increasing degree sequence."""
    if g.n == 0:
        raise PreconditionViolated("m_index is undefined for the empty graph")
    best = 0
    for i, d in enumerate(g.degree_sequence(), start=1):
        if d >= i - 1:
            best = i
    return best


def validate_partition(g: Graph, p: SplitPartition) -> tuple[bool, str | None]:
    """Check every invariant of a split partition against g.

    Returns (True, None) or (False, reason).  The special condition is only
    demanded when the partition claims it.
    """
    if p.clique & p.independent:
        return False, f"C and I overlap on {sorted(p.clique & p.independent, key=label_key)}"
    if p.clique | p.independent != set(g.vertices):
        return False, "C and I do not cover the vertex set"
    if not g.is_clique(p.clique):
        return False, "C is not a clique"
    if not g.is_independent(p.independent):
        return False, "I is not independent"
    if p.special:
        v = special_violation(g, p.clique, p.independent)
        if v is not None:
            return False, f"{v!r} in I is adjacent to all of C"
    return True, None


def special_violation(g: Graph, clique, indep):
    """The first vertex of I, in label order, adjacent to every vertex of C.

    None exactly when the split partition (C, I) is special, that is when
    every vertex of I has a non-neighbour in C.
    """
    want = g.mask(clique)
    for i in bits(g.mask(indep)):
        if g.rows[i] & want == want:
            return g.vertices[i]
    return None


def specialize(g: Graph, p: SplitPartition) -> SplitPartition:
    """Move I-vertices adjacent to all of C into C until the partition is special."""
    ok, reason = validate_partition(g, SplitPartition(p.clique, p.independent))
    if not ok:
        raise InvalidPartition(reason)
    clique = set(p.clique)
    indep = set(p.independent)
    while (v := special_violation(g, clique, indep)) is not None:
        indep.discard(v)
        clique.add(v)
    out = SplitPartition(frozenset(clique), frozenset(indep), special=True)
    ok, reason = validate_partition(g, out)
    if not ok:  # pragma: no cover - the loop establishes the condition
        raise InternalInconsistency(f"specialize produced an invalid partition: {reason}")
    return out


def flag_special(g: Graph, clique, indep) -> SplitPartition:
    """The split partition (C, I) of g, with its special flag computed."""
    clique, indep = frozenset(clique), frozenset(indep)
    return SplitPartition(clique, indep, special_violation(g, clique, indep) is None)


def is_split_degree(g: Graph) -> SplitVerdict:
    """Degree-sequence split check with partition extraction."""
    if g.n == 0:
        return SplitVerdict(True, None, SplitPartition(frozenset(), frozenset(), True))
    m = m_index(g)
    degs = g.degree_sequence()
    split = sum(degs[:m]) == m * (m - 1) + sum(degs[m:])
    if split:
        # The top-m degree sum is the same however ties are broken, and the
        # equality forces those m vertices to be a clique and the rest to be
        # independent (Hammer-Simeone), so any non-increasing order will do.
        by_degree = sorted(g.vertices, key=g.degree, reverse=True)  # stable: ties in label order
        clique, indep = by_degree[:m], by_degree[m:]
        if not (g.is_clique(clique) and g.is_independent(indep)):
            raise InternalInconsistency(
                "degree equality holds but no clique/independent partition was found"
            )
        return SplitVerdict(True, m, flag_special(g, clique, indep))
    witness = g.find_forbidden()
    if witness is None:
        raise InternalInconsistency(
            "degree equality fails but no forbidden subgraph exists"
        )
    return SplitVerdict(False, m, None, witness)


def _partition_from_2sat(g: Graph) -> SplitPartition | None:
    """A split partition as a 2-SAT solution (Aspvall-Plass-Tarjan 1979).

    The variable of v says "v is in C".  An edge forbids both ends in I and
    a non-edge forbids both ends in C, so the clauses are satisfiable exactly
    when g is split.  Literal 2i is "vertex i in C" and 2i+1 is "vertex i in
    I"; each clause becomes two implications, O(n^2) in all.  None when the
    clauses are unsatisfiable.
    """
    vs = g.vertices
    full = (1 << len(vs)) - 1
    succ = []
    for i, row in enumerate(g.rows):
        succ.append([2 * j + 1 for j in bits(full & ~(row | 1 << i))])
        succ.append([2 * j for j in bits(row)])
    comp = _scc_ids(succ)
    if any(comp[2 * i] == comp[2 * i + 1] for i in range(len(vs))):
        return None
    # Tarjan numbers components sinks first, so the literal whose component
    # has the smaller id is the one to make true.
    clique = [v for i, v in enumerate(vs) if comp[2 * i] < comp[2 * i + 1]]
    indep = [v for i, v in enumerate(vs) if comp[2 * i] > comp[2 * i + 1]]
    return flag_special(g, clique, indep)


def _scc_ids(succ) -> list[int]:
    """Strongly connected component ids by an iterative Tarjan search.

    Ids are given in the order components complete, which is a reverse
    topological order of the component graph.
    """
    order = [-1] * len(succ)
    low = [0] * len(succ)
    comp = [-1] * len(succ)
    stack = []
    seen = done = 0
    for root in range(len(succ)):
        if order[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, k = work.pop()
            if k == 0:
                order[v] = low[v] = seen
                seen += 1
                stack.append(v)
            for k in range(k, len(succ[v])):
                w = succ[v][k]
                if order[w] < 0:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    break
                if comp[w] < 0:  # still on the stack
                    low[v] = min(low[v], order[w])
            else:
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = done
                        if w == v:
                            break
                    done += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return comp


def is_split_forbidden(g: Graph) -> SplitVerdict:
    """Forbidden-subgraph split check; the independent oracle for the degree route.

    When split, the partition comes from a 2-SAT instance, so neither the
    verdict nor the partition uses any degree reasoning.
    """
    witness = g.find_forbidden()
    if witness is not None:
        return SplitVerdict(False, None, None, witness)
    partition = _partition_from_2sat(g)
    if partition is None:
        raise InternalInconsistency(
            "no forbidden subgraph, yet no split partition exists"
        )
    return SplitVerdict(True, None, partition)
