"""Independent brute-force oracles used to freeze expected test values.

Deliberately naive and self-contained: nothing here imports the package
under test, so every comparison in the suite is a genuine cross-check.
Graphs are represented as (vertices, edges) with edges a set of frozensets.
"""

import json
from itertools import combinations, takewhile
from math import gcd, isqrt, prod
from operator import itemgetter
from random import Random


def brute_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in takewhile(lambda p: p * p <= n, out)):
            out.append(n)
    return out


def brute_factor(n):
    """Trial division only; returns sorted (prime, exponent) pairs."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return sorted(out.items())


def prime_powers(lo, hi):
    """The prime powers q with lo <= q <= hi, by trial division."""
    return [q for q in range(lo, hi + 1) if len(brute_factor(q)) == 1]


def brute_order(base, mod):
    """Multiplicative order of base modulo mod by repeated multiplication."""
    b = base % mod
    if b == 0:
        raise ValueError("not coprime")
    acc = 1
    for k in range(1, mod):
        acc = acc * b % mod
        if acc == 1:
            return k
    raise ValueError("no order found")


def convention_order(r, n):
    """e(r, n): the true order for odd r, the residue-class rule for r = 2."""
    if r == 2:
        return 1 if n % 4 == 1 else 2
    return brute_order(n, r)


def brute_ppd(i, n, prime_limit=300000):
    """R_i(n) by scanning prime divisors of n^i - 1 directly."""
    value = abs(n**i - 1)
    out = set()
    for p, _ in brute_factor(value):
        if p == 2:
            if n % 2 and convention_order(2, n) == i:
                out.add(2)
        elif n % p and brute_order(n, p) == i:
            out.add(p)
    return out


def classical_phi(e, kind, eps=1):
    """phi-value of the class R_e(q) of a classical group.

    Linear groups (eps = 1) keep e; unitary groups (eps = -1) apply
    nu: e for e = 0 (4), e/2 for e = 2 (4), 2e for odd e.  Symplectic and
    orthogonal groups apply eta: e for odd e, e/2 for even e.
    """
    if kind == "linear-unitary":
        if eps == 1 or e % 4 == 0:
            return e
        return e // 2 if e % 2 == 0 else 2 * e
    return e if e % 2 else e // 2


def classical_order_factors(family, n):
    """The factors (f, s), each q^f - s, of the standard order formula of the
    classical group of family A, 2A, B, C, D or 2D with prk n (the dimension
    for A and 2A, the Lie rank otherwise), as the tables write it:
    q^2 - 1, ..., q^n - 1 for A; q^k - (-1)^k, k = 2..n, for 2A; q^2 - 1, ...,
    q^2n - 1 for B and C; q^2 - 1, ..., q^2(n-1) - 1 and q^n -+ 1 for D, 2D.
    """
    if family in ("A", "2A"):
        return [(k, 1 if family == "A" else (-1) ** k) for k in range(2, n + 1)]
    evens = [(2 * k, 1) for k in range(1, n)]
    if family in ("B", "C"):
        return evens + [(2 * n, 1)]
    return evens + [(n, 1 if family == "D" else -1)]


def cyclotomic_divides(e, f, s):
    """Phi_e(x) divides x^f - s, s = +-1, as a polynomial: the roots of Phi_e
    have order e, those of x^f - 1 an order dividing f, and those of x^f + 1
    an order dividing 2f but not f."""
    return f % e == 0 if s == 1 else 2 * f % e == 0 and f % e != 0


def ppd_class_empty(i, q):
    """R_i(q) is empty, for a field size q >= 2 (Bang-Zsigmondy).

    Under the order convention for the prime 2 (e(2, q) = 1 iff q = 1 mod 4)
    the empty classes are R_1(2), R_6(2) and R_1(3).
    """
    return (q, i) in {(2, 1), (2, 6), (3, 1)}


def lemma52_indices(n, p, a):
    """The k in (n/2, n), increasing, at which Lemma 5.2 bounds |R_k(p^a)| > 1.

    The admissibility rule the linear-group witness once repeated inline:
    pi(a) is not inside pi(k), and neither R_{ka}(p) nor R_{ka'}(p),
    a' = (a)_{pi(k)}, is a Bang-Zsigmondy exception.
    """
    pi_a = {r for r, _ in brute_factor(a)}
    out = []
    for k in range(n // 2 + 1, n):
        pi_k = {r for r, _ in brute_factor(k)}
        if pi_a <= pi_k:
            continue
        a_prime = prod(r**e for r, e in brute_factor(a) if r in pi_k)
        if ppd_class_empty(k * a, p) or ppd_class_empty(k * a_prime, p):
            continue
        out.append(k)
    return out


def brute_artin_pairs(p, limit):
    """Odd primes n <= limit, n not dividing p, modulo which p has order
    n - 1, by repeated multiplication."""
    return [
        n for n in brute_primes(limit)
        if n != 2 and p % n and brute_order(p, n) == n - 1
    ]


def pow_ppd(i, n):
    """R_i(n): the primes r dividing n^i - 1 whose order is i, by plain pow.

    Stripping the gcd with every n^d - 1, d a proper divisor of i, leaves the
    primes of order exactly i; each is 1 mod i, so candidates r = ki + 1 are
    tried in increasing order up to the square root of what is left, which
    then is 1 or prime.  Work grows like sqrt(|n|^phi(i)) / i: keep it small.
    The prime 2 follows the e(2, n) residue convention.
    """
    m = abs(n**i - 1)
    for d in range(1, i):
        if i % d == 0:
            g = gcd(m, n**d - 1)
            while g > 1:
                m //= g
                g = gcd(m, g)
    found = set()
    r = i + 1
    while r * r <= m:
        if m % r == 0:
            found.add(r)
            while m % r == 0:
                m //= r
        r += i
    if m > 1:
        found.add(m)
    out = set()
    for r in found:
        if r == 2:
            continue
        assert pow(n, i, r) == 1
        if all(pow(n, k, r) != 1 for k in range(1, i)):
            out.add(r)
    if n % 2 and convention_order(2, n) == i:
        out.add(2)
    return out


def cyclotomic_by_division(i, n):
    """Phi_i(n) as n^i - 1 divided by Phi_d(n) for every proper divisor d of i,
    each of those found the same way, smallest divisor first."""
    values = {}
    for k in range(1, i + 1):
        if i % k:
            continue
        v = n**k - 1
        for d, phi_d in values.items():
            if k % d == 0:
                v, rest = divmod(v, phi_d)
                assert rest == 0, (k, n, d)
        values[k] = v
    return values[i]


def brent_rho(n, budget, s=2):
    """Brent-cycle Pollard rho on x^s + c with one gcd per evaluation, the
    reference for the batched rho: the same iterates, c sweep and charge.
    budget.remaining counts units of four modular multiplications, and an
    evaluation with its product costs s.bit_length() + s.bit_count() - 1 of
    them; what is left is written back in whole units, negative once an
    evaluation went unpaid.  Returns a divisor of n other than 1 and n, or
    None."""
    if n % 2 == 0:
        return 2
    cost = s.bit_length() + s.bit_count() - 1
    work = 4 * budget.remaining
    try:
        for c in range(1, 64):
            y, run, d = 2, 1, 1
            while d == 1:
                x = y
                for _ in range(run):
                    work -= cost
                    if work < 0:
                        return None
                    y = (pow(y, s, n) + c) % n
                    d = gcd(x - y, n)
                    if d != 1:
                        break
                run *= 2
            if d != n:
                return d
        return None
    finally:
        budget.remaining = work // 4


def altsym_edges(kind, n):
    """Primes up to n and the edge set of the prime graph of Alt(n) or
    Sym(n) by element orders: an element of order pq needs a p-cycle and a
    disjoint q-cycle, so odd p != q are adjacent iff p + q <= n; for 2 and an
    odd p that is p + 2 <= n in Sym, and p + 4 <= n in Alt, where the
    2-part must be a pair of transpositions to keep the element even."""
    two = 4 if kind == "alternating" else 2
    primes = brute_primes(n)
    edges = {
        frozenset((p, q))
        for p, q in combinations(primes, 2)
        if q + (two if p == 2 else p) <= n
    }
    return primes, edges


def altsym_rows_by_degree(top):
    """(n, primes, {kind: rows}) for n = 2..top: the bitset rows of the
    Sym(n) and Alt(n) prime graphs, bit j of rows[i] the edge between the
    i-th and j-th prime, grown one degree at a time from the edges whose rule
    (altsym_edges) first holds at n: the odd p < q with p + q = n, and 2
    with the odd prime n - 2 in Sym and n - 4 in Alt.  Alt's rows are given
    from n = 2 on, though Alt(n) is simple only from 5."""
    is_prime = set(brute_primes(top)).__contains__
    primes, index = [], {}
    rows = {"symmetric": [], "alternating": []}
    for n in range(2, top + 1):
        if is_prime(n):
            index[n] = len(primes)
            primes.append(n)
            for kind_rows in rows.values():
                kind_rows.append(0)
        odd = [(p, n - p) for p in primes[1:] if p < n - p and is_prime(n - p)]
        for kind, two in (("symmetric", 2), ("alternating", 4)):
            pairs = odd + [(2, n - two)] if n - two > 2 and is_prime(n - two) else odd
            for p, q in pairs:
                i, j = index[p], index[q]
                rows[kind][i] |= 1 << j
                rows[kind][j] |= 1 << i
        yield n, tuple(primes), {kind: tuple(kind_rows) for kind, kind_rows in rows.items()}


def adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for e in edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_is_split(vertices, edges):
    """Split check by trying every clique/independent bipartition.

    Subsets are bitmasks over the vertices in the given order; whether a
    subset is a clique (or independent) is read off the subset without its
    lowest vertex, so each of the 2^n subsets costs one row test.
    """
    index = {v: i for i, v in enumerate(vertices)}
    rows = [0] * len(index)
    for e in edges:
        u, v = (index[x] for x in e)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    full = (1 << len(rows)) - 1
    clique, indep = [True] * (full + 1), [True] * (full + 1)
    for mask in range(1, full + 1):
        rest = mask & (mask - 1)
        row = rows[(mask ^ rest).bit_length() - 1]
        clique[mask] = clique[rest] and row & rest == rest
        indep[mask] = indep[rest] and not row & rest
    return any(clique[mask] and indep[full ^ mask] for mask in range(full + 1))


def brute_has_forbidden(vertices, edges):
    """True iff some 4/5-subset induces 2K2, C4 or C5."""
    vs = list(vertices)
    adj = adjacency(vs, edges)

    def induced_edge_count(sub):
        return sum(1 for u, v in combinations(sub, 2) if v in adj[u])

    for sub in combinations(vs, 4):
        cnt = induced_edge_count(sub)
        degs = sorted(sum(1 for w in sub if w != v and w in adj[v]) for v in sub)
        if cnt == 2 and degs == [1, 1, 1, 1]:
            return True
        if cnt == 4 and degs == [2, 2, 2, 2]:
            return True
    for sub in combinations(vs, 5):
        cnt = induced_edge_count(sub)
        degs = [sum(1 for w in sub if w != v and w in adj[v]) for v in sub]
        if cnt == 5 and all(d == 2 for d in degs):
            return True
    return False


def brute_chromatic(vertices, edges):
    """Chromatic number by exhaustive k-coloring, for small graphs."""
    vs = list(vertices)
    adj = adjacency(vs, edges)
    n = len(vs)
    if n == 0:
        return 0

    def colorable(k):
        coloring = {}

        def place(i):
            if i == n:
                return True
            v = vs[i]
            for c in range(k):
                if all(coloring.get(u) != c for u in adj[v]):
                    coloring[v] = c
                    if place(i + 1):
                        return True
                    del coloring[v]
            return False

        return place(0)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    raise AssertionError("unreachable")


def graphs_on(n):
    """All labeled graphs on vertices 0..n-1 as edge sets."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def brute_first_forbidden(vertices, edges):
    """The first induced 2K2 or C4 among the 4-subsets, else the first C5
    among the 5-subsets, scanning in lexicographic order of the sorted
    vertices; None when there is none.

    Returns (kind, vertices) with the vertices ordered as the witness
    convention demands: a 2K2 as its two edges, in the order of the pairs
    (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) of the subset; a C4 or C5 as the
    cycle walked from the smallest vertex towards its smaller neighbour.
    """
    vs = sorted(vertices)
    adj = adjacency(vs, edges)
    for sub in combinations(vs, 4):
        present = [(u, v) for u, v in combinations(sub, 2) if v in adj[u]]
        touched = sorted(x for e in present for x in e)
        if len(present) == 2 and touched == sorted(sub):
            return "2K2", present[0] + present[1]
        degs = [sum(1 for w in sub if w in adj[v]) for v in sub]
        if len(present) == 4 and degs == [2, 2, 2, 2]:
            return "C4", _walk_cycle(sub, adj)
    for sub in combinations(vs, 5):
        count = sum(1 for u, v in combinations(sub, 2) if v in adj[u])
        if count == 5 and all(sum(1 for w in sub if w in adj[v]) == 2 for v in sub):
            return "C5", _walk_cycle(sub, adj)
    return None


def brute_quad_starts(vertices, edges):
    """The vertices that are the smallest of some induced 2K2 or C4, by
    trying every 4-subset of the sorted vertices."""
    adj = adjacency(vertices, edges)
    out = set()
    for sub in combinations(sorted(vertices), 4):
        if sub[0] not in out:
            inside = set(sub)
            degrees = {len(adj[v] & inside) for v in sub}
            if degrees in ({1}, {2}):  # a perfect matching or a 4-cycle
                out.add(sub[0])
    return out


def _walk_cycle(sub, adj):
    order = [sub[0]]
    prev = None
    while len(order) < len(sub):
        step = next(w for w in sub if w in adj[order[-1]] and w != prev)
        prev = order[-1]
        order.append(step)
    return tuple(order)


# -- graph documents and the true-twin quotient ------------------------------
# Labels are read by duck typing: an int, or an object with .name and
# .members.  Classes come back as plain (name, members) pairs.


def _label_order(label):
    if isinstance(label, int):
        return (0, label, "", ())
    return (1, 0, label.name, tuple(label.members))


def reference_graph_json(g):
    """The graph document as one whole-document json.dumps(doc, indent=2)."""

    def enc(label):
        if isinstance(label, int):
            return label
        return {"class": {"name": label.name, "members": list(label.members)}}

    doc = {
        "schema": "gksplit/graph/1",
        "vertices": [enc(v) for v in g.vertices],
        "edges": [[enc(u), enc(v)] for u, v in g.edges],
    }
    return json.dumps(doc, indent=2)


def _label_text(label, sep=""):
    if isinstance(label, int):
        return str(label)
    if label.members:
        return label.name + sep + "{" + ",".join(str(m) for m in label.members) + "}"
    return label.name


def reference_graph_dot(g):
    """Graphviz text with one line per vertex, then one line per edge."""
    lines = ["graph G {"]
    lines += [f'  "{_label_text(v, "=")}";' for v in g.vertices]
    lines += [f'  "{_label_text(u, "=")}" -- "{_label_text(v, "=")}";' for u, v in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_graph_table(g, title):
    """The CLI's table: the vertex line, then a counted edge list or 'none'."""
    lines = [title, f"vertices ({len(g.vertices)}): " + " ".join(_label_text(v) for v in g.vertices)]
    if g.edges:
        lines.append(f"edges ({len(g.edges)}):")
        lines += [f"  {_label_text(u)} -- {_label_text(v)}" for u, v in g.edges]
    else:
        lines.append("edges (0): none")
    return "\n".join(lines)


def reference_edges(vertices, edges):
    """Sorted vertices and edges of a simple graph, each edge oriented and
    the list sorted in label order."""
    vs = sorted(set(vertices), key=_label_order)
    pairs = {tuple(sorted(e, key=_label_order)) for e in edges}
    return vs, sorted(pairs, key=lambda e: (_label_order(e[0]), _label_order(e[1])))


def reference_components(vertices, edges):
    """Connected components as vertex sets, by depth-first search from the
    smallest vertex not yet reached, in label order."""
    vs = sorted(set(vertices), key=_label_order)
    adj = adjacency(vs, edges)
    seen, out = set(), []
    for root in vs:
        if root not in seen:
            comp, stack = {root}, [root]
            while stack:
                for w in adj[stack.pop()] - comp:
                    comp.add(w)
                    stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
    return out


def _class_label(group):
    """(name, members) of a class given in label order: named after its
    smallest vertex, members the union of the vertices' primes, or () when
    one of them has none."""
    head = group[0]
    name = str(head) if isinstance(head, int) else head.name
    primes = [{v} if isinstance(v, int) else set(v.members) for v in group]
    return (name, tuple(sorted(set().union(*primes)))) if all(primes) else (name, ())


def reference_compact(g):
    """The true-twin quotient by bucketing closed neighbourhoods and sorting.

    Returns (vertices, edges, class_map, class_contents) with every class
    written as (name, members) (``_class_label``).  ValueError when two
    classes get the same label.
    """
    adj = adjacency(g.vertices, g.edges)
    buckets = {}
    for v in g.vertices:
        buckets.setdefault(frozenset(adj[v]) | {v}, []).append(v)
    class_of = {}
    contents = {}
    for group in buckets.values():
        group = sorted(group, key=_label_order)
        label = _class_label(group)
        if label in contents:
            raise ValueError(f"two classes are both labelled {label}")
        contents[label] = frozenset(group)
        for v in group:
            class_of[v] = label
    edges = {tuple(sorted((class_of[u], class_of[v]))) for u, v in g.edges}
    return sorted(contents), sorted(e for e in edges if e[0] != e[1]), class_of, contents


# -- the split checks as loops over the set bits ------------------------------
# The package's mask tests, special test and degree route as they were before
# each became one reduction over the rows or a binary search, kept to test
# those rewrites against.  A graph is (vertices, rows): its labels in label
# order and one int bitset row per vertex.


def _set_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def generator_is_clique_mask(rows, sub):
    return all((rows[i] | 1 << i) & sub == sub for i in _set_bits(sub))


def generator_is_independent_mask(rows, sub):
    return not any(rows[i] & sub for i in _set_bits(sub))


def generator_dominator(rows, side, rest):
    """The first index of rest whose row holds all of side, or None."""
    return next((i for i in _set_bits(rest) if rows[i] & side == side), None)


def generator_is_split_degree(vertices, rows):
    """(split, m, clique, independent, special) of the Hammer-Simeone degree
    route, ties in label order; the last three are None when not split."""
    n = len(rows)
    if n == 0:
        return True, None, frozenset(), frozenset(), True
    degree = [row.bit_count() for row in rows]
    by_degree = sorted(range(n), key=degree.__getitem__, reverse=True)
    degs = [degree[i] for i in by_degree]
    m = max(i for i, d in enumerate(degs, start=1) if d >= i - 1)
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return False, m, None, None, None
    side = sum(1 << i for i in by_degree[:m])
    rest = (1 << n) - 1 & ~side
    clique = frozenset(vertices[i] for i in _set_bits(side))
    independent = frozenset(vertices[i] for i in _set_bits(rest))
    return True, m, clique, independent, generator_dominator(rows, side, rest) is None


def generator_validate_partition(vertices, rows, clique, independent, special):
    """(ok, reason) for the split partition (clique, independent) of the
    graph, the special condition demanded only when claimed."""
    if clique & independent:
        return False, f"C and I overlap on {sorted(clique & independent, key=_label_order)}"
    if clique | independent != set(vertices):
        return False, "C and I do not cover the vertex set"
    side = sum(1 << i for i, v in enumerate(vertices) if v in clique)
    rest = (1 << len(rows)) - 1 & ~side
    if not generator_is_clique_mask(rows, side):
        return False, "C is not a clique"
    if not generator_is_independent_mask(rows, rest):
        return False, "I is not independent"
    if special and (v := generator_dominator(rows, side, rest)) is not None:
        return False, f"{vertices[v]!r} in I is adjacent to all of C"
    return True, None


def head_pair_quotient(vertices, rows):
    """The true-twin quotient as (labels, rows), its adjacency read one head
    pair at a time.

    vertices are in label order and bit j of rows[i] is the edge between
    vertices i and j.  A class is the set of indices with one closed
    neighbourhood, its head the first of them; the classes are listed in the
    order of their labels (``_class_label``).  Bit d of class c's row is bit
    head(d) of the row of head(c): one itemgetter over that row's binary
    digits reads those pairs, in C, so the degree sweeps stay affordable.
    """
    n, top = len(vertices), 1 << len(vertices)
    buckets = {}
    for i, row in enumerate(rows):
        buckets.setdefault(row | 1 << i, []).append(i)
    classes = sorted((_class_label([vertices[i] for i in group]), group[0]) for group in buckets.values())
    if not classes:
        return [], []
    # bin(row | top) is "0b1" and then the n digits, bit j at index n + 2 - j
    pick = itemgetter(*[n + 2 - head for _, head in reversed(classes)])
    return [label for label, _ in classes], [int("".join(pick(bin(rows[head] | top))), 2) for _, head in classes]


# -- non-split graphs whose witness sits on the top indices -----------------


def witness_last_graph(n, top="C5", seed=0):
    """A split-like graph on 0..n-1 with its only forbidden subgraphs on top.

    The clique is 0..n//2-1 and a seeded random half of it hosts pendants,
    which fill the indices up to the top.  The top five indices are a C5
    joined to the whole clique ("C5"); for "2K2" the top seven are that C5
    and then an edge on the top two, also joined to the clique, so that edge
    and a C5 edge make an induced 2K2.  Returns (vertices, edges), the edges
    as sorted pairs in lexicographic order.  Only random() is drawn, whose
    stream is the same on every Python version.
    """
    rng = Random(seed)
    k = n // 2
    ring = list(range(n - (7 if top == "2K2" else 5), n - (2 if top == "2K2" else 0)))
    if ring[0] < k:
        raise ValueError(f"{n} vertices leave no room for the clique below the top")
    hosts = [v for v in range(k) if rng.random() < 0.5] or [0]
    edges = {(u, v) for u in range(k) for v in range(u + 1, k)}
    edges |= {(hosts[int(rng.random() * len(hosts))], p) for p in range(k, ring[0])}
    edges |= {(u, v) for u in range(k) for v in range(ring[0], n)}
    edges |= {tuple(sorted((ring[i], ring[(i + 1) % 5]))) for i in range(5)}
    if top == "2K2":
        edges.add((n - 2, n - 1))
    return list(range(n)), sorted(edges)


# -- number-theory kernels before the per-process memos -----------------------
# Verbatim copies of the rho search, the cyclotomic split and the order-index
# scan as they were before the rho kept a block's iterates, the split walked
# the divisors of k and the order indices read a divisor table, kept to test
# those rewrites against.  Only the names of the package helpers they call
# changed: parent_* for the copies here, brute_primes for primes_upto.

_RHO_BLOCK = 64


def parent_rho_factor(n, budget, s):
    """The parent's ``numtheory._rho_factor``: replays a block that hits with
    a second pow per step.  budget is an object with ``remaining``."""
    if n % 2 == 0:
        return 2
    cost = s.bit_length() + s.bit_count() - 1
    work = 4 * budget.remaining
    try:
        for c in range(1, 64):
            y, stretch, d = 2, 1, 1
            while d == 1:
                x, left = y, stretch
                stretch *= 2
                while left:
                    block = min(_RHO_BLOCK, left, work // cost)
                    if block <= 0:
                        work -= cost  # the evaluation the budget cannot pay for
                        return None
                    work -= block * cost
                    left -= block
                    y0, acc = y, 1
                    for _ in range(block):
                        y = (pow(y, s, n) + c) % n
                        acc = acc * (x - y) % n
                    if gcd(acc, n) == 1:
                        continue
                    # some difference of the block shares a factor with n: find the first
                    y = y0
                    for used in range(1, block + 1):
                        y = (pow(y, s, n) + c) % n
                        d = gcd(x - y, n)
                        if d != 1:
                            break
                    work += (block - used) * cost
                    break
            if d != n:
                return d
        return None
    finally:
        budget.remaining = work // 4


def parent_iroot(x, k):
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def parent_perfect_power(x):
    b, k = x, 1
    for e in brute_primes(x.bit_length()):
        if 1 << e > b:
            break
        r = parent_iroot(b, e)
        while r**e == b:
            b, k = r, k * e
            r = parent_iroot(b, e)
    return b, k


def parent_nu(n):
    return n if n % 4 == 0 else n // 2 if n % 2 == 0 else 2 * n


def parent_cyclotomic_split(i, n):
    """The parent's ``numtheory._cyclotomic_split``: scans range(1, i k + 1)."""
    if n < 0:
        i = parent_nu(i)
    b, k = parent_perfect_power(abs(n))
    top = i * k
    return b, [j for j in range(1, top + 1) if top % j == 0 and j // gcd(j, k) == i]


def parent_first_factors(factors):
    """The parent's ``groups._first_factors`` (without its memo): trial
    division up to sqrt(2f) for the divisors of each 2f."""
    first = {}
    for k, (f, s) in enumerate(factors, 1):
        for a in range(1, isqrt(2 * f) + 1):
            if 2 * f % a == 0:
                for e in (a, 2 * f // a):
                    if (f % e == 0) == (s == 1):
                        first.setdefault(e, k)
    return tuple(sorted(first.items()))
