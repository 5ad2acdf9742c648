"""Output checks that share no code with the package under test.

Every check recomputes what it needs with the arithmetic and graph code in
this file: its own sieve, its own Miller-Rabin test, multiplicative orders by
plain ``pow`` and a direct model of the alternating/symmetric prime graph.
A check returns ``None`` when the output is right and a one-line reason when
it is wrong.
"""

from __future__ import annotations

import json
import re

# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def sieve(limit: int) -> list[int]:
    """Primes <= limit, by crossing out multiples in a plain list."""
    flags = [True] * (limit + 1)
    out = []
    for k in range(2, limit + 1):
        if flags[k]:
            out.append(k)
            for m in range(k * k, limit + 1, k):
                flags[m] = False
    return out


_SMALL = sieve(200)


def is_prime(n: int) -> bool:
    """Strong-probable-prime test to the first 25 prime bases.

    Deterministic far beyond the integers the workloads meet (every
    composite below 3.3e24 fails one of the first 13 bases).
    """
    if n < 2:
        return False
    for p in _SMALL[:25]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL[:25]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_divisors(k: int) -> list[int]:
    """Prime divisors of a small positive integer by trial division."""
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def order_index(r: int, base: int) -> int | None:
    """Multiplicative order of base modulo the prime r, None if r divides base.

    For r = 2 the adjacency-criteria convention applies: 1 when base = 1
    (mod 4), 2 when base = 3 (mod 4).
    """
    if base % r == 0:
        return None
    if r == 2:
        return 1 if base % 4 == 1 else 2
    k = r - 1
    for ell in prime_divisors(r - 1):
        while k % ell == 0 and pow(base, k // ell, r) == 1:
            k //= ell
    return k


def has_order(r: int, base: int, k: int) -> bool:
    """True iff r is prime and the order index of base modulo r is exactly k."""
    if not is_prime(r):
        return False
    if r == 2:
        return order_index(2, base) == k
    if pow(base, k, r) != 1:
        return False
    return all(pow(base, k // ell, r) != 1 for ell in prime_divisors(k))


# ---------------------------------------------------------------------------
# alternating / symmetric prime graphs
# ---------------------------------------------------------------------------


class AltSymModel:
    """Prime graph of Alt(n) or Sym(n) from the element-order criterion.

    An element of order p*q (odd primes) needs p + q points; order 2p needs
    p + 2 points in Sym(n) and p + 4 in Alt(n) (an even permutation).
    """

    def __init__(self, kind: str, n: int):
        self.kind, self.n = kind, n
        self.primes = sieve(n)
        self._two = 2 if kind == "Sym" else 4

    def adjacent(self, p: int, q: int) -> bool:
        if p == q:
            return False
        if p == 2 or q == 2:
            return self._two + max(p, q) <= self.n
        return p + q <= self.n

    def edges(self) -> set[frozenset]:
        ps = self.primes
        return {
            frozenset((p, q))
            for i, p in enumerate(ps)
            for q in ps[i + 1 :]
            if self.adjacent(p, q)
        }

    def m_index(self) -> int:
        degs = sorted(
            (sum(1 for q in self.primes if self.adjacent(p, q)) for p in self.primes),
            reverse=True,
        )
        return max((i for i, d in enumerate(degs, 1) if d >= i - 1), default=0)

    def twin_classes(self) -> tuple[set[frozenset], set[frozenset]]:
        """Vertices and edges of the true-twin quotient, as member sets."""
        closed = {p: frozenset(q for q in self.primes if self.adjacent(p, q)) | {p} for p in self.primes}
        groups: dict[frozenset, set] = {}
        for p, nb in closed.items():
            groups.setdefault(nb, set()).add(p)
        classes = [frozenset(g) for g in groups.values()]
        cls_edges = set()
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                if self.adjacent(min(a), min(b)):
                    cls_edges.add(frozenset((a, b)))
        return set(classes), cls_edges


# ---------------------------------------------------------------------------
# parsers for the CLI's text forms
# ---------------------------------------------------------------------------

_SPLIT_HEAD = re.compile(r"^(.*): (split|NOT split) \(m = (\d+)\)$")
_PARTITION = re.compile(r"^C = \{(.*)\}  I = \{(.*)\}$")
_CLASS_TOKEN = re.compile(r"([^{},\s]+)(?:\{([0-9,]*)\})?")
_WITNESS = re.compile(r"^forbidden induced (2K2|C4|C5) on \{(.*)\}$")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def parse_classes(text: str) -> list[tuple[str, tuple[int, ...]]]:
    """Split ``R1{3}, R61, p{2}`` into (name, members) pairs, top level only."""
    out, depth, start = [], 0, 0
    items = []
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    items.append(text[start:])
    for item in items:
        item = item.strip()
        if not item:
            continue
        m = _CLASS_TOKEN.fullmatch(item)
        if m is None:
            raise ValueError(f"unparsable class {item!r}")
        out.append((m.group(1), tuple(_int_list(m.group(2) or ""))))
    return out


# ---------------------------------------------------------------------------
# checks, one per request kind
# ---------------------------------------------------------------------------


def _check_altsym_partition(model: AltSymModel, clique: set, indep: set, m: int) -> str | None:
    if clique | indep != set(model.primes) or clique & indep:
        return "C and I do not partition the primes up to n"
    cl = sorted(clique)
    if any(not model.adjacent(p, q) for i, p in enumerate(cl) for q in cl[i + 1 :]):
        return "C is not a clique"
    ind = sorted(indep)
    if any(model.adjacent(p, q) for i, p in enumerate(ind) for q in ind[i + 1 :]):
        return "I is not independent"
    half = model.n // 2
    if any(p <= half for p in indep):
        return "a prime <= n/2 sits in I"
    if m != model.m_index():
        return f"m = {m}, expected {model.m_index()}"
    return None


def check_split_altsym(out: str, kind: str, n: int, fmt: str) -> str | None:
    model = AltSymModel(kind, n)
    if fmt == "json":
        doc = json.loads(out)
        if doc.get("split") is not True:
            return "verdict is not split"
        part = doc["partition"]
        return _check_altsym_partition(model, set(part["clique"]), set(part["independent"]), doc["m_index"])
    lines = out.splitlines()
    head = _SPLIT_HEAD.match(lines[0]) if lines else None
    if head is None or head.group(2) != "split":
        return "verdict is not split"
    part = _PARTITION.match(lines[1]) if len(lines) > 1 else None
    if part is None:
        return "no partition line"
    return _check_altsym_partition(
        model, set(_int_list(part.group(1))), set(_int_list(part.group(2))), int(head.group(3))
    )


def check_theorem_a(out: str, top: int) -> str | None:
    expected = [f"PASS symmetric n={n}" for n in range(2, top + 1)]
    expected += [f"PASS alternating n={n}" for n in range(5, top + 1)]
    expected.append(f"PASS theorem-a up to n={top}")
    if out.splitlines() != expected:
        return "theorem-a lines differ from the expected PASS list"
    return None


_DOT_VERTEX = re.compile(r'^  "([^"]+)";$')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -- "([^"]+)";$')
_DOT_LABEL = re.compile(r"^(\d+)(?:=\{([0-9,]+)\})?$")


def _dot_members(text: str) -> frozenset:
    m = _DOT_LABEL.match(text)
    if m is None:
        raise ValueError(f"unparsable DOT label {text!r}")
    return frozenset(_int_list(m.group(2))) if m.group(2) else frozenset((int(m.group(1)),))


def _json_members(label) -> frozenset:
    if isinstance(label, int):
        return frozenset((label,))
    return frozenset(label["class"]["members"])


def _graph_doc(out: str, fmt: str) -> tuple[list[frozenset], list[frozenset]]:
    """(vertex member sets, edges as pairs of member sets) of a JSON or DOT graph."""
    if fmt == "json":
        doc = json.loads(out)
        verts = [_json_members(v) for v in doc["vertices"]]
        edges = [frozenset((_json_members(u), _json_members(v))) for u, v in doc["edges"]]
        return verts, edges
    lines = out.rstrip("\n").splitlines()
    if not lines or lines[0] != "graph G {" or lines[-1] != "}":
        raise ValueError("not a DOT graph")
    verts, edges = [], []
    for line in lines[1:-1]:
        e = _DOT_EDGE.match(line)
        if e:
            edges.append(frozenset((_dot_members(e.group(1)), _dot_members(e.group(2)))))
            continue
        v = _DOT_VERTEX.match(line)
        if v is None:
            raise ValueError(f"unparsable DOT line {line!r}")
        verts.append(_dot_members(v.group(1)))
    return verts, edges


def check_graph_export(out: str, verb: str, kind: str, n: int, fmt: str) -> str | None:
    model = AltSymModel(kind, n)
    verts, edges = _graph_doc(out, fmt)
    if len(set(edges)) != len(edges) or len(set(verts)) != len(verts):
        return "repeated vertex or edge"
    if verb == "build":
        want_v = {frozenset((p,)) for p in model.primes}
        want_e = {frozenset(frozenset((x,)) for x in e) for e in model.edges()}
    else:
        want_v, want_e = model.twin_classes()
    if set(verts) != want_v:
        return f"{verb} vertex set differs from the model"
    if set(edges) != want_e:
        return f"{verb} edge set differs from the model"
    return None


def check_classes_have_order(classes, base: int) -> str | None:
    """Every member of a printed class R<e>{...} has order index e modulo base."""
    for name, members in classes:
        if not re.fullmatch(r"R\d+", name):
            continue
        e = int(name[1:])
        for r in members:
            if not has_order(r, base, e):
                return f"{r} in {name} does not have order index {e} for base {base}"
    return None


def check_theorem_d(out: str, descriptor: str, base: int | None) -> tuple[str | None, int, int]:
    """(reason, printed classes, classes without members)."""
    lines = out.splitlines()
    if not lines or lines[0] != f"PASS {descriptor}: compact prime graph split":
        return "no PASS line for the descriptor", 0, 0
    part = _PARTITION.match(lines[1]) if len(lines) > 1 else None
    if part is None:
        return "no partition line", 0, 0
    classes = parse_classes(part.group(1)) + parse_classes(part.group(2))
    bare = sum(1 for _, members in classes if not members)
    reason = check_classes_have_order(classes, base) if base is not None else None
    return reason, len(classes), bare


def check_all_pass(out: str) -> str | None:
    lines = out.splitlines()
    if not lines or any(not line.startswith("PASS ") for line in lines):
        return "a campaign line is not PASS"
    return None


def check_zsigmondy(out: str, top: int) -> str | None:
    want = f"PASS primitive-divisor exceptions, |base| <= {top}, index <= 12"
    return None if out.splitlines() == [want] else "zsigmondy campaign did not PASS"


def _divides(a: int, b: int) -> bool:
    return b % a == 0


def check_prop71(out: str, n: int, p: int, a: int) -> str | None:
    doc = json.loads(out)
    if doc.get("kind") != "nonsplit" or doc["witness"]["kind"] != "2K2":
        return "not a 2K2 nonsplit certificate"
    r1, r2, s1, s2 = doc["witness"]["vertices"]
    ctx = doc["context"]
    q, k1, k2 = p**a, ctx["k1"], ctx["k2"]
    if ctx["q"] != q:
        return "certificate field size differs from p^a"
    if not (2 * k1 > n and 2 * k2 > n and k1 < n and k2 < n and k1 + k2 > n):
        return "order indices do not lie in (n/2, n)"
    if _divides(k1, k2) or _divides(k2, k1):
        return "one order index divides the other"
    if r1 == r2 or s1 == s2:
        return "witness primes repeat"
    for r, k in ((r1, k1), (r2, k1), (s1, k2), (s2, k2)):
        if not has_order(r, q, k):
            return f"order of {q} modulo {r} is not {k}"
    return None


def check_prop73(out: str, n: int, p: int) -> str | None:
    doc = json.loads(out)
    if doc.get("kind") != "nonsplit":
        return "not a nonsplit certificate"
    if not (is_prime(n) and is_prime(p) and order_index(n, p) == n - 1):
        return f"{p} is not a primitive root modulo the prime {n}"
    for s in doc["steps"]:
        c = s.get("check") or {}
        if c.get("op") == "mult_order" and not has_order(c["r"], c["base"], c["equals"]):
            return f"step fails: {s['claim']}"
        if c.get("op") == "is_prime" and not is_prime(c["n"]):
            return f"step fails: {s['claim']}"
    return None


def check_psl11(out: str) -> str | None:
    lines = out.splitlines()
    if len(lines) < 2 or not lines[1].startswith("vertices (9): "):
        return "psl11 graph does not have 9 vertices"
    classes = parse_classes(lines[1][len("vertices (9): ") :].replace(" ", ","))
    if len(classes) != 9:
        return "psl11 graph does not have 9 vertices"
    return check_classes_have_order(classes, 2)


def induced_kind(vertices: list[int], adj: dict[int, set], kind: str) -> bool:
    """True iff vertices (in the reported order) induce the named subgraph."""
    k = len(vertices)
    if len(set(vertices)) != k or any(v not in adj for v in vertices):
        return False
    if kind == "2K2" and k == 4:
        want = {frozenset(vertices[0:2]), frozenset(vertices[2:4])}
    elif kind in ("C4", "C5") and k == int(kind[1]):
        want = {frozenset((vertices[i], vertices[(i + 1) % k])) for i in range(k)}
    else:
        return False
    have = {
        frozenset((u, v))
        for i, u in enumerate(vertices)
        for v in vertices[i + 1 :]
        if v in adj[u]
    }
    return have == want


def m22_solvable_adjacency(data_path: str) -> dict[int, set]:
    """The M22 solvable-graph edges, read straight from the package's data file."""
    with open(data_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    row = next(g for g in doc["groups"] if g["name"] == "M22")
    adj = {p: set() for p, _ in row["order_factors"]}
    for u, v in row["solvable_edges"]:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def check_refutation(out: str, fmt: str, adj: dict[int, set]) -> str | None:
    if fmt == "json":
        doc = json.loads(out)
        if doc.get("split") is not False:
            return "verdict is not NOT split"
        kind, verts = doc["witness"]["kind"], doc["witness"]["vertices"]
    else:
        lines = out.splitlines()
        head = _SPLIT_HEAD.match(lines[0]) if lines else None
        wit = _WITNESS.match(lines[1]) if len(lines) > 1 else None
        if head is None or head.group(2) != "NOT split" or wit is None:
            return "verdict is not NOT split"
        kind, verts = wit.group(1), _int_list(wit.group(2))
    if not induced_kind(verts, adj, kind):
        return f"reported {kind} on {verts} is not induced in the input"
    return None
