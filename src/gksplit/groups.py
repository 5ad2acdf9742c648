"""Group descriptors, exact orders, prime spectra, and spectrum-built prime graphs.

Descriptors cover alternating and symmetric groups, the 26 sporadic groups
(plus the Tits group, a sporadic-style descriptor named 2F4(2)'),
classical groups A_n(q), 2A_n(q), B_n(q), C_n(q), D_n(q), 2D_n(q), and the
exceptional families.  Construction enforces simplicity (A1(2), A1(3), B2(2),
2B2(2), G2(2), 2G2(3), 2F4(2) and friends are rejected) and field-size
constraints for the Suzuki and Ree families.  Isomorphic small aliases are
normalized: C2 = B2, D3 = A3, 2D3 = 2A3, 2D2(q) = A1(q^2).  Descriptor text
is parsed here too, by ``parse_descriptor``, for every caller.

Orders are evaluated exactly from the standard product formulas with their
gcd divisors; sporadic orders are embedded constants shipped as a structured
resource together with the split-partition tables and witness sets.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources
from math import comb, factorial, gcd, isqrt, lcm, prod
from typing import NamedTuple

from . import numtheory as nt
from .errors import (
    DescriptorSyntaxError,
    InputTooLarge,
    InternalInconsistency,
    InvalidField,
    MalformedInput,
    NotSimple,
    SpectrumError,
    UnsupportedFamily,
)
from .graph import Graph, json_typed, load_document
from .splitcheck import SplitPartition

CLASSICAL_FAMILIES = ("A", "2A", "B", "C", "D", "2D")
EXCEPTIONAL_FAMILIES = ("G2", "F4", "E6", "2E6", "E7", "E8", "2B2", "2G2", "2F4", "3D4")

TITS_NAME = "2F4(2)'"
#: every name that denotes the Tits group
TITS_ALIASES = (TITS_NAME, "Tits", "tits")


class GroupDescriptor(NamedTuple):
    """Algebraic identity of a finite simple group."""

    kind: str  # alternating | symmetric | sporadic | classical | exceptional
    family: str = ""
    n: int = 0
    q: int = 0
    name: str = ""

    @property
    def tits(self) -> bool:
        """Whether this is the Tits group, carried as a sporadic-style descriptor."""
        return self.kind == "sporadic" and self.name == TITS_NAME

    def __str__(self):
        if self.kind == "alternating":
            return f"Alt({self.n})"
        if self.kind == "symmetric":
            return f"Sym({self.n})"
        if self.kind == "sporadic":
            return self.name
        return f"{self.family}{self.n if self.kind == 'classical' else ''}({self.q})"


def char_and_degree(q: int) -> tuple[int, int]:
    """Write the prime power q as p^a; raises InvalidField otherwise.

    q = b^k with b no perfect power, and q is a prime power exactly when b
    is prime: one decision with no factoring and no budget.
    """
    if q < 2:
        raise InvalidField(f"field size must be at least 2, got {q}")
    p, a = nt._perfect_power(q)
    if not nt.is_prime(p):
        raise InvalidField(f"{q} is not a prime power")
    return p, a


#: Largest Alt/Sym degree accepted.  The prime graph of degree n has pi(n)
#: vertices and a row of pi(n) bits per vertex: about 770 MB at 10^6.
MAX_PERM_DEGREE = 10**6


def _perm_degree(name: str, n: int) -> int:
    if n > MAX_PERM_DEGREE:
        raise InputTooLarge(f"{name}({n}): degree above the ceiling {MAX_PERM_DEGREE}")
    return n


def alternating(n: int) -> GroupDescriptor:
    if n < 5:
        raise NotSimple(f"Alt({n}) is not simple; degree must be at least 5")
    return GroupDescriptor("alternating", n=_perm_degree("Alt", n))


def symmetric(n: int) -> GroupDescriptor:
    if n < 2:
        raise NotSimple(f"Sym({n}) needs degree at least 2")
    return GroupDescriptor("symmetric", n=_perm_degree("Sym", n))


def sporadic(name: str) -> GroupDescriptor:
    if name in TITS_ALIASES:
        return GroupDescriptor("sporadic", name=TITS_NAME)
    record = sporadic_record(name)
    return GroupDescriptor("sporadic", name=record.name)


def classical(family: str, n: int, q: int) -> GroupDescriptor:
    if family not in CLASSICAL_FAMILIES:
        raise UnsupportedFamily(f"unknown classical family {family!r}")
    char_and_degree(q)
    mins = {"A": 1, "2A": 2, "B": 2, "C": 2, "D": 3, "2D": 2}
    if n < mins[family]:
        raise NotSimple(f"{family}{n}({q}): rank must be at least {mins[family]}")
    # Small non-simple cases.
    if family == "A" and n == 1 and q in (2, 3):
        raise NotSimple(f"A1({q}) is solvable, not simple")
    if family == "2A" and n == 2 and q == 2:
        raise NotSimple("2A2(2) is solvable, not simple")
    if family in ("B", "C") and n == 2 and q == 2:
        raise NotSimple(f"{family}2(2) is not simple (isomorphic to Sym(6))")
    # Canonical aliases.
    if family == "C" and n == 2:
        family = "B"
    if family == "D" and n == 3:
        family, n = "A", 3
    if family == "2D" and n == 3:
        family, n = "2A", 3
    if family == "2D" and n == 2:
        return classical("A", 1, q * q)
    return GroupDescriptor("classical", family=family, n=n, q=q)


def exceptional(family: str, q: int) -> GroupDescriptor:
    if family not in EXCEPTIONAL_FAMILIES:
        raise UnsupportedFamily(f"unknown exceptional family {family!r}")
    p, a = char_and_degree(q)
    if family == "G2" and q == 2:
        raise NotSimple("G2(2) is not simple (its derived subgroup is 2A2(3))")
    if family in ("2B2", "2F4"):
        if p != 2 or a % 2 == 0:
            raise InvalidField(f"{family} needs q = 2^(2m+1), got {q}")
        if q == 2:
            if family == "2B2":
                raise NotSimple("2B2(2) is solvable, not simple")
            raise NotSimple("2F4(2) is not simple; its derived subgroup is the Tits group 2F4(2)'")
    if family == "2G2":
        if p != 3 or a % 2 == 0:
            raise InvalidField(f"2G2 needs q = 3^(2m+1), got {q}")
        if q == 3:
            raise NotSimple("2G2(3) is not simple (its derived subgroup is A1(8))")
    return GroupDescriptor("exceptional", family=family, q=q)


_LIE_RE = re.compile(r"^([23]?)([A-G])(\d+)\((\d+)\)$")
_PERM_RE = re.compile(r"^(Alt|Sym)\((\d+)\)$", re.IGNORECASE)


def _number(m: re.Match, group: int) -> int:
    """One decimal field of a matched descriptor; int() refuses more than
    4,300 digits with a ValueError."""
    try:
        return int(m.group(group))
    except ValueError:
        raise DescriptorSyntaxError(f"number of {len(m.group(group))} digits is too long", m.start(group)) from None


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse a descriptor string; syntax errors carry the offending position.

    Descriptors follow the order-table symbols: ``Alt(12)``, ``Sym(9)``,
    ``A3(4)``, ``2A4(9)``, ``B2(3)``, ``D7(5)``, ``2D4(3)``, ``G2(4)``,
    ``2B2(32)``, ``3D4(2)``, ``E8(5)``, sporadic names (``M22``, ``Co1``,
    ``Fi24'``, ``HN``, ...), and ``2F4(2)'`` (or ``Tits``).
    """
    text = text.strip()
    if not text:
        raise DescriptorSyntaxError("empty descriptor", 0)
    m = _PERM_RE.match(text)
    if m:
        n = _number(m, 2)
        if m.group(1).lower() == "alt":
            return alternating(n)
        return symmetric(n)
    m = _LIE_RE.match(text)
    if m:
        twist, letter, sub, q = m.group(1), m.group(2), _number(m, 3), _number(m, 4)
        family = f"{twist}{letter}{sub}"
        if family in EXCEPTIONAL_FAMILIES:
            return exceptional(family, q)
        if letter in ("A", "B", "C", "D") and twist in ("", "2"):
            return classical(f"{twist}{letter}", sub, q)
        raise DescriptorSyntaxError(f"unknown family {family!r} in {text!r}", 0)
    try:
        return sporadic(text)
    except UnsupportedFamily:
        pass
    for pos, ch in enumerate(text):
        if not (ch.isalnum() or ch in "()'"):
            raise DescriptorSyntaxError(f"unexpected character {ch!r}", pos)
    if "(" in text and not text.rstrip("'").endswith(")"):
        raise DescriptorSyntaxError("missing closing parenthesis", len(text))
    raise DescriptorSyntaxError(f"cannot parse group descriptor {text!r}", 0)


def prk(d: GroupDescriptor) -> int:
    """Dimension for linear/unitary groups, Lie rank for symplectic/orthogonal."""
    if d.kind != "classical":
        raise UnsupportedFamily(f"prk is defined for classical groups, not {d}")
    return d.n + 1 if d.family in ("A", "2A") else d.n


#: exceptional family -> (N, degrees d with a factor q^d - 1, degrees d with a
#: factor q^d + 1) of its order formula
_EXCEPTIONAL_DEGREES = {
    "G2": (6, (2, 6), ()),
    "F4": (24, (2, 6, 8, 12), ()),
    "E6": (36, (2, 5, 6, 8, 9, 12), ()),
    "2E6": (36, (2, 6, 8, 12), (5, 9)),
    "E7": (63, (2, 6, 8, 10, 12, 14, 18), ()),
    "E8": (120, (2, 8, 12, 14, 18, 20, 24, 30), ()),
    "2B2": (2, (1,), (2,)),
    "2G2": (3, (1,), (3,)),
    "2F4": (12, (1, 4), (3, 6)),
    "3D4": (12, (2, 6, 12), ()),
}


def _order_rule(d: GroupDescriptor) -> tuple[int, list[tuple[int, int]], int]:
    """(N, factors, divisor): the order of the Lie-type group d is q^N times
    the product of q^e - s over its factors (e, s), s = +-1, divided by the
    divisor.  A classical group lists one factor per k = 1..prk(d): q^k - 1
    (linear), q^k - (-1)^k (unitary), q^2k - 1 (symplectic and orthogonal),
    with q^n -+ 1 in place of the last for D_n and 2D_n.  The divisor is the
    gcd of the formula, times q -+ 1 for linear and unitary groups, and for
    3D4 it is q^4 - 1, which turns its factor q^12 - 1 into q^8 + q^4 + 1."""
    q, n, family = d.q, d.n, d.family
    if d.kind == "exceptional" and family in _EXCEPTIONAL_DEGREES:
        top, minus, plus = _EXCEPTIONAL_DEGREES[family]
        divisor = {"E6": gcd(3, q - 1), "2E6": gcd(3, q + 1), "E7": gcd(2, q - 1), "3D4": q**4 - 1}.get(family, 1)
        return top, [(e, 1) for e in minus] + [(e, -1) for e in plus], divisor
    evens = [(2 * k, 1) for k in range(1, n + 1)]
    if family == "A":
        return comb(n + 1, 2), [(k, 1) for k in range(1, n + 2)], (q - 1) * gcd(n + 1, q - 1)
    if family == "2A":
        return comb(n + 1, 2), [(k, (-1) ** k) for k in range(1, n + 2)], (q + 1) * gcd(n + 1, q + 1)
    if family in ("B", "C"):
        return n * n, evens, gcd(2, q - 1)
    if family in ("D", "2D"):
        s = 1 if family == "D" else -1
        return n * (n - 1), [*evens[:-1], (n, s)], gcd(4, q**n - s)
    raise UnsupportedFamily(f"no order formula for {d}")


def order_indices(d: GroupDescriptor) -> tuple[tuple[int, int], ...]:
    """(e, m) in increasing e for each order index e of the Lie-type group d:
    Phi_e(q) divides a factor q^f - s of ``_order_rule`` (e | f for s = 1;
    e | 2f but not f for s = -1), and m is the position, from 1, of the
    first such factor.  For a classical group, whose k-th factor is the k-th
    of its order formula, m is the phi-value of R_e(q)."""
    return _first_factors(tuple(_order_rule(d)[1]))


@lru_cache(maxsize=1024)
def _first_factors(factors: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """order_indices of a factor list, which does not depend on q."""
    first = {}
    for k, (f, s) in enumerate(factors, 1):
        for a in range(1, isqrt(2 * f) + 1):
            if 2 * f % a == 0:
                for e in (a, 2 * f // a):
                    if (f % e == 0) == (s == 1):
                        first.setdefault(e, k)
    return tuple(sorted(first.items()))


def order(d: GroupDescriptor) -> int:
    """Exact group order."""
    if d.kind == "alternating":
        return factorial(d.n) // 2
    if d.kind == "symmetric":
        return factorial(d.n)
    if d.kind == "sporadic":
        value = 1
        for p, e in _sporadic_order_factors(d.name):
            value *= p**e
        return value
    top, factors, divisor = _order_rule(d)
    value = d.q**top * prod(d.q**e - s for e, s in factors)
    if value % divisor:
        raise InternalInconsistency(f"order of {d} is not divisible by {divisor}")
    return value // divisor


def maximal_elements(values) -> frozenset[int]:
    """The antichain of divisibility-maximal elements of a set of integers."""
    vals = sorted(set(values))
    out = [v for v in vals if not any(w != v and w % v == 0 for w in vals)]
    return frozenset(out)


class _SpectrumFields(NamedTuple):
    group: GroupDescriptor
    mu: frozenset[int]


class SpectrumData(_SpectrumFields):
    """The maximal element orders mu(G) of a group.

    Invariants: mu is an antichain under divisibility, and every prime
    dividing an element of mu divides the group order.  The constructor
    raises SpectrumError otherwise (``_make`` and ``_replace`` do not check).
    """

    __slots__ = ()

    def __new__(cls, group: GroupDescriptor, mu: frozenset[int]):
        if not mu:
            raise SpectrumError(f"empty spectrum for {group}")
        for m in mu:
            if m < 1:
                raise SpectrumError(f"element order {m} is not positive")
            if any(w != m and w % m == 0 for w in mu):
                raise SpectrumError(f"{m} divides another element of mu: not an antichain")
        total = _order_primes(group)
        for m in mu:
            if nt.pi_part(m, total) != m:
                raise SpectrumError(f"element order {m} has a prime that does not divide |{group}|")
        return super().__new__(cls, group, mu)


def spectrum_from_json(text: str) -> SpectrumData:
    """The spectrum document ``{"group": descriptor, "mu": [orders...]}``.

    group is a descriptor string and mu a list of positive JSON integers,
    kept as its divisibility-maximal elements, whose primes must cover the
    group's prime spectrum; MalformedInput or SpectrumError otherwise.
    """
    doc = load_document(text, "spectrum")
    try:
        group, mu = doc["group"], doc["mu"]
    except KeyError as exc:
        raise MalformedInput(f"spectrum document lacks field {exc}") from None
    group = json_typed(group, str, "spectrum group")
    mu = [json_typed(x, int, "spectrum element order") for x in json_typed(mu, list, "spectrum mu")]
    if any(m < 1 for m in mu):
        raise MalformedInput(f"spectrum element orders must be positive, got {sorted(mu)}")
    d = parse_descriptor(group)
    data = SpectrumData(d, maximal_elements(mu))
    if not spectrum_covers(data):
        raise SpectrumError(f"spectrum primes do not cover the prime spectrum of {d}")
    return data


def spectrum_covers(s: SpectrumData) -> bool:
    """True iff lcm(mu) and the group order have the same primes, by pi-parts
    in both directions with no factoring."""
    period, total = lcm(*s.mu), _order_primes(s.group)
    return nt.pi_part(period, total) == period and nt.pi_part(total, period) == total


def _order_primes(d: GroupDescriptor) -> int:
    """An integer with the primes of |d|: for Alt(n) and Sym(n) the product of
    the primes up to n, far smaller than n!; else the order itself."""
    level = nt.primes_upto(d.n) if d.kind in ("alternating", "symmetric") else [order(d)]
    while len(level) > 1:  # a product tree: one running product is quadratic
        level = [prod(level[k : k + 2]) for k in range(0, len(level), 2)]
    return level[0]


def spectrum_formulas(d: GroupDescriptor) -> SpectrumData:
    """Closed-form mu(G), the published list normalized to its
    divisibility-maximal elements, for the Tits group and the closed-form
    diagram groups of ``gkbuild.kind_of``; UnsupportedFamily for any other."""
    if d.kind == "sporadic" and d.tits:
        return SpectrumData(d, frozenset({12, 13, 16, 20}))
    if d.kind == "classical" and d.family == "A" and d.n == 1:
        q = d.q
        p, _ = char_and_degree(q)
        k = gcd(2, q - 1)
        mu = {p, (q - 1) // k, (q + 1) // k}
        mu.discard(1)
        return SpectrumData(d, maximal_elements(mu))
    if d.kind == "classical" and d.family == "B" and d.n == 2:
        q = d.q
        p, _ = char_and_degree(q)
        if p in (2, 3):
            k = gcd(2, p - 1)
            mu = {(q * q + 1) // k, (q * q - 1) // k, p * (q + 1), p * (q - 1), p * p}
        else:
            mu = {(q * q + 1) // 2, (q * q - 1) // 2, p * (q + 1), p * (q - 1)}
        return SpectrumData(d, maximal_elements(mu))
    if d.kind == "classical" and d.family in ("B", "C") and d.n == 3 and d.q == 3:
        return SpectrumData(d, frozenset({8, 12, 13, 14, 18, 20}))
    if d.kind == "exceptional" and d.family == "2B2":
        q = d.q
        s = isqrt(2 * q)
        return SpectrumData(d, maximal_elements({4, q - 1, q - s + 1, q + s + 1}))
    if d.kind == "exceptional" and d.family == "2G2":
        q = d.q
        s = isqrt(3 * q)
        mu = {6, 9, q - 1, (q + 1) // 2, q - s + 1, q + s + 1}
        return SpectrumData(d, maximal_elements(mu))
    raise UnsupportedFamily(f"no closed-form spectrum for {d}")


def gk_from_spectrum(s: SpectrumData, budget: int = nt.DEFAULT_BUDGET) -> Graph:
    """The prime graph determined by mu: primes r, s adjacent iff rs divides
    some maximal order.  Each element of mu is factored within budget."""
    pi_of = {m: nt.prime_set(m, budget) for m in s.mu}
    vertices = set()
    for pi in pi_of.values():
        vertices |= pi
    edges = set()
    for m, pi in pi_of.items():
        primes = sorted(pi)
        for i, r in enumerate(primes):
            for t in primes[i + 1 :]:
                if m % (r * t) == 0:
                    edges.add((r, t))
    return Graph(vertices, edges)


# ---------------------------------------------------------------------------
# Embedded sporadic dataset
# ---------------------------------------------------------------------------


class SporadicRecord(NamedTuple):
    name: str
    aliases: tuple[str, ...]
    order_factors: tuple[tuple[int, int], ...]
    prime_partition: SplitPartition
    solvable_partition: SplitPartition | None
    solvable_witness: tuple[int, ...] | None
    solvable_edges: tuple[tuple[int, int], ...] | None
    notes: str | None

    @property
    def prime_spectrum(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.order_factors)


_TITS_ORDER_FACTORS = ((2, 11), (3, 3), (5, 2), (13, 1))

_TABLE: list[SporadicRecord] | None = None
_BY_NAME: dict[str, SporadicRecord] = {}


def _load_table() -> list[SporadicRecord]:
    """The sporadic records, read once.  Each prime and solvable partition
    must cover the primes of the group's order without overlap; the one
    check of the table, made before any record is used."""
    global _TABLE
    if _TABLE is not None:
        return _TABLE
    text = resources.files("gksplit.data").joinpath("sporadic.json").read_text()
    doc = json.loads(text)
    records = []
    for row in doc["groups"]:
        rec = SporadicRecord(
            name=row["name"],
            aliases=tuple(row["aliases"]),
            order_factors=tuple((int(p), int(e)) for p, e in row["order_factors"]),
            prime_partition=_partition(row["prime_partition"]),
            solvable_partition=_partition(row["solvable_partition"]),
            solvable_witness=tuple(row["solvable_witness"]) if row["solvable_witness"] else None,
            solvable_edges=tuple(tuple(e) for e in row["solvable_edges"]) if row["solvable_edges"] else None,
            notes=row["notes"],
        )
        pi = rec.prime_spectrum
        for part in (rec.prime_partition, rec.solvable_partition):
            if part is not None and (part.clique | part.independent != pi or part.clique & part.independent):
                raise InternalInconsistency(f"{rec.name}: a table partition does not split the primes {sorted(pi)}")
        records.append(rec)
        _BY_NAME[rec.name.lower()] = rec
        for alias in rec.aliases:
            _BY_NAME[alias.lower()] = rec
    _TABLE = records
    return records


def _partition(block) -> SplitPartition | None:
    if block is None:
        return None
    return SplitPartition(frozenset(block["clique"]), frozenset(block["independent"]))


def sporadic_table() -> list[SporadicRecord]:
    """All 26 embedded sporadic records."""
    return list(_load_table())


def sporadic_record(name: str) -> SporadicRecord:
    _load_table()
    try:
        return _BY_NAME[name.lower().replace("o'n", "on")]
    except KeyError:
        raise UnsupportedFamily(f"unknown sporadic group {name!r}") from None


def _sporadic_order_factors(name: str) -> tuple[tuple[int, int], ...]:
    if name == TITS_NAME:
        return _TITS_ORDER_FACTORS
    return sporadic_record(name).order_factors
