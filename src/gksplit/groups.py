"""Group descriptors, exact orders, prime spectra, and spectrum-built prime graphs.

Descriptors cover alternating and symmetric groups, the 26 sporadic groups
(plus the Tits group, carried as a sporadic-style descriptor with a flag),
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
from importlib import resources
from math import comb, factorial, gcd, isqrt
from typing import NamedTuple

from . import numtheory as nt
from .errors import (
    DescriptorSyntaxError,
    InternalInconsistency,
    InvalidField,
    NotSimple,
    SpectrumError,
    UnsupportedFamily,
)
from .graph import Graph
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
    tits: bool = False

    def __str__(self):
        if self.kind == "alternating":
            return f"Alt({self.n})"
        if self.kind == "symmetric":
            return f"Sym({self.n})"
        if self.kind == "sporadic":
            return self.name
        return f"{self.family}{self.n if self.kind == 'classical' else ''}({self.q})"


def char_and_degree(q: int) -> tuple[int, int]:
    """Write the prime power q as p^a; raises InvalidField otherwise."""
    if q < 2:
        raise InvalidField(f"field size must be at least 2, got {q}")
    facs = nt.factor(q).factors
    if len(facs) != 1:
        raise InvalidField(f"{q} is not a prime power")
    p, a = facs[0]
    return p, a


def alternating(n: int) -> GroupDescriptor:
    if n < 5:
        raise NotSimple(f"Alt({n}) is not simple; degree must be at least 5")
    return GroupDescriptor("alternating", n=n)


def symmetric(n: int) -> GroupDescriptor:
    if n < 2:
        raise NotSimple(f"Sym({n}) needs degree at least 2")
    return GroupDescriptor("symmetric", n=n)


def sporadic(name: str) -> GroupDescriptor:
    if name in TITS_ALIASES:
        return GroupDescriptor("sporadic", name=TITS_NAME, tits=True)
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
        n = int(m.group(2))
        if m.group(1).lower() == "alt":
            return alternating(n)
        return symmetric(n)
    m = _LIE_RE.match(text)
    if m:
        twist, letter, sub, q = m.group(1), m.group(2), int(m.group(3)), int(m.group(4))
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


def epsilon(d: GroupDescriptor) -> int:
    if d.family == "A":
        return 1
    if d.family == "2A":
        return -1
    raise UnsupportedFamily(f"{d} has no sign epsilon")


def _f4_parts(q: int) -> list[int]:
    return [q**24, q**12 - 1, q**8 - 1, q**6 - 1, q**2 - 1]


def order_parts(d: GroupDescriptor) -> tuple[list[int], int]:
    """Multiplicands of the group order and the gcd divisor d."""
    q, n = d.q, d.n
    if d.kind == "classical":
        if d.family == "A":
            parts = [q ** comb(n + 1, 2)] + [q**i - 1 for i in range(2, n + 2)]
            return parts, gcd(n + 1, q - 1)
        if d.family == "2A":
            parts = [q ** comb(n + 1, 2)] + [
                q**i - (-1) ** i for i in range(2, n + 2)
            ]
            return parts, gcd(n + 1, q + 1)
        if d.family in ("B", "C"):
            return [q ** (n * n)] + [q ** (2 * i) - 1 for i in range(1, n + 1)], gcd(2, q - 1)
        if d.family == "D":
            parts = [q ** (n * (n - 1)), q**n - 1] + [
                q ** (2 * i) - 1 for i in range(1, n)
            ]
            return parts, gcd(4, q**n - 1)
        if d.family == "2D":
            parts = [q ** (n * (n - 1)), q**n + 1] + [
                q ** (2 * i) - 1 for i in range(1, n)
            ]
            return parts, gcd(4, q**n + 1)
    if d.kind == "exceptional":
        if d.family == "G2":
            return [q**6, q**6 - 1, q**2 - 1], 1
        if d.family == "F4":
            return _f4_parts(q), 1
        if d.family == "E6":
            return [q**12, q**9 - 1, q**5 - 1] + _f4_parts(q), gcd(3, q - 1)
        if d.family == "2E6":
            return [q**12, q**9 + 1, q**5 + 1] + _f4_parts(q), gcd(3, q + 1)
        if d.family == "E7":
            return [q**39, q**18 - 1, q**14 - 1, q**10 - 1] + _f4_parts(q), gcd(2, q - 1)
        if d.family == "E8":
            return [
                q**96,
                q**30 - 1,
                q**12 + 1,
                q**20 - 1,
                q**18 - 1,
                q**14 - 1,
                q**6 + 1,
            ] + _f4_parts(q), 1
        if d.family == "2B2":
            return [q**2, q**2 + 1, q - 1], 1
        if d.family == "2G2":
            return [q**3, q**3 + 1, q - 1], 1
        if d.family == "2F4":
            return [q**12, q**6 + 1, q**4 - 1, q**3 + 1, q - 1], 1
        if d.family == "3D4":
            return [q**12, q**8 + q**4 + 1, q**6 - 1, q**2 - 1], 1
    raise UnsupportedFamily(f"no order formula for {d}")


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
    parts, divisor = order_parts(d)
    value = 1
    for part in parts:
        value *= part
    if value % divisor:
        raise InternalInconsistency(f"order of {d} is not divisible by {divisor}")
    return value // divisor


def prime_spectrum(d: GroupDescriptor, budget: int = nt.DEFAULT_BUDGET) -> frozenset[int]:
    """pi(G): all primes dividing the group order.

    For Lie-type groups each order multiplicand is factored separately, which
    keeps the integers small; for sporadic groups the embedded factorization
    is used and cross-checked against the embedded partition table.
    """
    if d.kind in ("alternating", "symmetric"):
        return frozenset(nt.primes_upto(d.n))
    if d.kind == "sporadic":
        pi = frozenset(p for p, _ in _sporadic_order_factors(d.name))
        if not d.tits:
            record = sporadic_record(d.name)
            declared = record.prime_partition.clique | record.prime_partition.independent
            if declared != pi:
                raise InternalInconsistency(
                    f"{d.name}: partition table covers {sorted(declared)}, order has {sorted(pi)}"
                )
        return pi
    total = order(d)
    out = set()
    parts, _ = order_parts(d)
    for part in parts:
        for r in nt.prime_set(part, budget):
            if total % r == 0:
                out.add(r)
    return frozenset(out)


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
        total = order(group)
        for m in mu:
            for r in nt.prime_set(m):
                if total % r:
                    raise SpectrumError(
                        f"prime {r} from mu does not divide |{group}|"
                    )
        return super().__new__(cls, group, mu)


def spectrum_covers(s: SpectrumData) -> bool:
    """True iff the primes of mu cover the whole prime spectrum of the group."""
    got = set()
    for m in s.mu:
        got |= nt.prime_set(m)
    return got == set(prime_spectrum(s.group))


def spectrum_formulas(d: GroupDescriptor) -> SpectrumData:
    """Closed-form mu(G) for the families that admit one.

    Supported: A1(q); B2(q)=C2(q); B3(3)=C3(3); 2B2(q); 2G2(q); the Tits
    group.  The published lists are normalized to their divisibility-maximal
    elements.  Everything else raises UnsupportedFamily.
    """
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


def gk_from_spectrum(s: SpectrumData) -> Graph:
    """The prime graph determined by mu: primes r, s adjacent iff rs divides
    some maximal order."""
    pi_of = {m: nt.prime_set(m) for m in s.mu}
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
