"""Verification campaigns: the paper's splitness results checked over grids.

Each campaign is a function of plain values that returns ``(ok, lines)``:
whether every check passed, and the report lines ``gksplit verify`` prints.
Theorem A sweeps the Alt/Sym prime graphs.  Theorem B (the sporadic groups),
theorem C (the classical grid and the diagram samples) and theorem D (one
group) check each group the same way, by ``_check``: ``gkbuild.theoremD_verify``
and then ``recheck`` of its certificate.  zsigmondy checks the primitive
divisor arithmetic, and spectrum compares each spectrum-built prime graph
with the diagram of a group that passes ``_check``.
"""

from __future__ import annotations

from . import gkbuild, groups, numtheory as nt
from .certificates import recheck
from .errors import BudgetExceeded
from .graph import ClassLabel, Graph, label_key, label_members, label_text, same_class_graph
from .splitcheck import is_split_degree, partition_text, validate_partition


def theorem_a(top: int = 300):
    """Sym(n), 2 <= n <= top, and Alt(n), 5 <= n <= top: split prime graphs
    with the partition of ``gkbuild.altsym_partition``.  Degree-major, one row
    pass per degree; the report lists every Sym line, then every Alt line."""
    found = {"symmetric": [], "alternating": []}
    ok = True
    for n in range(2, top + 1):
        part = gkbuild.altsym_partition(n)
        for d in (groups.symmetric(n), groups.alternating(n)) if n >= 5 else (groups.symmetric(n),):
            g = gkbuild.gk_altsym(d)
            verdict = is_split_degree(g)
            valid, reason = validate_partition(g, part)
            good = verdict.split and valid
            ok &= good
            found[d.kind].append(f"{'PASS' if good else 'FAIL'} {d.kind} n={n}" + ("" if good else f" ({reason})"))
    lines = found["symmetric"] + found["alternating"]
    lines.append(("PASS" if ok else "FAIL") + f" theorem-a up to n={top}")
    return ok, lines


def _check(d: groups.GroupDescriptor, budget: int = nt.DEFAULT_BUDGET):
    """The one check of every Theorem B, C and D campaign: theoremD_verify on
    d, then recheck of its certificate.  Returns (ok, compact graph or None,
    verdict, recheck failures)."""
    graph, verdict, cert = gkbuild.theoremD_verify(d, budget)
    failures = recheck(cert)
    return verdict.split and not failures, graph, verdict, failures


def theorem_b():
    """Every sporadic group passes ``_check`` on its table partition (the
    table itself is checked when it loads), and M22's solvable graph is
    nonsplit with its known 2K2 and compact form."""
    lines = []
    ok = True
    for rec in groups.sporadic_table():
        good = _check(groups.sporadic(rec.name))[0]
        if rec.name == "M22":
            g = Graph(sorted(rec.prime_spectrum), rec.solvable_edges)
            verdict = is_split_degree(g)
            good &= not verdict.split
            good &= set(verdict.forbidden.vertices) == {3, 5, 7, 11}
            contents = {tuple(sorted(c)) for c in g.compact_form().class_contents.values()}
            good &= contents == {(11,), (5,), (2,), (3, 7)}
        ok &= good
        lines.append(f"{'PASS' if good else 'FAIL'} {rec.name}")
    return ok, lines


#: (families, ranks, field sizes, line text) of theorem C's classical grid;
#: a linear or unitary group of rank n has dimension n + 1
_THEOREM_C_GRID = (
    (("A", "2A"), range(3, 20), (2, 3, 4, 5, 7, 8, 9), "dimensions 4..20"),
    (("B", "C", "D", "2D"), range(4, 13), (2, 3, 5), "ranks 4..12"),
)

_EXCEPTIONAL_SAMPLES = [
    ("A1", (4, 5, 7, 8, 9, 11, 13, 27)),
    ("A2", (5, 7, 13)),
    ("2A2", (5, 7, 8)),
    ("B2", (3, 5, 7)),
    ("B3", (3, 5, 7)),
    ("G2", (4, 5, 13, 27)),
    ("F4", (3, 4, 5, 8)),
    ("E6", (2, 3, 4, 5)),
    ("2E6", (2, 5, 8)),
    ("E7", (2, 3, 4)),
    ("E8", (2, 3, 4)),
    ("2B2", (8, 32, 128)),
    ("3D4", (2, 3, 4)),
    ("2G2", (27, 243, 2187)),
    ("2F4", (8, 32, 128)),
]


def theorem_c(budget: int = nt.DEFAULT_BUDGET):
    """Every group of the classical grid, one line per family, and of the
    exceptional samples, one line per family, passes ``_check``."""
    rows = [
        (f"{family}-series {text}", [groups.classical(family, rank, q) for rank in ranks for q in qs])
        for families, ranks, qs, text in _THEOREM_C_GRID
        for family in families
    ]
    rows += [
        (f"{family} at q in {qs}", [groups.parse_descriptor(f"{family}({q})") for q in qs])
        for family, qs in _EXCEPTIONAL_SAMPLES
    ]
    lines = []
    ok = True
    for text, descriptors in rows:
        good = all(_check(d, budget)[0] for d in descriptors)
        ok &= good
        lines.append(f"{'PASS' if good else 'FAIL'} {text}")
    return ok, lines


def theorem_d(d: groups.GroupDescriptor, budget: int = nt.DEFAULT_BUDGET):
    """The compact prime graph of one group: split, with a certificate that
    rechecks; the partition and any class left without members are shown.

    The partition shown is the degree route's on the compact graph; the
    certificate carries the diagram's.  Both validate on that graph, and for
    13 of the 53 ``_EXCEPTIONAL_SAMPLES`` groups (A2(5), G2(4), E8(2) among
    them) they differ."""
    good, _, verdict, failures = _check(d, budget)
    lines = [f"{'PASS' if good else 'FAIL'} {d}: compact prime graph split"]
    if verdict.partition is not None:
        part = verdict.partition
        lines.append(partition_text(part))
        # a class is kept without members only when factoring ran out of
        # budget; its existence, and so the verdict, was decided without it
        unknown = sorted(
            (v for v in part.clique | part.independent if isinstance(v, ClassLabel) and not v.members),
            key=label_key,
        )
        if unknown:
            lines.append(
                "  members unknown (factoring budget exhausted): "
                + ", ".join(label_text(v) for v in unknown)
            )
    lines.extend(f"  recheck failure: {f}" for f in failures)
    return good, lines


def zsigmondy(max_base: int = 20):
    """R_i(base) is empty exactly at the Bang-Zsigmondy exceptions, for
    2 <= |base| <= max_base and i <= 12; emptiness is read off Phi_i(base)
    without factoring it (``numtheory.has_ppd``)."""
    lines = []
    ok = True
    bases = list(range(2, max_base + 1)) + list(range(-2, -max_base - 1, -1))
    for base in bases:
        for i in range(1, 13):
            empty = not nt.has_ppd(i, base)
            expected = nt.is_zsigmondy_exception(i, base)
            good = empty == expected
            ok &= good
            if not good:
                lines.append(f"FAIL R_{i}({base})")
    lines.append(("PASS" if ok else "FAIL") + f" primitive-divisor exceptions, |base| <= {max_base}, index <= 12")
    return ok, lines


_SPECTRUM_CHECKS = [
    ("A1", (4, 5, 7, 8, 9, 11, 13, 27)),
    ("2B2", (8, 32, 128)),
    ("2G2", (27,)),
    ("B2", (3,)),
    ("B3", (3,)),
]


def spectrum(budget: int = nt.DEFAULT_BUDGET):
    """The compact form of each spectrum-built prime graph equals the drawn
    diagram of the same group, which passes ``_check``.

    The B2 and B3(3) diagrams are transcribed from the same maximal element
    orders, so their rows compare two independent transcriptions.  Only the
    Tits row builds both sides from one spectrum, so it checks the partition,
    not a drawn diagram.
    """
    rows = [
        (f"{family} q={q}", groups.parse_descriptor(f"{family}({q})")) for family, qs in _SPECTRUM_CHECKS for q in qs
    ]
    rows.append((f"{groups.TITS_NAME} q=2", groups.sporadic(groups.TITS_NAME)))
    lines = []
    ok = True
    for text, d in rows:
        lhs = groups.gk_from_spectrum(groups.spectrum_formulas(d), budget).compact_form().quotient
        good, rhs, _, _ = _check(d, budget)
        if not all(map(label_members, rhs.vertices)):
            # a class without members cannot be matched to the spectrum side
            raise BudgetExceeded(f"class members of {d} unknown at budget {budget}")
        good &= same_class_graph(lhs, rhs)
        ok &= good
        lines.append(f"{'PASS' if good else 'FAIL'} {text}")
    return ok, lines
