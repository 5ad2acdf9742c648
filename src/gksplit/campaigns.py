"""Verification campaigns: the paper's splitness results checked over grids.

Each campaign is a function of plain values that returns ``(ok, lines)``:
whether every check passed, and the report lines ``gksplit verify`` prints.
Theorem A sweeps the Alt/Sym prime graphs, theorem B the sporadic tables,
theorems C and D the compact forms of Lie-type groups; zsigmondy and
spectrum check the arithmetic and the diagrams those forms rest on.
"""

from __future__ import annotations

from . import gkbuild, groups, numtheory as nt
from .certificates import recheck
from .exceptional import descriptor_for
from .errors import BudgetExceeded
from .graph import ClassLabel, Graph, label_key, label_members, label_text, same_class_graph
from .splitcheck import is_split_degree, partition_text, validate_partition


def theorem_a(top: int = 300):
    """Sym(n), 2 <= n <= top, and Alt(n), 5 <= n <= top: split prime graphs
    with the partition of ``gkbuild.altsym_partition``."""
    lines = []
    ok = True
    for kind, start in (("symmetric", 2), ("alternating", 5)):
        for n in range(start, top + 1):
            g = gkbuild.gk_altsym(kind, n)
            verdict = is_split_degree(g)
            part = gkbuild.altsym_partition(n)
            valid, reason = validate_partition(g, part)
            good = verdict.split and valid
            ok &= good
            lines.append(f"{'PASS' if good else 'FAIL'} {kind} n={n}" + ("" if good else f" ({reason})"))
    lines.append(("PASS" if ok else "FAIL") + f" theorem-a up to n={top}")
    return ok, lines


def theorem_b():
    """The sporadic tables: each partition covers the prime spectrum without
    overlap, and M22's solvable graph is nonsplit with its known 2K2 and
    compact form."""
    lines = []
    ok = True
    for rec in groups.sporadic_table():
        pi = rec.prime_spectrum
        good = True
        for part in (rec.prime_partition, rec.solvable_partition):
            if part is not None:
                good &= part.clique | part.independent == pi and not part.clique & part.independent
        if rec.name == "M22":
            g = Graph(sorted(pi), rec.solvable_edges)
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
    """Compact split partitions whose certificates recheck: the classical
    grid by family, then the exceptional samples, whose diagrams must also
    carry their partition."""
    lines = []
    ok = True
    for families, ranks, qs, text in _THEOREM_C_GRID:
        for family in families:
            good = True
            for rank in ranks:
                for q in qs:
                    ctx = gkbuild.PhiContext.from_descriptor(groups.classical(family, rank, q))
                    part, cert = gkbuild.classical_compact_partition(ctx, budget)
                    good &= not recheck(cert)
            ok &= good
            lines.append(f"{'PASS' if good else 'FAIL'} {family}-series {text}")
    for family, qlist in _EXCEPTIONAL_SAMPLES:
        good = True
        for q in qlist:
            graph, part, cert = gkbuild.exceptional_compact(family, q, budget)
            valid, _ = validate_partition(graph, part)
            good &= valid and not recheck(cert)
        ok &= good
        lines.append(f"{'PASS' if good else 'FAIL'} {family} at q in {qlist}")
    return ok, lines


def theorem_d(d: groups.GroupDescriptor, budget: int = nt.DEFAULT_BUDGET):
    """The compact prime graph of one group: split, with a certificate that
    rechecks; the partition and any class left without members are shown."""
    obj, verdict, cert = gkbuild.theoremD_verify(d, budget)
    failures = recheck(cert)
    good = verdict.split and not failures
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
    (groups.TITS_NAME, (2,)),
]


def spectrum(budget: int = nt.DEFAULT_BUDGET):
    """The compact form of each spectrum-built prime graph equals the drawn
    diagram, which carries its split partition.

    For B2, B3(3) and the Tits group both sides come from the same maximal
    element orders, so those rows check the partition, not a drawn diagram.
    """
    lines = []
    ok = True
    for family, qlist in _SPECTRUM_CHECKS:
        for q in qlist:
            mu = groups.spectrum_formulas(descriptor_for(family, q))
            lhs = groups.gk_from_spectrum(mu).compact_form().quotient
            rhs, part, cert = gkbuild.exceptional_compact(family, q, budget)
            if not all(map(label_members, rhs.vertices)):
                # a class without members cannot be matched to the spectrum side
                raise BudgetExceeded(f"class members of {family} at q={q} unknown at budget {budget}")
            good = same_class_graph(lhs, rhs) and validate_partition(rhs, part)[0]
            ok &= good
            lines.append(f"{'PASS' if good else 'FAIL'} {family} q={q}")
    return ok, lines
