"""Verification campaigns: the paper's splitness results checked over grids.

Each campaign is a function of plain values that returns ``(ok, lines)``, the
lines ``gksplit verify`` prints, all written by ``_report``: one PASS or FAIL
line per row, a FAIL line with its reasons.  Theorem A sweeps the Alt/Sym
prime graphs.  Theorem B (the sporadic groups), C (``theorem_c_rows``) and D
(one group) check each group by ``_check``: ``gkbuild.theoremD_verify``, then
``recheck`` of its certificate.  A check failed there (``CheckFailed``) is a
FAIL row in a campaign and an error everywhere else.  zsigmondy checks the
primitive divisor arithmetic, and spectrum compares each spectrum-built prime
graph with the diagram of a group that passes ``_check``.
"""

from __future__ import annotations

from . import gkbuild, groups, numtheory as nt
from .certificates import recheck
from .errors import BudgetExceeded, CheckFailed
from .graph import ClassLabel, label_key, label_members, label_text, same_class_graph
from .splitcheck import is_split_degree, partition_text, validate_partition


def _report(rows, total: str | None = None):
    """(ok, lines): the PASS line of each (reasons, text) row without reasons,
    the FAIL line, with them, of each other; then total's line, if given,
    which fails when any row does."""
    rows = list(rows)
    failed = sum(1 for reasons, _ in rows if reasons)
    if total:
        rows.append(([f"{failed} failed"] if failed else [], total))
    return not failed, [f"FAIL {text} ({'; '.join(reasons)})" if reasons else f"PASS {text}" for reasons, text in rows]


def theorem_a(top: int = 300):
    """Sym(n), 2 <= n <= top, and Alt(n), 5 <= n <= top: split prime graphs
    with the partition of ``gkbuild.altsym_partition``.  Degree-major, one row
    pass per degree; the report lists every Sym line, then every Alt line."""
    found = {"symmetric": [], "alternating": []}
    for n in range(2, top + 1):
        part = gkbuild.altsym_partition(n)
        for d in (groups.symmetric(n), groups.alternating(n)) if n >= 5 else (groups.symmetric(n),):
            g = gkbuild.gk_altsym(d)
            valid, reason = validate_partition(g, part)
            reasons = ([] if valid else [reason]) + ([] if is_split_degree(g).split else ["degree route: not split"])
            found[d.kind].append((reasons, f"{d.kind} n={n}"))
    return _report(found["symmetric"] + found["alternating"], f"theorem-a up to n={top}")


def _check(d: groups.GroupDescriptor, budget: int = nt.DEFAULT_BUDGET):
    """The one check of every Theorem B, C and D campaign: theoremD_verify on
    d, then recheck of its certificate.  Returns (the reasons d failed,
    compact graph or None, verdict, certificate); when theoremD_verify fails
    a check its message is the one reason and the other three are None."""
    try:
        graph, verdict, cert = gkbuild.theoremD_verify(d, budget)
    except CheckFailed as exc:
        return [str(exc)], None, None, None
    return [f"{d} fails recheck: {claim}" for claim in recheck(cert)], graph, verdict, cert


def theorem_b():
    """Every sporadic group passes ``_check`` on its table partition (the
    table itself is checked when it loads), and M22's solvable graph is
    nonsplit with the 2K2 of its record and its known compact form."""
    rows = []
    for rec in groups.sporadic_table():
        reasons = _check(groups.sporadic(rec.name))[0]
        if rec.name == "M22":
            g = gkbuild.solvable_graph(groups.sporadic(rec.name))
            verdict = is_split_degree(g)
            if verdict.split or set(verdict.forbidden.vertices) != set(rec.solvable_witness):
                reasons.append(f"solvable graph has no 2K2 on {sorted(rec.solvable_witness)}")
            contents = {tuple(sorted(c)) for c in g.compact_form().class_contents.values()}
            if contents != {(11,), (5,), (2,), (3, 7)}:
                reasons.append(f"solvable graph has the classes {sorted(contents)}")
        rows.append((reasons, rec.name))
    return _report(rows)


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


def theorem_c_rows():
    """Theorem C's (line text, descriptors) rows: one per family of
    ``_THEOREM_C_GRID``, then one per family of ``_EXCEPTIONAL_SAMPLES``."""
    return [
        (f"{family}-series {text}", [groups.classical(family, rank, q) for rank in ranks for q in qs])
        for families, ranks, qs, text in _THEOREM_C_GRID
        for family in families
    ] + [
        (f"{family} at q in {qs}", [groups.parse_descriptor(f"{family}({q})") for q in qs])
        for family, qs in _EXCEPTIONAL_SAMPLES
    ]


def theorem_c(budget: int = nt.DEFAULT_BUDGET):
    """Every group of every ``theorem_c_rows`` row passes ``_check``."""
    return _report(([r for d in ds for r in _check(d, budget)[0]], text) for text, ds in theorem_c_rows())


def theorem_d(d: groups.GroupDescriptor, budget: int = nt.DEFAULT_BUDGET):
    """The compact prime graph of one group: split, with a certificate that
    rechecks; the partition and any class left without members are shown.

    The partition shown is the degree route's on the compact graph; the
    certificate carries the diagram's.  Both validate on that graph, and for
    13 of the 53 ``_EXCEPTIONAL_SAMPLES`` groups (A2(5), G2(4), E8(2) among
    them) they differ."""
    reasons, _, verdict, _ = _check(d, budget)
    ok, lines = _report([(reasons, f"{d}: compact prime graph split")])
    if verdict is not None:
        part = verdict.partition
        lines.append(partition_text(part))
        # a class is kept without members only when factoring ran out of
        # budget; its existence, and so the verdict, was decided without it
        unknown = [v for v in part.clique | part.independent if isinstance(v, ClassLabel) and not v.members]
        if unknown:
            lines.append("  members unknown (factoring budget exhausted): "
                         + ", ".join(map(label_text, sorted(unknown, key=label_key))))
    return ok, lines


def zsigmondy(max_base: int = 20):
    """R_i(base) is empty exactly at the Bang-Zsigmondy exceptions, for
    2 <= |base| <= max_base and i <= 12, read off Phi_i(base) without
    factoring it (``numtheory.has_ppd``); each failing pair gets a line."""
    failing = [
        (["nonempty at an exception" if nonempty else "empty off the exception list"], f"R_{i}({base})")
        for base in (*range(2, max_base + 1), *range(-2, -max_base - 1, -1)) for i in range(1, 13)
        if (nonempty := nt.has_ppd(i, base)) == nt.is_zsigmondy_exception(i, base)
    ]
    return _report(failing, f"primitive-divisor exceptions, |base| <= {max_base}, index <= 12")


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
    checks = [(f"{f} q={q}", groups.parse_descriptor(f"{f}({q})")) for f, qs in _SPECTRUM_CHECKS for q in qs]
    checks.append((f"{groups.TITS_NAME} q=2", groups.sporadic(groups.TITS_NAME)))
    rows = []
    for text, d in checks:
        lhs = groups.gk_from_spectrum(groups.spectrum_formulas(d), budget).compact_form().quotient
        reasons, rhs, _, _ = _check(d, budget)
        if rhs is not None:
            if not all(map(label_members, rhs.vertices)):
                # a class without members cannot be matched to the spectrum side
                raise BudgetExceeded(f"class members of {d} unknown at budget {budget}")
            if not same_class_graph(lhs, rhs):
                reasons.append("the spectrum's compact graph differs from the diagram")
        rows.append((reasons, text))
    return _report(rows)
