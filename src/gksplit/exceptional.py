"""Compact-diagram construction for small-rank classical and exceptional families.

The diagram topologies live in ``data/diagrams.json``; this module evaluates
them at a concrete field size.  Diagrams are data, predicates are code: the
closed predicate language covers three-part comparisons of q -+ 1, membership
of 5 in R_4, divisibility, q even, q equal to a value, and negation, so the
resource file can be audited line by line against the published drawings.
Each variant states its partition, the first entry of its ``partitions``
whose ``when`` holds.  This module builds and does not check: every built
group's partition is validated once, by ``gkbuild.theoremD_verify``.

Families handled here: A1, A2/2A2, B2(=C2), B3/C3, G2, F4, E6/2E6, E7, E8,
2B2, 2G2, 2F4, 3D4, and the Tits group, each keyed by its
``groups.GroupDescriptor``.  Every Lie family is a diagram, so no
class needs factoring to exist; the diagrams of B2 and B3(3)/C3(3) are
transcribed from the maximal element orders of ``groups.spectrum_formulas``,
and ``verify spectrum`` checks them against those orders.  The Tits group, one
group with a fixed spectrum, is the compact form of its spectrum-built prime
graph, with the classes of 2 and 3 as its clique.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from math import gcd, isqrt, prod

from . import groups, numtheory as nt
from .certificates import (
    Certificate,
    KIND_SPLIT,
    TAG_ZSIGMONDY,
    assume,
    step,
)
from .errors import BudgetExceeded, InternalInconsistency, UnsupportedFamily
from .graph import ClassLabel, Graph
from .splitcheck import flag_special

_DIAGRAMS: dict | None = None

#: diagram family (a descriptor's family and rank, as in its text) -> (template key, epsilon)
_FAMILY_MAP = {
    "A1": ("A1", 1),
    "A2": ("A2", 1),
    "2A2": ("A2", -1),
    "B2": ("B2", 1),
    "B3": ("B3C3", 1),
    "C3": ("B3C3", 1),
    "G2": ("G2", 1),
    "F4": ("F4", 1),
    "E6": ("E6", 1),
    "2E6": ("E6", -1),
    "E7": ("E7", 1),
    "E8": ("E8", 1),
    "2B2": ("2B2", 1),
    "2G2": ("2G2", 1),
    "2F4": ("2F4", 1),
    "3D4": ("3D4", 1),
}


def diagram_families() -> tuple[str, ...]:
    return tuple(_FAMILY_MAP)


def _load() -> dict:
    global _DIAGRAMS
    if _DIAGRAMS is None:
        text = resources.files("gksplit.data").joinpath("diagrams.json").read_text()
        _DIAGRAMS = json.loads(text)
    return _DIAGRAMS


def nu(n: int) -> int:
    """n for n = 0 (4); n/2 for n = 2 (4); 2n for odd n.  An involution."""
    if n % 4 == 0:
        return n
    if n % 2 == 0:
        return n // 2
    return 2 * n


def eta(n: int) -> int:
    return n if n % 2 else n // 2


def nu_eps(n: int, eps: int) -> int:
    return n if eps == 1 else nu(n)


# -- expression registry -----------------------------------------------------

_EXPRS = {
    "q": lambda q: q,
    "q-1": lambda q: q - 1,
    "q+1": lambda q: q + 1,
    "(q-1)/(2,q-1)": lambda q: (q - 1) // gcd(2, q - 1),
    "(q+1)/(2,q-1)": lambda q: (q + 1) // gcd(2, q - 1),
    "(q-1)/2": lambda q: (q - 1) // 2,
    "(q+1)/4": lambda q: (q + 1) // 4,
    "q-sqrt2q+1": lambda q: q - isqrt(2 * q) + 1,
    "q+sqrt2q+1": lambda q: q + isqrt(2 * q) + 1,
    "q-sqrt3q+1": lambda q: q - isqrt(3 * q) + 1,
    "q+sqrt3q+1": lambda q: q + isqrt(3 * q) + 1,
    "q^2-q+1": lambda q: q * q - q + 1,
    "q^2-sqrt2q^3+q-sqrt2q+1": lambda q: q * q - isqrt(2 * q**3) + q - isqrt(2 * q) + 1,
    "q^2+sqrt2q^3+q+sqrt2q+1": lambda q: q * q + isqrt(2 * q**3) + q + isqrt(2 * q) + 1,
}


def _expr_value(name: str, q: int, eps: int) -> int:
    if name == "q-eps":
        return q - eps
    return _EXPRS[name](q)


def _eval_pred(pred, q: int, eps: int, trail: list) -> bool:
    """Evaluate a predicate, appending machine-checkable steps to the trail."""
    if pred is None:
        return True
    if "not" in pred:
        return not _eval_pred(pred["not"], q, eps, trail)
    kind = pred.get("pred")
    if kind in ("three_part_eq", "three_part_gt"):
        a = _expr_value(pred["expr"], q, eps)
        got = nt.pi_part(a, 3)
        trail.append(
            step(
                f"three-part of {a} is {got}",
                op="pi_part_eq", a=a, pi_of=3, equals=got,
            )
        )
        return got == pred["value"] if kind == "three_part_eq" else got > pred["value"]
    if kind == "member":
        r, i = pred["r"], pred["index"]
        got = q % r != 0 and nt.is_mult_order(r, q, i)
        if got:
            trail.append(
                step(f"order of {q} modulo {r} is {i}", op="mult_order", r=r, base=q, equals=i)
            )
        return got
    if kind == "divides":
        a = _expr_value(pred["expr"], q, eps)
        got = a % pred["d"] == 0
        if got:
            trail.append(step(f"{pred['d']} divides {a}", op="divides", a=pred["d"], b=a))
        return got
    if kind == "q_even":
        return q % 2 == 0
    if kind == "q_eq":
        return q == pred["value"]
    raise ValueError(f"unknown predicate {pred!r}")


@lru_cache(maxsize=4096)
def ppd_members(index: int, q: int, budget: int) -> tuple[int, ...] | None:
    """R_index(q) as a sorted tuple, None when factoring runs out of budget: the
    one members lookup, read by the diagram rules and the classical labels."""
    try:
        return tuple(sorted(nt.ppd_set(index, q, budget)))
    except BudgetExceeded:
        return None


def _rule_members(rule, q: int, p: int, eps: int, budget: int, trail: list) -> tuple[int, ...] | None:
    """Sorted members of one diagram class; None when it does not exist, and ()
    when the budget cannot name them.  Existence is decided without factoring."""
    kind = rule["kind"]
    if kind == "char":
        return (p,)
    if kind == "prime":
        v = rule["value"]
        return None if v == p else (v,)
    minus = frozenset(rule.get("minus", ()))
    if kind == "pi":
        value = _expr_value(rule["expr"], q, eps)
        if value <= 1 or nt.pi_part(value, prod(minus)) == value:
            return None
        try:
            return tuple(sorted(nt.prime_set(value, budget) - minus))
        except BudgetExceeded:
            return ()
    if kind not in ("ppd", "ppd_union"):
        raise ValueError(f"unknown member rule {kind!r}")
    # a ppd rule is the one-index case of ppd_union
    found = []
    for index in rule["indices"] if kind == "ppd_union" else (rule["index"],):
        if rule.get("eps"):
            index = nu_eps(index, eps)
        if nt.is_zsigmondy_exception(index, q):
            if kind == "ppd":
                trail.append(
                    step(f"R_{index}({q}) is empty", TAG_ZSIGMONDY, op="zsigmondy_empty", base=q, index=index)
                )
        elif not minus or nt.has_ppd(index, q, minus):
            found.append(index)
    head = {p} if rule.get("char") and p not in minus else set()
    if not found and not head:
        return None
    lookups = [ppd_members(index, q, budget) for index in found]
    return () if None in lookups else tuple(sorted(head.union(*lookups) - minus))


def _build_diagram(variant, q, p, eps, budget, trail):
    labels: dict[str, ClassLabel] = {}
    for vspec in variant["vertices"]:
        if not _eval_pred(vspec.get("when"), q, eps, trail):
            continue
        members = _rule_members(vspec["members"], q, p, eps, budget, trail)
        if members is not None:
            labels[vspec["tag"]] = ClassLabel(vspec["tag"], members)
    edges = []
    for u, v, cond in variant["edges"]:
        if u in labels and v in labels and _eval_pred(cond, q, eps, trail):
            edges.append((labels[u], labels[v]))
    return Graph(labels.values(), edges), labels


def exceptional_compact(d: groups.GroupDescriptor, budget: int = nt.DEFAULT_BUDGET):
    """Compact class graph, stated split partition and certificate of the group d.

    Returns (Graph over ClassLabel vertices, SplitPartition, Certificate).
    d is the Tits group or a group whose family is in ``diagram_families()``;
    any other group raises UnsupportedFamily.  The partition is the diagram's
    first one whose 'when' holds, unchecked: ``gkbuild.theoremD_verify``
    validates it.
    """
    if d.tits:
        return tits_compact()
    family = f"{d.family}{d.n}" if d.kind == "classical" else d.family
    if family not in _FAMILY_MAP:
        raise UnsupportedFamily(f"no compact diagram for {d}")
    key, eps = _FAMILY_MAP[family]
    q = d.q
    p, _ = groups.char_and_degree(q)
    template = _load()["families"][key]
    for variant in template["variants"]:
        trail: list = []
        if not _eval_pred(variant.get("when"), q, eps, trail):
            continue
        graph, labels = _build_diagram(variant, q, p, eps, budget, trail)
        stated = next((alt for alt in variant["partitions"] if _eval_pred(alt.get("when"), q, eps, trail)), None)
        if stated is None:
            raise InternalInconsistency(f"no stated partition of {d} applies")
        clique, indep = ([labels[t] for t in stated[side] if t in labels] for side in ("clique", "independent"))
        part = flag_special(graph, clique, indep)
        trail.append(
            assume(
                f"class graph is the published compact diagram of {family} at q={q}",
                "diagram",
            )
        )
        cert = Certificate(
            KIND_SPLIT,
            tuple(trail),
            partition=part,
            context={"family": family, "q": q, "epsilon": eps},
        )
        return graph, part, cert
    raise InternalInconsistency(f"no diagram variant of {d} applies")


def tits_compact():
    """The Tits group, built from its maximal element orders: its prime graph
    equals its own compact form, with C the classes of 2 and 3."""
    mu = groups.spectrum_formulas(groups.sporadic(groups.TITS_NAME))
    graph = groups.gk_from_spectrum(mu).compact_form().quotient
    clique = {label for label in graph.vertices if {2, 3}.intersection(label.members)}
    part = flag_special(graph, clique, set(graph.vertices) - clique)
    trail = (assume(f"maximal element orders are {sorted(mu.mu)}", "spectrum"),)
    context = {"family": groups.TITS_NAME, "q": 2}
    return graph, part, Certificate(KIND_SPLIT, trail, partition=part, context=context)
