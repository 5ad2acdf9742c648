"""Prime-graph construction and split/nonsplit certificates per family.

This module turns the arithmetic adjacency criteria into concrete artifacts.
Every builder of a group's graph or partition takes its ``GroupDescriptor``:

* alternating/symmetric prime graphs and their clique/independent partitions
  (primes up to n/2 against primes above n/2, keyed by the degree alone);
* the compact split partition of a classical group of dimension/rank at
  least 4, read from its (order index, phi-value) pairs, with a certificate
  whose arithmetic steps re-verify independently;
* compact diagrams for small-rank and exceptional families (see
  :mod:`gksplit.exceptional`);
* non-splitness witnesses: the two-cliques construction for linear groups
  over proper prime powers, the solvable-graph constructions for degree uw
  and for prime degree with a primitive-root characteristic, and the encoded
  nine-class solvable compact graph of the 11-dimensional linear group over
  GF(2) with its 2K2 witness;
* ``GRAPHS``, the one table of the graphs each kind of group has, each a
  builder or the reason none is built, and of the certificate builder that
  ``theoremD_verify`` checks; ``graph_of`` reads it for every caller.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import groups, numtheory as nt
from .certificates import (
    Certificate,
    CertStep,
    KIND_CHAIN,
    KIND_NONSPLIT,
    KIND_SPLIT,
    TAG_AK_CYCLIC,
    TAG_AK_SOLV,
    TAG_FERMAT,
    TAG_L52,
    TAG_L53,
    TAG_L54,
    TAG_TOR,
    TAG_ZSIGMONDY,
    assume,
    step,
)
from .errors import (
    CheckFailed,
    InternalInconsistency,
    PreconditionViolated,
    RankTooSmall,
    UnsupportedFamily,
)
from .exceptional import exceptional_compact, ppd_members as _class_members
from .graph import ClassLabel, ForbiddenWitness, Graph
from .splitcheck import SplitPartition, SplitVerdict, is_split_degree, validate_partition

__all__ = [
    "gk_altsym",
    "altsym_partition",
    "classical_compact_partition",
    "lemma52_check",
    "nonsplit_witness_linear",
    "sc_nonsplit_certificate",
    "prop72_certificate",
    "psl11_2_sc",
    "artin_pairs",
    "GRAPHS",
    "kind_of",
    "graph_of",
    "theoremD_verify",
    "exceptional_compact",
]


# ---------------------------------------------------------------------------
# Alternating and symmetric groups
# ---------------------------------------------------------------------------


def gk_altsym(d: groups.GroupDescriptor) -> Graph:
    """Prime graph of the alternating or symmetric group d of degree n.

    Odd primes p, q are adjacent iff p + q <= n; the prime 2 is adjacent to
    an odd p iff 2 + p <= n (symmetric) or 4 + p <= n (alternating).  Both
    kinds take the odd-prime rows of ``_alt_rows``, kept for the last degree.
    """
    if d.kind == "alternating":
        two_offset = 4
    elif d.kind == "symmetric":
        two_offset = 2
    else:
        raise UnsupportedFamily(f"{d} is not an alternating or symmetric group")
    n = d.n
    primes, odd_rows = _alt_rows(n)  # odd_rows[k - 1] is the row of primes[k]
    cut = bisect_right(primes, n - two_offset, 1) - 1  # 2 sees the odd p <= n - two_offset
    rows = [((1 << cut) - 1) << 1]
    rows.extend(odd_rows)
    if cut and primes[cut] + 4 > n:  # symmetric only: p + 2 <= n < p + 4
        rows[cut] |= 1
    return Graph(primes, rows=rows)


@lru_cache(maxsize=1)
def _alt_rows(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The primes up to n, and the odd primes' rows in Alt(n)'s prime graph:
    over the sorted primes the odd neighbours of p are a prefix, the odd
    q <= n - p, less p itself.  An odd n takes the rows of n - 1: p + q is
    even, so only 2's bit changes, in the row of n - 4, and a prime n adds
    one empty row."""
    primes = nt.primes_upto(n)
    odd = primes[1:]  # primes_upto lists 2 first, so odd[k] is vertex k + 1
    if n % 2 and n > 2:
        rows = _alt_rows(n - 1)[1]
        if len(rows) < len(odd):
            rows += (0,)
        k = bisect_left(odd, n - 4)
        if k < len(odd) and odd[k] == n - 4:
            rows = rows[:k] + (rows[k] | 1,) + rows[k + 1 :]
        return tuple(primes), rows
    cut = bisect_right(odd, n - 4)
    rows = (((1 << bisect_right(odd, n - p)) - 1) << 1 & ~(2 << k) | (k < cut) for k, p in enumerate(odd))
    return tuple(primes), tuple(rows)


def altsym_partition(n: int) -> SplitPartition:
    """Clique side: primes up to n/2; independent side: primes in (n/2, n].

    Degree 6 is the single exception: 2 and 3 are nonadjacent in the
    alternating prime graph (an element of order 2p needs two transpositions,
    so 4 + p <= n), hence 3 goes to the independent side there.
    """
    if n < 2:
        raise PreconditionViolated("degree must be at least 2")
    half = n // 2 if n != 6 else 2
    primes = nt.primes_upto(n)
    k = bisect_right(primes, half)
    return SplitPartition(frozenset(primes[:k]), frozenset(primes[k:]))


# ---------------------------------------------------------------------------
# Classical groups: order-index bookkeeping and the compact partition
# ---------------------------------------------------------------------------


def classical_compact_partition(
    d: groups.GroupDescriptor, budget: int = nt.DEFAULT_BUDGET
) -> Certificate:
    """Certified split partition of the compact prime graph of the classical
    group d, for prk(d) >= 4.

    The classes are the order indices e of ``groups.order_indices``, whose
    phi-value m is the first k <= n = prk(d) with Phi_e(q) dividing the k-th
    factor of the order, so every class's primes divide |G|.  Independent
    side: one class per nonempty R_j(q) whose phi-value lies in (n/2, n];
    clique side: the characteristic plus one class per nonempty R_e(q) with
    phi-value at most n/2.  Nonemptiness comes from the
    Bang-Zsigmondy exception list; class members are filled in when
    factoring fits the budget; each class and its nonempty step are built
    once per process and field (``_order_class``).  The certificate checks
    each independent class's phi-value m against n/2 < m <= n and states
    Lemma 5.3(iii) once: two such classes are nonadjacent, since their
    indices differ, m1 + m2 > n, and neither phi-value divides the other
    (the larger is below twice the smaller).  The group-theoretic clique claims are flagged as
    assumptions.  The excluded prime set delta(L) is pi(delta_of), with
    delta_of = q - eps for linear (eps = 1) and unitary (eps = -1) groups and
    gcd(2, q - 1) otherwise; it is never factored.
    """
    n = groups.prk(d)
    if n < 4:
        raise RankTooSmall(f"prk must be at least 4, got {n}")
    eps = {"A": 1, "2A": -1}.get(d.family, 0)
    q = d.q
    p, _ = groups.char_and_degree(q)
    delta_of = q - eps if eps else gcd(2, q - 1)
    steps, clique_steps = [], []  # the independent side's steps, then the clique side's
    indep_indices, indep_labels, clique_labels = [], [], [ClassLabel("p", (p,))]
    for e, m in groups.order_indices(d):
        large = 2 * m > n
        if nt.is_zsigmondy_exception(e, q):
            if large:
                steps.append(
                    step(f"R_{e}({q}) is empty", TAG_ZSIGMONDY, op="zsigmondy_empty", base=q, index=e)
                )
            continue
        label, nonempty = _order_class(e, q, budget)
        if large:
            steps.append(nonempty)
            steps.append(
                step(f"phi-value {m} of R_{e}({q}) lies in ({n}/2, {n}]", op="in_interval", x=m, lo=n // 2, hi=n)
            )
            indep_indices.append(e)
            indep_labels.append(label)
        else:
            clique_steps.append(
                step(f"class R_{e}({q}) has phi-value {m} <= {n}/2", op="cmp", a=2 * m, rel="le", b=n)
            )
            clique_labels.append(label)
    steps += clique_steps
    steps.append(
        assume(
            f"classes with distinct order indices and phi-values in ({n}/2, {n}] are nonadjacent",
            TAG_L53,
        )
    )
    steps.append(
        assume(
            f"characteristic {p} and the small-index classes form a clique",
            TAG_L54,
        )
    )
    if delta_of > 1:
        steps.append(
            assume(
                f"delta(L) = pi({delta_of}) placed in the clique side; "
                "clique membership assumed (excluded from the adjacency criterion)",
                TAG_L53,
            )
        )
    return Certificate(
        KIND_SPLIT,
        tuple(steps),
        partition=SplitPartition(frozenset(clique_labels), frozenset(indep_labels)),
        context={
            "group": str(d),
            "prk": n,
            "q": q,
            "epsilon": eps,
            "independent_indices": indep_indices,
        },
    )


@lru_cache(maxsize=4096)
def _order_class(e: int, q: int, budget: int) -> tuple[ClassLabel, CertStep]:
    """The class R_e(q), its members filled in when factoring fits the
    budget, and the step that states it nonempty, for an e that is no
    Bang-Zsigmondy exception: built once per process and shared by every
    classical group over GF(q) that has the class.  Only the step's check is
    mutable, a dict that nothing writes to."""
    label = ClassLabel(f"R{e}", _class_members(e, q, budget) or ())
    return label, step(f"R_{e}({q}) is nonempty", TAG_ZSIGMONDY, op="zsigmondy_nonempty", base=q, index=e)


# ---------------------------------------------------------------------------
# Nonsplitness constructions
# ---------------------------------------------------------------------------


def _two_k2(steps, vertices, context: dict) -> Certificate:
    """The non-split certificate whose steps end in an induced 2K2 on the four
    vertices; a str vertex names a ClassLabel without members."""
    labels = tuple(ClassLabel(v) if isinstance(v, str) else v for v in vertices)
    return Certificate(KIND_NONSPLIT, tuple(steps), witness=ForbiddenWitness("2K2", labels), context=context)


def lemma52_check(k: int, p: int, a: int) -> Certificate:
    """Certify |R_k(p^a)| > 1 from the exception list alone.

    Needs a >= 2, k > 1 and pi(a) not contained in pi(k); then R_{ka}(p) and
    R_{ka'}(p), a' = (a)_{pi(k)}, are disjoint subsets of R_k(p^a), and both
    are nonempty unless excepted.
    """
    if a < 2:
        raise PreconditionViolated(f"need a >= 2, got {a}")
    if k <= 1:
        raise PreconditionViolated(f"need k > 1, got {k}")
    a_prime = nt.pi_part(a, k)
    if a_prime == a:
        raise PreconditionViolated(f"pi({a}) is contained in pi({k})")
    for idx in (k * a, k * a_prime):
        if nt.is_zsigmondy_exception(idx, p):
            raise PreconditionViolated(f"R_{idx}({p}) is empty; the bound does not apply")
    steps = (
        step(f"pi({a}) is not contained in pi({k})", op="pi_not_subset", a=a, b=k),
        step(f"({a})_pi({k}) = {a_prime}", op="pi_part_eq", a=a, pi_of=k, equals=a_prime),
        step(f"R_{k * a}({p}) is nonempty", TAG_ZSIGMONDY, op="zsigmondy_nonempty", base=p, index=k * a),
        step(f"R_{k * a_prime}({p}) is nonempty", TAG_ZSIGMONDY, op="zsigmondy_nonempty", base=p, index=k * a_prime),
        assume(
            f"R_{k * a}({p}) and R_{k * a_prime}({p}) are disjoint subsets of R_{k}({p}^{a}), "
            f"so |R_{k}({p**a})| > 1",
            TAG_L52,
        ),
    )
    return Certificate(
        KIND_CHAIN,
        steps,
        context={"k": k, "p": p, "a": a, "a_prime": a_prime, "q": p**a},
    )


def nonsplit_witness_linear(n: int, p: int, a: int, budget: int = nt.DEFAULT_BUDGET) -> Certificate:
    """The certificate of four primes, its ``witness``, inducing 2K2 in the
    prime graph of the linear group of dimension n over GF(p^a), for n > 11
    and a >= 2.

    Picks the lexicographically smallest k1 < k2 in (n/2, n) at which
    ``lemma52_check`` applies; each class R_{k_i}(q) then has two members, one
    from each base-field wing R_{k_i a}(p) and R_{k_i a'}(p).
    """
    if n <= 11:
        raise PreconditionViolated(f"need n > 11, got {n}")
    if a < 2:
        raise PreconditionViolated(f"need a >= 2, got {a}")
    if not nt.is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    q = p**a
    chosen = []
    for k in range(n // 2 + 1, n):
        try:
            chosen.append(lemma52_check(k, p, a))
        except PreconditionViolated:
            continue
        if len(chosen) == 2:
            break
    if len(chosen) < 2:
        raise PreconditionViolated(
            f"no two admissible indices in ({n}/2, {n}) for p={p}, a={a}"
        )
    k1, k2 = (sub.context["k"] for sub in chosen)
    steps = []
    primes = []
    for sub in chosen:
        k, a_prime = sub.context["k"], sub.context["a_prime"]
        steps.extend(sub.steps)
        steps.append(step(f"{k} lies in ({n}/2, {n})", op="cmp", a=2 * k, rel="gt", b=n))
        steps.append(step(f"{k} is below {n}", op="cmp", a=k, rel="lt", b=n))
        wing_a = nt.least_ppd(k * a, p, budget)
        wing_b = nt.least_ppd(k * a_prime, p, budget)
        for r in (wing_a, wing_b):
            steps.append(
                step(
                    f"order of {q} modulo {r} is {k}",
                    op="mult_order", r=r, base=q, equals=k,
                )
            )
        steps.append(
            assume(
                f"{wing_a} and {wing_b} share the order index {k}, hence are adjacent",
                TAG_L53,
            )
        )
        primes.extend((wing_a, wing_b))
    steps.append(step(f"{k1} + {k2} exceeds {n}", op="cmp", a=k1 + k2, rel="gt", b=n))
    steps.append(step(f"{k1} does not divide {k2}", op="not_divides", a=k1, b=k2))
    steps.append(step(f"{k2} does not divide {k1}", op="not_divides", a=k2, b=k1))
    steps.append(
        assume(
            f"order indices {k1} != {k2} with large phi-values: the four primes are "
            "pairwise nonadjacent across the two classes",
            TAG_L53,
        )
    )
    return _two_k2(steps, primes, {"n": n, "p": p, "a": a, "q": q, "k1": k1, "k2": k2})


def sc_nonsplit_certificate(n: int, p: int) -> Certificate:
    """Non-splitness of the compact solvable graph of the n-dimensional
    linear group over GF(p), for prime n > 13 with p a primitive root mod n.

    Emits the full deduction chain: n = r_{n-1}(p); the solvable adjacency of
    R_{n-1} and R_n; the adjacency of R_k and R_m for k = (n-5)/2,
    m = (n+3)/2; and the six nonadjacency claims, every divisibility or
    interval step machine-checked and every group-theoretic step tagged.
    The conclusion is an induced 2K2 on the classes R_k, R_m, R_{n-1}, R_n.
    """
    if not nt.is_prime(n) or n <= 13:
        raise PreconditionViolated(f"need a prime n > 13, got {n}")
    if not nt.is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    if not nt.is_primitive_root(p, n):
        raise PreconditionViolated(f"{p} is not a primitive root modulo {n}")
    k = (n - 5) // 2
    m = (n + 3) // 2
    l = (n - 1) // 2
    steps = [
        step(f"{n} is prime", op="is_prime", n=n),
        step(f"{n} exceeds 13", op="cmp", a=n, rel="gt", b=13),
        step(f"{p} is a primitive root modulo {n}", op="primitive_root", p=p, mod=n),
        step(
            f"hence {n} is a primitive prime divisor for index {n - 1}: e({n},{p}) = {n - 1}",
            TAG_FERMAT,
            op="mult_order", r=n, base=p, equals=n - 1,
        ),
        assume(
            f"the normalizer of a Sylow torus gives a solvable subgroup of order divisible by "
            f"{n} * r_{n}: classes R_{n - 1} and R_{n} are adjacent in the solvable graph",
            TAG_AK_CYCLIC,
        ),
        assume(
            f"the characteristic is adjacent to R_{n - 1} but not to R_{n}, separating the two classes",
            TAG_L54,
        ),
        step(f"k = {k} and m = {m} satisfy k + m < {n}", op="cmp", a=k + m, rel="lt", b=n),
        assume(
            f"k + m < n: classes R_{k} and R_{m} are adjacent", TAG_L53
        ),
        # r_m does not divide n or n-1.
        step(f"{m} does not divide {n}", op="not_divides", a=m, b=n),
        step(f"{m} does not divide {n - 1}", op="not_divides", a=m, b=n - 1),
        step(f"{n - 1} is composite", op="is_composite", n=n - 1),
        step(
            f"every proper divisor of {n - 1} is at most {l} < {m} < r_m",
            op="cmp", a=l, rel="lt", b=m,
        ),
        assume(
            f"{m} divides r_m - 1 for every r_m in R_{m}({p})", TAG_FERMAT
        ),
        # r_k does not divide n or n-1.
        step(f"{k} does not divide {n}", op="not_divides", a=k, b=n),
        step(f"{k} does not divide {n - 1}", op="not_divides", a=k, b=n - 1),
        step(
            f"candidate r_k = {(n - 3) // 2} does not divide {n - 1}",
            op="not_divides", a=(n - 3) // 2, b=n - 1,
        ),
        step(
            f"candidate r_k = {l} fails: {k} does not divide {l - 1}",
            op="not_divides", a=k, b=l - 1,
        ),
        # Nonadjacency of R_m with R_n and R_{n-1}.
        assume(
            f"a solvable subgroup of order divisible by r_m r with r in R_{n} or R_{n - 1} "
            f"would force r_m to divide {n} or {n - 1}",
            TAG_AK_SOLV,
        ),
        # Nonadjacency of R_k with R_n.
        step(f"{k} does not divide {n} (so r_k does not divide {p}^{n} - 1)", op="not_divides", a=k, b=n),
        assume(
            f"solvable subgroups meeting R_{n} normalize the Sylow torus of order "
            f"({p}^{n}-1)/(({p}-1)({n},{p}-1)); their order divides {n}({p}^{n}-1)",
            TAG_AK_CYCLIC,
        ),
        # Nonadjacency of R_k with R_{n-1}.
        assume(
            f"a solvable subgroup of order divisible by r_k r_{n - 1} is reducible",
            TAG_TOR,
        ),
        # Separation of R_k and R_m via R_l.
        step(f"l = {l}: {l} + {k} is below {n}", op="cmp", a=l + k, rel="lt", b=n),
        assume(f"classes R_{l} and R_{k} are adjacent", TAG_L53),
        step(
            f"candidate r_l = {m} fails: {l} does not divide {m - 1}",
            op="not_divides", a=l, b=m - 1,
        ),
        assume(
            f"R_{l} is nonadjacent to R_{m} in the solvable graph, separating R_{k} from R_{m}",
            TAG_AK_SOLV,
        ),
    ]
    return _two_k2(steps, (f"R{k}", f"R{m}", f"R{n - 1}", f"R{n}"), {"n": n, "p": p, "k": k, "m": m, "l": l})


def prop72_certificate(
    u: int, w: int, p: int, budget: int = nt.DEFAULT_BUDGET
) -> Certificate:
    """Non-splitness of the solvable graph of the linear group of dimension
    n = u*w over GF(p^3), for distinct odd primes u, w with n = -1 mod 3.

    The chain shows |R_n(q)| > 1 and |R_{n-1}(q)| > 1 (q = p^3) and that no
    solvable subgroup joins the two classes.  The least member of each class
    is attached when ``numtheory.least_ppd`` finds it within the budget;
    otherwise the certificate stays symbolic.
    """
    for x in (u, w, p):
        if not nt.is_prime(x):
            raise PreconditionViolated(f"{x} is not prime")
    if u == w or u == 2 or w == 2:
        raise PreconditionViolated("u and w must be distinct odd primes")
    n = u * w
    if n % 3 != 2:
        raise PreconditionViolated(f"n = {n} must be congruent to -1 modulo 3")
    q = p**3
    steps = [
        step(f"n = {n} = {u} * {w} with n = 2 mod 3", op="mod_eq", a=n, m=3, equals=2),
        step(f"3 does not divide {n}", op="not_divides", a=3, b=n),
        step(f"3 does not divide {n - 1}", op="not_divides", a=3, b=n - 1),
    ]
    for idx in (n, n - 1):
        sub = lemma52_check(idx, p, 3)
        steps.extend(sub.steps)
        steps.append(
            assume(f"R_{idx}({q}) is a clique in the prime and solvable graphs", TAG_L53)
        )
    steps.extend(
        [
            assume(
                f"a solvable subgroup of order divisible by r s, r in R_{n}({q}), "
                f"s in R_{n - 1}({q}), forces s to divide {n}, so s = {u} or s = {w}",
                TAG_AK_SOLV,
            ),
            step(
                f"s in R_{n - 1}({q}) makes {n - 1} divide s - 1; but {n - 1} does not divide {u - 1}",
                TAG_FERMAT,
                op="not_divides", a=n - 1, b=u - 1,
            ),
            step(
                f"... and {n - 1} does not divide {w - 1}",
                TAG_FERMAT,
                op="not_divides", a=n - 1, b=w - 1,
            ),
        ]
    )
    context = {"u": u, "w": w, "p": p, "n": n, "q": q, "symbolic": True}
    try:
        sample_n = nt.least_ppd(3 * n, p, budget)
        sample_n1 = nt.least_ppd(3 * (n - 1), p, budget)
        context.update({"symbolic": False, "sample_r_n": sample_n, "sample_r_n_minus_1": sample_n1})
        steps.append(
            step(
                f"sample member: order of {q} modulo {sample_n} is {n}",
                op="mult_order", r=sample_n, base=q, equals=n,
            )
        )
        steps.append(
            step(
                f"sample member: order of {q} modulo {sample_n1} is {n - 1}",
                op="mult_order", r=sample_n1, base=q, equals=n - 1,
            )
        )
    except nt.BudgetExceeded:
        pass
    return _two_k2(steps, (f"R{n}", f"R{n}'", f"R{n - 1}", f"R{n - 1}'"), context)


_PSL11_EDGES = {
    ("hub", "R3"), ("hub", "R4"), ("hub", "R5"), ("hub", "R7"),
    ("hub", "R8"), ("hub", "R9"), ("hub", "R10"),
    ("R3", "R4"), ("R3", "R5"), ("R3", "R7"), ("R3", "R8"), ("R3", "R9"),
    ("R4", "R5"), ("R4", "R7"), ("R4", "R8"), ("R4", "R10"),
    ("R5", "R10"),
    ("R10", "R11"),
}


def psl11_2_sc() -> tuple[Graph, Certificate]:
    """The encoded nine-class compact solvable graph of the 11-dimensional
    linear group over GF(2), with its 2K2 witness on R3, R7, R10, R11."""
    members = {
        "hub": (2, 3),  # the prime 2 together with R_2(2) = {3}
        "R3": (7,),
        "R4": (5,),
        "R5": (31,),
        "R7": (127,),
        "R8": (17,),
        "R9": (73,),
        "R10": (11,),
        "R11": (23, 89),
    }
    labels = {tag: ClassLabel(tag, mem) for tag, mem in members.items()}
    graph = Graph(
        labels.values(),
        [(labels[u], labels[v]) for u, v in sorted(_PSL11_EDGES)],
    )
    steps = [
        step("order of 2 modulo 3 is 2", op="mult_order", r=3, base=2, equals=2),
    ]
    for tag, mem in sorted(members.items()):
        if tag == "hub":
            continue
        index = int(tag[1:])
        for r in mem:
            steps.append(
                step(f"order of 2 modulo {r} is {index}", op="mult_order", r=r, base=2, equals=index)
            )
    steps.extend(
        [
            step("2 is a primitive root modulo 11", op="primitive_root", p=2, mod=11),
            step(
                "hence 11 is a primitive prime divisor for index 10",
                TAG_FERMAT,
                op="mult_order", r=11, base=2, equals=10,
            ),
            assume(
                "the normalizer of a Sylow 23-torus is solvable of order divisible by 11 * 23: "
                "R10 and R11 are adjacent",
                TAG_AK_CYCLIC,
            ),
            step("3 + 7 is at most 11", op="cmp", a=10, rel="le", b=11),
            assume("R3 and R7 are adjacent (small order indices)", TAG_L53),
            assume(
                "R3 and R7 are nonadjacent to R10 and R11: solvable subgroups meeting "
                "R10 or R11 have order dividing 11 * (2^11 - 1) resp. 5 * 11 * (2^10 - 1)",
                TAG_AK_SOLV,
            ),
            assume("remaining adjacency as encoded in the published diagram", "reference-diagram"),
        ]
    )
    witness = (labels["R3"], labels["R7"], labels["R10"], labels["R11"])
    return graph, _two_k2(steps, witness, {"group": "A10(2)", "n": 11, "p": 2})


def artin_pairs(p: int, limit: int) -> list[int]:
    """All odd primes n <= limit (n != p) with p a primitive root modulo n."""
    return [n for n in nt.primes_upto(limit) if n != 2 and nt.is_primitive_root(p, n)]


# ---------------------------------------------------------------------------
# The graphs each group has
# ---------------------------------------------------------------------------


def kind_of(d: groups.GroupDescriptor) -> str:
    """The row of ``GRAPHS`` that d belongs to, read from the descriptor alone."""
    if d.kind in ("alternating", "symmetric"):
        return "Alt/Sym"
    if d.kind == "sporadic":
        return "Tits" if d.tits else "M22" if d.name == "M22" else "sporadic"
    if d.kind == "classical" and groups.prk(d) >= 4:
        return "classical"
    # the diagram groups whose maximal element orders groups.spectrum_formulas writes down
    return "closed-form diagram" if groups.spectrum_key(d) else "diagram"


def _spectrum_graph(d: groups.GroupDescriptor, budget: int) -> Graph:
    return groups.gk_from_spectrum(groups.spectrum_formulas(d), budget)


def _compact_graph(d: groups.GroupDescriptor, budget: int) -> Graph:
    return theoremD_verify(d, budget)[0]


def _m22_solvable_graph(d: groups.GroupDescriptor, budget: int) -> Graph:
    record = groups.sporadic_record(d.name)
    return Graph(sorted(record.prime_spectrum), record.solvable_edges)


def _altsym_certified(d: groups.GroupDescriptor, budget: int):
    trail = (assume("prime adjacency from the degree sum criteria", "criterion"),)
    return gk_altsym(d), Certificate(KIND_SPLIT, trail, partition=altsym_partition(d.n), context={"group": str(d)})


def _sporadic_certified(d: groups.GroupDescriptor, budget: int):
    trail = (assume(f"special split partition of {d.name} from the reference table", "reference-table"),)
    partition = groups.sporadic_record(d.name).prime_partition._replace(special=True)
    return None, Certificate(KIND_SPLIT, trail, partition=partition, context={"group": d.name})


Graphs = NamedTuple("Graphs", [("prime", object), ("compact", object), ("solvable", object), ("certificate", object)])

_NO_PRIME = "no closed-form prime graph for {d}; supply one with --spectrum FILE"
_NO_SOLVABLE = "no embedded solvable-graph edge set for {d} (only M22 ships one)"
# the published criteria (prk >= 4) and tables (sporadic) give a partition, not the adjacency
_NO_COMPACT = (
    "the compact form of {d} is certified by a partition, not materialized as a graph; "
    "use 'verify theorem-d --group ...' instead"
)

#: kind of group (``kind_of``) -> its graphs, each a builder (d, budget) ->
#: Graph or the reason (a format string of d) none is built, and the builder
#: theoremD_verify checks, (d, budget) -> (the graph the partition validates
#: on, None where compact is a reason; the certificate).  A builder looks its
#: functions up by name when called, so a rebound module name reaches it.
GRAPHS = {
    "Alt/Sym": Graphs(lambda d, b: gk_altsym(d), _compact_graph, _NO_SOLVABLE, _altsym_certified),
    "Tits": Graphs(_spectrum_graph, _compact_graph, _NO_SOLVABLE, lambda d, b: exceptional_compact(d, b)),
    "M22": Graphs(_NO_PRIME, _NO_COMPACT, _m22_solvable_graph, _sporadic_certified),
    "sporadic": Graphs(_NO_PRIME, _NO_COMPACT, _NO_SOLVABLE, _sporadic_certified),
    "classical": Graphs(_NO_PRIME, _NO_COMPACT, _NO_SOLVABLE, lambda d, b: (None, classical_compact_partition(d, b))),
    "closed-form diagram": Graphs(_spectrum_graph, _compact_graph, _NO_SOLVABLE, lambda d, b: exceptional_compact(d, b)),
    "diagram": Graphs(_NO_PRIME + ", or use --graph compact for its class graph",
                      _compact_graph, _NO_SOLVABLE, lambda d, b: exceptional_compact(d, b)),
}


def graph_of(d: groups.GroupDescriptor, which: str, budget: int = nt.DEFAULT_BUDGET) -> Graph:
    """The graph which ("prime", "compact" or "solvable") of d, by its row of
    ``GRAPHS``.  Where the row has none, UnsupportedFamily with the row's
    reason, decided from the descriptor alone, before any factoring."""
    entry = getattr(GRAPHS[kind_of(d)], which)
    if isinstance(entry, str):
        raise UnsupportedFamily(entry.format(d=d))
    return entry(d, budget)


def theoremD_verify(
    d: groups.GroupDescriptor, budget: int = nt.DEFAULT_BUDGET
) -> tuple[Graph | None, SplitVerdict, Certificate]:
    """Split verdict with certificate for the compact prime graph of d.

    Returns (compact graph or None, verdict, certificate) from the builder
    in d's row of ``GRAPHS``; without a graph the verdict's partition is the
    certificate's.  Builders build and this function checks: the partition
    is validated on the graph once (CheckFailed, naming d).  The degree
    route then decides the graph, compacted first when its vertices are
    primes (Alt/Sym; a drawn diagram can hold true twins, 3 and R3 in G2(4),
    and is decided as drawn); its disagreeing is InternalInconsistency.
    """
    graph, cert = GRAPHS[kind_of(d)].certificate(d, budget)
    if graph is None:
        return None, SplitVerdict(True, None, cert.partition), cert
    ok, reason = validate_partition(graph, cert.partition)
    if not ok:
        raise CheckFailed(f"certified partition of {d} invalid: {reason}")
    if not isinstance(graph.vertices[0], ClassLabel):
        graph = graph.compact_form().quotient
    verdict = is_split_degree(graph)
    if not verdict.split:
        raise InternalInconsistency(f"compact graph of {d} is not split")
    return graph, verdict, cert
