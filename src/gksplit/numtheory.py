"""Exact integer number theory behind all adjacency criteria.

Everything here is elementary and deterministic: factorization by batched
trial division (a gcd with the product of each block of small primes) plus a
Brent-cycle Pollard-rho second stage on x^s + c, under an explicit effort
budget (one unit per prime trial division covers, one per four modular
multiplications of rho), with one bounded memo per process; Miller-Rabin
primality (a proof for inputs below 3.317e24, a fixed-base
strong-probable-prime test above);
multiplicative orders; primitive prime divisors R_i(n) with the
Bang-Zsigmondy exception list; and pi-parts (a)_pi(b) by repeated gcds, so
pi(a) lies in pi(b) iff (a)_pi(b) = a.  Factoring names primes (class
members, graph vertices, the primes of an order) but decides no relation
between prime sets.

There is one prime table per process.  ``primes_upto`` and the trial-division
blocks both read it; it is empty at import, sieved on first use and re-sieved
to at least twice its limit whenever a larger limit is asked for, so a sweep
over growing limits sieves a total linear in its largest limit.

R_i(n) is read off the prime divisors of Phi_i(n), and Phi_i(n) is factored
piece by piece: with the sign folded in and |n| = b^k for b not a perfect
power, |Phi_i(n)| is a product of values Phi_j(b), each much smaller than
the whole (Phi_61(4) = Phi_61(2) Phi_122(2) is a product of two primes of
61 and 60 bits, which neither trial division nor the rho budget splits as
one integer).  Each piece's rho iterates x^s + c with s = lcm(j, 2), since a
prime factor p of Phi_j(b) that does not divide j is 1 mod s, so x^s takes
only about (p - 1) / s values modulo p (Brent and Pollard, Math. Comp. 36,
1981).  Both steps need only the primes of i: Phi_i(n) is the
Moebius product over the squarefree divisors of i, and a prime divisor r of
Phi_i(n) lies in R_i(n) iff n^(i/p) != 1 (mod r) for each prime p | i, so no
r - 1 is factored.  The certificate re-checker tests a claimed order the same
way (``is_mult_order``); ``raw_order`` still factors r - 1, for its
primitive-root steps.

Order convention.  For an odd prime r coprime to n, ``mult_order(r, n)`` is
the least k with n^k = 1 (mod r).  For r = 2 and odd n the convention is

    e(2, n) = 1 if n = 1 (mod 4),    e(2, n) = 2 if n = 3 (mod 4),

which differs from the group-theoretic order (always 1 modulo 2); the raw
order is available separately as ``raw_order``.  The convention makes the
primitive-divisor classes R_1(n), R_2(n) partition the prime 2 correctly and
is what every adjacency criterion downstream relies on.  Negative bases are
supported throughout (reduce n modulo r), which realizes orders of -q needed
for unitary groups.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from .errors import BudgetExceeded, InternalInconsistency, NotCoprime, PreconditionViolated

#: (n, i) pairs with R_i(n) empty; every other pair with |n| > 1, i >= 1 has a
#: primitive prime divisor (Bang 1886 / Zsigmondy 1892).
ZSIGMONDY_EXCEPTIONS = frozenset({(2, 1), (2, 6), (-2, 2), (-2, 3), (3, 1), (-3, 2)})

#: Default effort budget: counts the primes trial division covers plus rho's
#: modular multiplications, four to a unit (one step of a Floyd loop on
#: x^2 + c, so the scale is that of a budget counted in such steps).
DEFAULT_BUDGET = 2_000_000

#: Rho evaluations per gcd: the differences of one block are multiplied
#: modulo n and tested with a single gcd.
_RHO_BLOCK = 64

_TRIAL_BOUND = 100_000

#: Primes per trial-division block: one gcd with the block's product (about
#: 1,100 bits near the trial bound) tests all of them at once.
_TRIAL_BLOCK = 64

#: Miller-Rabin bases: the first 25 primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

# Witness tiers at the bounds psi_t of OEIS A014233 (Jaeschke, Math. Comp. 61,
# 1993; Sorenson-Webster, Math. Comp. 86, 2017): psi_t is the least odd
# composite that is a strong probable prime to each of the first t prime
# bases, so below it those t bases decide primality.  psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11, which leaves ten bounds.  At and above psi_13 every
# base of _MR_BASES is tried, a strong-probable-prime check, not a proof.
_MR_TIER_BOUNDS = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_MR_TIER_BASES = tuple(_MR_BASES[:t] for t in (1, 2, 3, 4, 5, 6, 7, 9, 12, 13, len(_MR_BASES)))


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test on the bases of n's witness tier.

    Exact for n < 3317044064679887385961981 (psi_13), where the first t
    prime bases with n < psi_t decide; above that, a strong-probable-prime
    test to the first 25 prime bases.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_TIER_BASES[bisect_right(_MR_TIER_BOUNDS, n)]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: (sieve limit, every prime up to it in increasing order); empty until a
#: caller needs primes.
_prime_table: tuple[int, list[int]] = (1, [])


def _sieve(limit: int) -> list[int]:
    """All primes <= limit by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(compress(range(limit + 1), sieve))


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, in increasing order, as a new list.

    Read off the shared prime table, which is re-sieved to at least twice
    its limit when limit lies beyond it.  The list is a copy: changing it
    leaves the table alone.
    """
    global _prime_table
    top, primes = _prime_table
    if limit > top:
        top = max(limit, 2 * top)
        primes = _sieve(top)
        _prime_table = (top, primes)
    return primes[: bisect_right(primes, limit)]


class _FactorizationFields(NamedTuple):
    value: int
    factors: tuple[tuple[int, int], ...]


class Factorization(_FactorizationFields):
    """A complete factorization: value = prod(p**e for p, e in factors).

    Bases are primes in strictly increasing order; the constructor raises
    ValueError otherwise (``_make`` and ``_replace`` do not check).
    """

    __slots__ = ()

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...]):
        product = 1
        last = 1
        for p, e in factors:
            if p <= last or e < 1 or not is_prime(p):
                raise ValueError(f"malformed factorization of {value}")
            last = p
            product *= p**e
        if product != value:
            raise ValueError(f"factors do not multiply to {value}")
        return super().__new__(cls, value, factors)

    @property
    def prime_set(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.factors)


class _Budget:
    """Mutable effort counter shared by one factoring call tree."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, amount: int = 1) -> bool:
        self.remaining -= amount
        return self.remaining >= 0


#: (sieve limit, [(block of _TRIAL_BLOCK consecutive primes, their product)])
#: covering every prime up to the limit; empty until a factoring needs it.
_trial_table: tuple[int, list[tuple[tuple[int, ...], int]]] = (1, [])


def _trial_blocks(limit: int) -> list[tuple[tuple[int, ...], int]]:
    """Blocks of consecutive primes, with products, covering every prime <= limit.

    limit is at most the trial bound.  The blocks are rebuilt from the shared
    prime table, to at least twice their old limit, whenever a factoring
    needs primes beyond them, so small inputs never pay for the whole table
    and the total cost stays linear in the largest limit asked for.
    """
    global _trial_table
    if limit > _trial_table[0]:
        top = min(_TRIAL_BOUND, max(limit, 2 * _trial_table[0], 1024))
        primes = primes_upto(top)
        chunks = (tuple(primes[k : k + _TRIAL_BLOCK]) for k in range(0, len(primes), _TRIAL_BLOCK))
        _trial_table = (top, [(chunk, prod(chunk)) for chunk in chunks])
    return _trial_table[1]


def _block_cost(block: tuple[int, ...], limit: int) -> int:
    """Budget units of trial division by the primes of block up to limit: one per prime."""
    return len(block) if block[-1] <= limit else bisect_right(block, limit)


def _rho_factor(n: int, budget: _Budget, s: int) -> int | None:
    """Brent-cycle Pollard rho on x^s + c with a deterministic c sweep; None on budget.

    Brent's cycle detection (BIT 20, 1980) with Brent and Pollard's
    exponent (Math. Comp. 36, 1981).

    For each c in 1..63 the iterates y_k of y -> y^s + c (mod n) from y_0 = 2
    run in stretches of 1, 2, 4, ... evaluations, each compared with the
    iterate x that ends the stretch before it, until gcd(x - y_k, n) > 1; a
    gcd of n moves on to the next c.  s is a hint: a divisor is found by a
    gcd whatever s is, and s = lcm(j, 2) suits a value of Phi_j, whose prime
    factors p not dividing j are 1 mod s, so that y^s takes only about
    (p - 1) / s values modulo p.

    The budget pays for modular multiplications, four per unit: an
    evaluation and its product cost s.bit_length() + s.bit_count() - 1 of
    them.  The differences x - y of up to _RHO_BLOCK evaluations are
    multiplied modulo n and tested with one gcd; a block whose gcd exceeds 1
    is replayed step by step, so the divisor found is the one a gcd after
    every evaluation finds first, and the evaluations after it are refunded.
    The result and the budget left are those of that step-by-step loop, also
    when the budget runs out inside a block.
    """
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


def factor(n: int, budget: int = DEFAULT_BUDGET, s: int = 2) -> Factorization:
    """Complete factorization of n >= 1.

    Trial division by the primes up to min(trial bound, sqrt(n)), one gcd per
    block of them, then Pollard rho on x^s + c on whatever is left, all under
    one effort budget: each prime trial division covers costs one unit, and
    rho pays one unit per four modular multiplications.  The even exponent s
    is a hint only (lcm(j, 2) for a value of Phi_j, see _rho_factor): every s
    gives the same factorization, but not the same work.  Raises
    BudgetExceeded (carrying the partial factorization found so far) rather
    than running unboundedly.

    Results are memoized per process on (n, budget, s), the
    _FACTOR_MEMO_SIZE most recently used of them, so factor(n) and
    factor(n, DEFAULT_BUDGET) return one shared Factorization.  A budget
    exhaustion is never memoized: each call that runs out of budget redoes
    the work and raises afresh.
    """
    return _factor(n, budget, s)


_FACTOR_MEMO_SIZE = 4096


@lru_cache(maxsize=_FACTOR_MEMO_SIZE)
def _factor(n: int, budget: int, s: int) -> Factorization:
    """The work behind factor; lru_cache keeps what it returns, not what it raises."""
    if n < 1:
        raise PreconditionViolated(f"factor() needs n >= 1, got {n}")
    counts: dict[int, int] = {}
    meter = _Budget(budget)

    def fail() -> BudgetExceeded:
        partial = tuple(sorted(counts.items()))
        value = 1
        for p, e in partial:
            value *= p**e
        return BudgetExceeded(
            f"factoring budget exhausted on {n}",
            partial=Factorization(value, partial),
        )

    m = n
    # After trial division m has no prime factor <= limit.
    limit = min(_TRIAL_BOUND, isqrt(m))
    for block, block_product in _trial_blocks(limit):
        if block[0] > limit:
            break
        if not meter.spend(_block_cost(block, limit)):
            raise fail()
        g = gcd(m, block_product)
        if g == 1:
            continue
        # g is the product of the block's primes that divide m
        for p in block:
            if g % p == 0:
                g //= p
                while m % p == 0:
                    counts[p] = counts.get(p, 0) + 1
                    m //= p
                if g == 1:
                    break
        limit = min(limit, isqrt(m))
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if isqrt(m) <= limit or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        piece = _rho_factor(m, meter, s)
        if piece is None or piece == m:
            raise fail()
        stack.append(piece)
        stack.append(m // piece)
    return Factorization(n, tuple(sorted(counts.items())))


def prime_set(n: int, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """pi(n): the set of all prime divisors of n >= 1."""
    return factor(n, budget).prime_set


def _unit(r: int, n: int) -> int:
    """n modulo the prime r, which must not divide n."""
    if r < 2 or not is_prime(r):
        raise PreconditionViolated(f"{r} is not a prime modulus")
    m = n % r
    if m == 0:
        raise NotCoprime(f"{n} is divisible by {r}")
    return m


def raw_order(r: int, n: int) -> int:
    """Group-theoretic multiplicative order of n modulo the prime r."""
    m = _unit(r, n)
    if r == 2:
        return 1
    order = r - 1
    for p in prime_set(r - 1):
        while order % p == 0 and pow(m, order // p, r) == 1:
            order //= p
    return order


def mult_order(r: int, n: int) -> int:
    """e(r, n) under the adjacency-criteria convention (see module docstring)."""
    if abs(n) <= 1:
        raise PreconditionViolated(f"base must satisfy |n| > 1, got {n}")
    if r == 2:
        if n % 2 == 0:
            raise NotCoprime(f"{n} is even")
        return 1 if n % 4 == 1 else 2
    return raw_order(r, n)


def is_mult_order(r: int, n: int, k: int) -> bool:
    """Whether e(r, n) == k, decided from k's side: n^k = 1 (mod r) and
    n^(k/l) != 1 for each prime l of k.  Only k is factored, never r - 1,
    so a claim about a prime r whose r - 1 is hard costs what k costs.
    Raises on the arguments mult_order raises on.
    """
    if r == 2 or abs(n) <= 1:
        return mult_order(r, n) == k
    m = _unit(r, n)
    return k >= 1 and pow(m, k, r) == 1 and all(pow(m, k // p, r) != 1 for p in prime_set(k))


def pi_part(a: int, b: int) -> int:
    """(a)_pi(b): the greatest divisor of a whose primes all divide b, for a, b >= 1.

    Repeated gcds divide b's primes out of a with no factoring; each gcd is
    taken with the square of the last, so a power p^e takes log2(e) rounds.
    """
    if a < 1 or b < 1:
        raise PreconditionViolated(f"pi_part needs a, b >= 1, got {a} and {b}")
    rest, g = a, gcd(a, b)
    while g > 1:
        rest //= g
        g = gcd(rest, g * g)
    return a // rest


def is_primitive_root(p: int, n: int) -> bool:
    """True iff the prime p generates the multiplicative group modulo the odd prime n."""
    if not is_prime(n) or n == 2:
        raise PreconditionViolated(f"{n} is not an odd prime")
    if p % n == 0:
        return False
    return raw_order(n, p) == n - 1


def cyclotomic_value(i: int, n: int) -> int:
    """Phi_i(n): the i-th cyclotomic polynomial evaluated at the integer n.

    Computed by the Moebius product Phi_i(x) = prod (x^(i/d) - 1)^mu(d) over
    the squarefree divisors d of i (mu vanishes on the others), as an exact
    integer quotient.  Requires |n| > 1 so every factor is nonzero.
    """
    if i < 1 or abs(n) <= 1:
        raise PreconditionViolated(f"cyclotomic_value needs i >= 1 and |n| > 1")
    # (d, mu(d)) for the squarefree divisors d of i, from one factorization of i
    divisors = [(1, 1)]
    for p, _ in factor(i).factors:
        divisors += [(d * p, -mu) for d, mu in divisors]
    num = 1
    den = 1
    for d, mu in divisors:
        if mu == 1:
            num *= n ** (i // d) - 1
        else:
            den *= n ** (i // d) - 1
    return num // den


def is_zsigmondy_exception(i: int, n: int) -> bool:
    """True iff R_i(n) is empty, by the Bang-Zsigmondy theorem."""
    return (n, i) in ZSIGMONDY_EXCEPTIONS


def _iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 1, k >= 1, by integer Newton steps from above."""
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(x: int) -> tuple[int, int]:
    """(b, k) with x = b^k and b not a perfect power, for x >= 2.

    A perfect power is a perfect e-th power for some prime e, so only prime
    exponents are tried, each until its root is no e-th power.
    """
    b, k = x, 1
    for e in primes_upto(x.bit_length()):
        if 1 << e > b:
            break
        r = _iroot(b, e)
        while r**e == b:
            b, k = r, k * e
            r = _iroot(b, e)
    return b, k


def _cyclotomic_split(i: int, n: int) -> tuple[int, list[int]]:
    """(b, js) with |Phi_i(n)| = prod(Phi_j(b) for j in js), b not a perfect power.

    |Phi_i(-x)| = Phi_i'(x) with i' = 2i for odd i, i/2 for i = 2 (mod 4)
    and i otherwise; and for |n| = b^k, Phi_i'(b^k) is the product of the
    Phi_j(b) over the j | i'k with j / gcd(j, k) = i' (a root of Phi_j has
    order j, its k-th power order j / gcd(j, k)).
    """
    if n < 0:
        i = 2 * i if i % 2 else i // 2 if i % 4 == 2 else i
    b, k = _perfect_power(abs(n))
    top = i * k
    return b, [j for j in range(1, top + 1) if top % j == 0 and j // gcd(j, k) == i]


def ppd_set(i: int, n: int, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """R_i(n): all primes r with e(r, n) = i (primitive prime divisors of n^i - 1).

    Candidate primes are the divisors of Phi_i(n), which keeps the integers to
    factor small.  When |n| = b^k is a perfect power, Phi_i(n) is factored as
    its cyclotomic pieces Phi_j(b) (see _cyclotomic_split), each on its own
    and under its own budget.  Each piece's rho iterates x^s + c with
    s = lcm(j, 2), as a prime factor of Phi_j(b) not dividing j is 1 mod s;
    s goes with the integer, so Phi_j(b) is one memo entry of factor whatever
    (i, n) it is a piece of.  An odd candidate r has order exactly i iff
    n^i = 1 (mod r) and n^(i/p) != 1 (mod r) for every prime p | i, which
    takes the primes of i alone and factors no r - 1.  The prime 2 is
    assigned to R_1 or R_2 by the e(2, n) convention.
    """
    if i < 1 or abs(n) <= 1:
        raise PreconditionViolated(f"ppd_set needs i >= 1 and |n| > 1")
    out = set()
    value = abs(cyclotomic_value(i, n))
    if value > 1:
        b, js = _cyclotomic_split(i, n)
        # a split into one piece (always so when |n| is no perfect power) is
        # |Phi_i(n)| itself; each piece goes with its rho exponent
        pieces = [value] if len(js) == 1 else [cyclotomic_value(j, b) for j in js]
        if prod(pieces) != value:
            raise InternalInconsistency(f"cyclotomic pieces {pieces} do not multiply to |Phi_{i}({n})|")
        factored = (factor(piece, budget, lcm(j, 2)) for piece, j in zip(pieces, js))
        candidates = frozenset().union(*(f.prime_set for f in factored))
        cofactors = _cofactors(i)
        out.update(r for r in candidates if _odd_ppd(r, n, i, cofactors))
    if _two_is_ppd(i, n):
        out.add(2)
    return frozenset(out)


def has_ppd(i: int, n: int, minus=()) -> bool:
    """Whether R_i(n) holds a prime outside minus, without factoring Phi_i(n).

    An odd prime r that divides Phi_i(n) but not i has order exactly i
    modulo n (and r does not divide n, as Phi_i(0) = +-1), while every odd
    member of R_i(n) divides Phi_i(n).  So R_i(n) - minus is nonempty iff 2
    lies in it or |Phi_i(n)| is still above 1 once the primes of 2 * i *
    prod(minus) are divided out of it (``pi_part``).
    """
    if i < 1 or abs(n) <= 1:
        raise PreconditionViolated(f"has_ppd needs i >= 1 and |n| > 1")
    if 2 not in minus and _two_is_ppd(i, n):
        return True
    value = abs(cyclotomic_value(i, n))
    return pi_part(value, 2 * i * prod(minus)) < value


def _cofactors(i: int) -> list[int]:
    """i / p for each prime p dividing i."""
    return [i // p for p, _ in factor(i).factors]


def _odd_ppd(r: int, n: int, i: int, cofactors: list[int]) -> bool:
    """Whether the prime r is odd and n has order exactly i modulo r."""
    return r != 2 and pow(n, i, r) == 1 and all(pow(n, c, r) != 1 for c in cofactors)


def _two_is_ppd(i: int, n: int) -> bool:
    """Whether 2 lies in R_i(n), by the e(2, n) convention."""
    return n % 2 != 0 and i in (1, 2) and mult_order(2, n) == i


def least_ppd(i: int, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """min(ppd_set(i, n, budget)), without factoring Phi_i(n) when a small member exists.

    Every odd member of R_i(n) divides Phi_i(n), so the first prime of the
    trial blocks, scanned in increasing order, that divides |Phi_i(n)| and has
    order exactly i is the least member.  The scan covers the primes that
    factor's trial division would cover and charges the budget as it does.
    Only when no member lies in that range, or the budget runs out first, is
    the answer min(ppd_set(i, n, budget)): ValueError when R_i(n) is empty,
    and ppd_set's BudgetExceeded.
    """
    value = abs(cyclotomic_value(i, n))
    if _two_is_ppd(i, n):
        return 2
    cofactors = _cofactors(i)
    limit = min(_TRIAL_BOUND, isqrt(value))
    meter = _Budget(budget)
    for block, block_product in _trial_blocks(limit):
        if block[0] > limit or not meter.spend(_block_cost(block, limit)):
            break
        g = gcd(value, block_product)
        if g == 1:
            continue
        for r in block:
            if g % r == 0 and _odd_ppd(r, n, i, cofactors):
                return r
    return min(ppd_set(i, n, budget))
