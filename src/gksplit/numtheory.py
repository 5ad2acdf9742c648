"""Exact integer number theory behind all adjacency criteria.

Everything here is elementary and deterministic: factorization by trial
division plus a Pollard-rho second stage under an explicit effort budget,
Miller-Rabin primality (deterministic for inputs below 3.3e24), multiplicative
orders, primitive prime divisors R_i(n) with the Bang-Zsigmondy exception
list, and pi-parts.

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

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import BudgetExceeded, NotCoprime, PreconditionViolated

#: (n, i) pairs with R_i(n) empty; every other pair with |n| > 1, i >= 1 has a
#: primitive prime divisor (Bang 1886 / Zsigmondy 1892).
ZSIGMONDY_EXCEPTIONS = frozenset({(2, 1), (2, 6), (-2, 2), (-2, 3), (3, 1), (-3, 2)})

#: Default effort budget: counts trial divisions plus rho iterations.
DEFAULT_BUDGET = 2_000_000

_TRIAL_BOUND = 100_000

# Deterministic Miller-Rabin witness set for n < 3.317e24 (Sorenson-Webster);
# above that bound the extended witness list makes the test a fixed-witness
# strong-probable-prime check, ample for the integer sizes this package meets.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_EXTRA_WITNESSES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test; deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_WITNESSES
    if n >= _MR_DETERMINISTIC_BOUND:
        witnesses = _MR_WITNESSES + _MR_EXTRA_WITNESSES
    for a in witnesses:
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


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit by a sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


@dataclass(frozen=True)
class Factorization:
    """A complete factorization: value = prod(p**e for p, e in factors).

    Bases are primes in strictly increasing order.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1 or not is_prime(p):
                raise ValueError(f"malformed factorization of {self.value}")
            last = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors do not multiply to {self.value}")

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


def _rho_factor(n: int, budget: _Budget) -> int | None:
    """Brent-cycle Pollard rho; deterministic parameter sweep, None on budget."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            if not budget.spend():
                return None
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    return None


def factor(n: int, budget: int = DEFAULT_BUDGET) -> Factorization:
    """Complete factorization of n >= 1.

    Trial division up to a fixed bound, then Pollard rho on whatever is left,
    all under one effort budget.  Raises BudgetExceeded (carrying the partial
    factorization found so far) rather than running unboundedly.
    """
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
    for p in (2, 3, 5):
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    # 6k+-1 wheel up to the trial bound.
    d = 7
    step = 4
    while d <= _TRIAL_BOUND and d * d <= m:
        if not meter.spend():
            raise fail()
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
        d += step
        step = 6 - step
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < d * d or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        piece = _rho_factor(m, meter)
        if piece is None or piece == m:
            raise fail()
        stack.append(piece)
        stack.append(m // piece)
    return Factorization(n, tuple(sorted(counts.items())))


def prime_set(n: int, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """pi(n): the set of all prime divisors of n >= 1."""
    return factor(n, budget).prime_set


def raw_order(r: int, n: int) -> int:
    """Group-theoretic multiplicative order of n modulo the prime r."""
    if r < 2 or not is_prime(r):
        raise PreconditionViolated(f"{r} is not a prime modulus")
    m = n % r
    if m == 0:
        raise NotCoprime(f"{n} is divisible by {r}")
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


def pi_part(a: int, pi) -> int:
    """(a)_pi: the greatest divisor of a whose prime divisors all lie in pi."""
    if a < 1:
        raise PreconditionViolated(f"pi_part needs a >= 1, got {a}")
    part = 1
    for p in sorted(set(pi)):
        while a % p == 0:
            a //= p
            part *= p
    return part


def is_primitive_root(p: int, n: int) -> bool:
    """True iff the prime p generates the multiplicative group modulo the odd prime n."""
    if not is_prime(n) or n == 2:
        raise PreconditionViolated(f"{n} is not an odd prime")
    if p % n == 0:
        return False
    return raw_order(n, p) == n - 1


def _mobius(n: int) -> int:
    mu = 1
    for _, e in factor(n).factors:
        if e > 1:
            return 0
        mu = -mu
    return mu


def cyclotomic_value(i: int, n: int) -> int:
    """Phi_i(n): the i-th cyclotomic polynomial evaluated at the integer n.

    Computed by the Moebius product Phi_i(x) = prod_{d|i} (x^d - 1)^mu(i/d),
    as an exact integer quotient.  Requires |n| > 1 so every factor is nonzero.
    """
    if i < 1 or abs(n) <= 1:
        raise PreconditionViolated(f"cyclotomic_value needs i >= 1 and |n| > 1")
    num = 1
    den = 1
    for d in range(1, i + 1):
        if i % d:
            continue
        mu = _mobius(i // d)
        if mu == 1:
            num *= n**d - 1
        elif mu == -1:
            den *= n**d - 1
    return num // den


def is_zsigmondy_exception(i: int, n: int) -> bool:
    """True iff R_i(n) is empty, by the Bang-Zsigmondy theorem."""
    return (n, i) in ZSIGMONDY_EXCEPTIONS


def ppd_set(i: int, n: int, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """R_i(n): all primes r with e(r, n) = i (primitive prime divisors of n^i - 1).

    Candidate primes are the divisors of Phi_i(n), which keeps the integers to
    factor small; each candidate's order is then checked exactly.  The prime 2
    is assigned to R_1 or R_2 by the e(2, n) convention.
    """
    if i < 1 or abs(n) <= 1:
        raise PreconditionViolated(f"ppd_set needs i >= 1 and |n| > 1")
    out = set()
    value = abs(cyclotomic_value(i, n))
    if value > 1:
        for r in prime_set(value, budget):
            if r == 2 or n % r == 0:
                continue
            if mult_order(r, n) == i:
                out.add(r)
    if n % 2 != 0 and i in (1, 2) and mult_order(2, n) == i:
        out.add(2)
    return frozenset(out)
