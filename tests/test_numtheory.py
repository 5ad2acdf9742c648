import collections
import os
import random
import subprocess
import sys
import time
from math import isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gksplit import numtheory as nt
from gksplit.errors import BudgetExceeded, InternalInconsistency, NotCoprime, PreconditionViolated

from oracles import (
    brent_rho,
    brute_factor,
    brute_order,
    brute_ppd,
    brute_primes,
    cyclotomic_by_division,
    pow_ppd,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestFactor:
    def test_unit(self):
        assert nt.factor(1).factors == ()

    def test_small(self):
        assert nt.factor(60).factors == ((2, 2), (3, 1), (5, 1))

    def test_mersenne_like(self):
        # 4^7 - 1, frozen from trial division
        assert nt.factor(16383).factors == ((3, 1), (43, 1), (127, 1))

    def test_against_trial_division(self):
        for n in range(1, 2000):
            assert list(nt.factor(n).factors) == brute_factor(n)

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        f = nt.factor(p * q)
        assert f.factors == ((p, 1), (q, 1))

    def test_budget_exhaustion_carries_partial(self):
        n = 2 * (10**9 + 7) * (10**9 + 9)
        with pytest.raises(BudgetExceeded) as exc:
            nt.factor(n, budget=5)
        partial = exc.value.partial
        assert partial is not None and n % partial.value == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionViolated):
            nt.factor(0)

    @pytest.mark.parametrize(
        "n, factors",
        [
            (99991**2, ((99991, 2),)),  # the largest prime below the trial bound
            (100003**2, ((100003, 2),)),  # the smallest prime above it
            (99991 * 100003, ((99991, 1), (100003, 1))),
            (2 * 3**5 * 99991 * (2**61 - 1), ((2, 1), (3, 5), (99991, 1), (2**61 - 1, 1))),
            (63 * 64 * 65, ((2, 6), (3, 2), (5, 1), (7, 1), (13, 1))),
        ],
    )
    def test_trial_bound_edges(self, n, factors):
        assert nt.factor(n).factors == factors

    @given(st.lists(st.sampled_from(brute_primes(3000) + [99989, 99991, 100003, 1000003]), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_products_of_primes(self, ps):
        n = prod(ps)
        expected = tuple((p, ps.count(p)) for p in sorted(set(ps)))
        assert nt.factor(n).factors == expected

    def test_budget_counts_primes_covered(self):
        # trial division of 60 covers the primes up to isqrt(60) = 7: four units
        assert nt.factor(60, budget=4).factors == ((2, 2), (3, 1), (5, 1))
        with pytest.raises(BudgetExceeded):
            nt.factor(60, budget=3)

    def test_import_builds_no_trial_table(self):
        code = (
            "import gksplit.cli, gksplit.numtheory as nt\n"
            "assert nt._trial_table == (1, []), nt._trial_table[0]\n"
            "assert nt._prime_table == (1, []), nt._prime_table[0]\n"
            "nt.factor(10**6 + 3)\n"
            "assert nt._trial_table[0] < nt._TRIAL_BOUND, nt._trial_table[0]\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestFactorizationChecks:
    @pytest.mark.parametrize(
        "value, factors",
        [
            (12, ((4, 1), (3, 1))),
            (15, ((5, 1), (3, 1))),
            (9, ((3, 1), (3, 1))),
            (3, ((3, 1), (5, 0))),
            (30, ((2, 1), (3, 1))),
        ],
        ids=["composite-base", "unsorted-bases", "repeated-base", "zero-exponent", "wrong-product"],
    )
    def test_rejects(self, value, factors):
        with pytest.raises(ValueError):
            nt.Factorization(value, factors)

    def test_accepts_a_factorization(self):
        f = nt.Factorization(360, ((2, 3), (3, 2), (5, 1)))
        assert f == nt.factor(360) and f.prime_set == {2, 3, 5}


class TestPrimeSet:
    def test_examples(self):
        assert nt.prime_set(60) == {2, 3, 5}
        assert nt.prime_set(1) == frozenset()
        # 2^18 - 1
        assert nt.prime_set(262143) == {3, 7, 19, 73}


class TestOrders:
    def test_two_convention(self):
        assert nt.mult_order(2, 7) == 2  # 7 = 3 mod 4
        assert nt.mult_order(2, 5) == 1  # 5 = 1 mod 4
        assert nt.mult_order(2, -3) == 1  # -3 = 1 mod 4

    def test_odd_prime(self):
        assert nt.mult_order(7, 2) == 3

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            nt.mult_order(2, 6)
        with pytest.raises(NotCoprime):
            nt.mult_order(5, 10)

    def test_raw_vs_convention(self):
        # raw order of anything odd mod 2 is 1; the convention differs
        assert nt.raw_order(2, 7) == 1
        assert nt.mult_order(2, 7) == 2

    def test_against_brute(self):
        for r in (3, 5, 7, 11, 13, 31):
            for n in (2, 3, 4, 5, 8, 9, -2, -3, -5):
                if n % r == 0:
                    continue
                assert nt.mult_order(r, n) == brute_order(n, r)

    def test_negative_base(self):
        assert nt.mult_order(5, -2) == 4
        assert nt.mult_order(7, -2) == 6
        assert nt.mult_order(3, -2) == 1


class TestPiPart:
    def test_examples(self):
        assert nt.pi_part(12, 2) == 4
        assert nt.pi_part(6, 3) == 3
        assert nt.pi_part(45, 1) == 1

    def test_full(self):
        assert nt.pi_part(360, 30) == 360

    def test_matches_trial_division(self):
        primes = {n: {p for p, _ in brute_factor(n)} for n in range(1, 301)}
        for a in range(1, 301):
            for b in range(1, 301):
                want = prod(p**e for p, e in brute_factor(a) if p in primes[b])
                assert nt.pi_part(a, b) == want, (a, b)

    def test_high_powers_take_few_gcds(self):
        # one gcd per factor of 2 would take 100,000 rounds (about 3 s)
        start = time.perf_counter()
        assert nt.pi_part(3**5 * 2**100_000 * 7, 6 * 5) == 3**5 * 2**100_000
        assert nt.pi_part(10**4000 + 3, 10**4000) == 1
        assert time.perf_counter() - start < 0.5

    def test_hard_operands_need_no_factoring(self):
        # 2^89 - 1 and 2^107 - 1 are prime; factoring their product runs the
        # default budget out
        m89, m107 = 2**89 - 1, 2**107 - 1
        start = time.perf_counter()
        assert nt.pi_part(3 * m89, m89 * m107) == m89
        assert nt.pi_part(m89 * m107, 3 * m89) == m89
        assert nt.pi_part(m89**3 * m107**2, m107) == m107**2
        assert nt.pi_part(m89 * m107, 6) == 1
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("a, b", [(0, 6), (12, 0), (-12, 6), (12, -6)])
    def test_operands_below_one_are_refused(self, a, b):
        with pytest.raises(PreconditionViolated):
            nt.pi_part(a, b)


class TestPrimeNeighbours:
    def test_primes_upto(self):
        assert nt.primes_upto(100) == brute_primes(100)


def _no_sieve(limit):
    raise AssertionError(f"sieved again, to {limit}")


class TestPrimeTable:
    LIMITS = [0, 1, 2, 1023, 1024, 1025, 5000, 100_001]

    def test_shuffled_limits(self, monkeypatch):
        everything = brute_primes(max(self.LIMITS))
        for seed in range(4):
            monkeypatch.setattr(nt, "_prime_table", (1, []))
            limits = self.LIMITS * 2
            random.Random(seed).shuffle(limits)
            for limit in limits:
                got = nt.primes_upto(limit)
                assert got == [p for p in everything if p <= limit], (seed, limit)
                # the answer is the caller's own list
                got.append(4)
                got[:1] = [9]

    def test_table_grows_to_twice_its_limit(self, monkeypatch):
        monkeypatch.setattr(nt, "_prime_table", (1, []))
        nt.primes_upto(1000)
        nt.primes_upto(1500)
        assert nt._prime_table[0] == 2000
        monkeypatch.setattr(nt, "_sieve", _no_sieve)
        assert nt.primes_upto(2000) == brute_primes(2000)

    def test_trial_blocks_read_the_table(self, monkeypatch):
        monkeypatch.setattr(nt, "_prime_table", (1, []))
        monkeypatch.setattr(nt, "_trial_table", (1, []))
        blocks = nt._trial_blocks(5000)
        covered = [p for block, _ in blocks for p in block]
        assert covered == brute_primes(nt._trial_table[0])
        monkeypatch.setattr(nt, "_sieve", _no_sieve)
        assert nt.primes_upto(nt._prime_table[0]) == brute_primes(nt._prime_table[0])

    def test_trial_blocks_sieve_nothing_the_table_holds(self, monkeypatch):
        monkeypatch.setattr(nt, "_trial_table", (1, []))
        monkeypatch.setattr(nt, "_prime_table", (1, []))
        nt.primes_upto(nt._TRIAL_BOUND)
        monkeypatch.setattr(nt, "_sieve", _no_sieve)
        blocks = nt._trial_blocks(nt._TRIAL_BOUND)
        assert [p for block, _ in blocks for p in block] == nt.primes_upto(nt._TRIAL_BOUND)
        assert nt.factor(99991 * 99989).factors == ((99989, 1), (99991, 1))


class TestPrimitiveRoot:
    def test_examples(self):
        assert nt.is_primitive_root(2, 11)
        assert not nt.is_primitive_root(2, 7)  # order 3

    def test_one_mod_n(self):
        assert not nt.is_primitive_root(23, 11)  # 23 = 1 mod 11

    def test_composite_modulus(self):
        with pytest.raises(PreconditionViolated):
            nt.is_primitive_root(2, 9)


class TestPpd:
    def test_zsigmondy_examples(self):
        assert nt.ppd_set(6, 2) == frozenset()
        assert nt.ppd_set(4, 2) == {5}
        assert nt.ppd_set(7, 4) == {43, 127}

    def test_exception_list_exact(self):
        for n in list(range(2, 21)) + list(range(-2, -21, -1)):
            for i in range(1, 13):
                got = nt.ppd_set(i, n)
                assert (not got) == nt.is_zsigmondy_exception(i, n), (n, i, got)

    def test_against_direct_scan(self):
        for n in (2, 3, 4, 5, -2, -3):
            for i in range(1, 11):
                assert nt.ppd_set(i, n) == brute_ppd(i, n), (n, i)

    def test_least_ppd_is_the_least_member(self):
        # prime, perfect-power and negative bases, empty classes, and members
        # above the scanned range (Phi_7(2) = 127 > 11^2, 2^31 - 1 > 10^5)
        cases = [(i, n) for n in (*range(-10, -1), *range(2, 11), 16, 27, 64, 81) for i in range(1, 25)]
        for i, n in cases + [(31, 2), (61, 2)]:
            got = nt.ppd_set(i, n)
            if not got:
                with pytest.raises(ValueError):
                    nt.least_ppd(i, n)
                continue
            assert nt.least_ppd(i, n) == min(got), (i, n)

    def test_least_ppd_budget(self):
        # 139, the least member of R_69(5), lies in the first trial block
        # (64 units); factoring all of Phi_69(5) needs far more
        assert nt.least_ppd(69, 5, budget=64) == 139
        with pytest.raises(BudgetExceeded):
            nt.ppd_set(69, 5, budget=64)
        # a budget that cannot pay for the block falls back to ppd_set, which raises
        with pytest.raises(BudgetExceeded):
            nt.least_ppd(69, 5, budget=63)

    #: perfect-power bases, whose Phi_i values split into pieces Phi_j(b)
    POWER_BASES = (4, 8, 9, 16, 27, 32, 64, 81, 128, 243, 512, 729, 2187)
    PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    NEGATIVE_POWER_BASES = (-4, -8, -9, -16, -25, -27, -32, -36, -49, -64, -81, -125, -128, -243, -729)
    #: indices with three or more distinct prime divisors, each prime p
    #: giving a power n^(i/p) that the order filter must test
    MANY_PRIME_INDICES = (42, 60, 66, 70, 78, 84, 90, 102, 105, 110, 120, 126, 130, 140, 210)

    @pytest.mark.parametrize(
        "bases",
        [range(-30, -1), PRIME_BASES, POWER_BASES, NEGATIVE_POWER_BASES],
        ids=["negative", "prime", "perfect-power", "negative-perfect-power"],
    )
    def test_against_pow_oracle(self, bases):
        checked = 0
        for n in bases:
            for i in (*range(1, 40), *self.MANY_PRIME_INDICES):
                # the oracle's trial scan grows like sqrt(Phi_i(n)): keep it small
                if abs(nt.cyclotomic_value(i, n)).bit_length() > 48:
                    continue
                assert nt.ppd_set(i, n) == pow_ppd(i, n), (n, i)
                checked += 1
        assert checked >= 40

    def test_phi61_of_4_splits(self):
        # Phi_61(4) = (2^61 - 1)(2^61 + 1)/3, two primes of 61 and 60 bits: no single
        # factoring of the product fits the default budget
        assert nt.ppd_set(61, 4) == {768614336404564651, 2305843009213693951}

    def test_hard_cofactors_at_the_default_budget(self):
        # each piece's rho iterates x^s + c with s = 74, 78 and 74
        assert nt.ppd_set(37, -28) == {1004690609843, 12034188740195053379860324023109474023287}
        assert nt.ppd_set(39, -17) == {1249, 1837708051687, 12042786858259}
        assert nt.ppd_set(37, -12) == {5250079, 4150805645839, 30023720899326796981}

    def test_has_ppd_matches_ppd_set(self):
        # 10,000 units pay for trial division to 10^5 (9,592 primes), so a
        # factoring that runs out of budget has a cofactor above 10^5 left:
        # odd primes that divide Phi_i(n) but not i <= 40, members of R_i(n)
        exact = 0
        for n in (*range(2, 61), *range(-60, -1)):
            for i in range(1, 41):
                try:
                    want = bool(nt.ppd_set(i, n, 10_000))
                    exact += 1
                except BudgetExceeded:
                    want = True
                assert nt.has_ppd(i, n) == want, (i, n)
        assert exact > 3000
        with pytest.raises(PreconditionViolated):
            nt.has_ppd(0, 2)

    def test_has_ppd_outside_minus(self):
        for n in (*range(2, 25), *range(-24, -1)):
            for i in range(1, 21):
                members = nt.ppd_set(i, n)
                for minus in (set(), {2}, {3}, {2, 3, 5}, set(sorted(members)[:1]), members):
                    assert nt.has_ppd(i, n, frozenset(minus)) == bool(members - minus), (i, n, minus)

    @given(st.integers(1, 60), st.sampled_from((2, 3, 5, 6, 7, 10, 12)), st.integers(1, 6), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_cyclotomic_pieces_multiply(self, i, b, k, negative):
        n = -(b**k) if negative else b**k
        base, js = nt._cyclotomic_split(i, n)
        assert base == b and prod(nt.cyclotomic_value(j, b) for j in js) == abs(nt.cyclotomic_value(i, n))

    @given(st.integers(2, 10**40), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_iroot(self, x, k):
        r = nt._iroot(x, k)
        assert r**k <= x < (r + 1) ** k

    @pytest.mark.parametrize(
        "x, expected",
        [(2, (2, 1)), (12, (12, 1)), (64, (2, 6)), (2187, (3, 7)), (36, (6, 2)), (10**12, (10, 12)), (3**5 * 2**5, (6, 5))],
    )
    def test_perfect_power(self, x, expected):
        assert nt._perfect_power(x) == expected

    def test_perfect_power_grid(self):
        # every b^k with b no perfect power; k runs over composite exponents
        # and prime powers, whose roots are taken one prime at a time
        for b in (2, 3, 5, 6, 7, 10, 12, 15, 17, 999983):
            for k in range(1, 40):
                assert nt._perfect_power(b**k) == (b, k)
        assert nt._perfect_power(2**64 + 1) == (2**64 + 1, 1)

    def test_perfect_power_tries_prime_exponents_only(self):
        # trying all 4,981 exponents up to log2(x) took 0.85 s, the 666 primes
        # among them 0.12 s (Python 3.11.7, 2-core x86-64 host)
        start = time.perf_counter()
        assert nt._perfect_power(10**1500 + 1) == (10**1500 + 1, 1)
        assert time.perf_counter() - start < 0.5

    def test_pieces_product_is_checked(self, monkeypatch):
        # the pieces of Phi_61(8), not of Phi_61(4)
        monkeypatch.setattr(nt, "_cyclotomic_split", lambda i, n: (2, [61, 183]))
        with pytest.raises(InternalInconsistency):
            nt.ppd_set(61, 4)

    def test_two_assignment(self):
        # 2 lands in R_1 or R_2 of an odd base per the residue convention
        assert 2 in nt.ppd_set(1, 5)
        assert 2 in nt.ppd_set(2, 3)
        assert 2 not in nt.ppd_set(1, 3)
        assert 2 not in nt.ppd_set(2, -3)

    @given(st.integers(2, 25), st.integers(1, 10), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_disjointness(self, n, i, j):
        if i != j:
            assert not (nt.ppd_set(i, n) & nt.ppd_set(j, n))

    @given(st.integers(2, 20), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_fermat_divisibility(self, n, i):
        for r in nt.ppd_set(i, n):
            if r != 2:
                assert (r - 1) % i == 0

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 8), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_base_power_inclusion(self, p, i, a):
        # R_{i a}(p) is contained in R_i(p^a)
        if p**a <= 1:
            return
        sub = nt.ppd_set(i * a, p)
        sup = nt.ppd_set(i, p**a)
        assert sub <= sup


class TestCyclotomic:
    def test_values(self):
        assert nt.cyclotomic_value(1, 10) == 9
        assert nt.cyclotomic_value(2, 10) == 11
        assert nt.cyclotomic_value(6, 2) == 3
        assert nt.cyclotomic_value(12, 2) == 13

    @given(st.integers(1, 24), st.integers(2, 12))
    @settings(max_examples=80, deadline=None)
    def test_product_formula(self, i, n):
        # prod over d | i of Phi_d(n) = n^i - 1
        prod = 1
        for d in range(1, i + 1):
            if i % d == 0:
                prod *= nt.cyclotomic_value(d, n)
        assert prod == n**i - 1


    @given(
        st.one_of(st.integers(1, 210), st.sampled_from((30, 105, 210))),
        st.integers(2, 50),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_against_division(self, i, n, negative):
        n = -n if negative else n
        assert nt.cyclotomic_value(i, n) == cyclotomic_by_division(i, n)


def _semiprimes(seed, count, bits):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, q = (rng.randrange(3, 1 << bits) | 1 for _ in range(2))
        if nt.is_prime(p) and nt.is_prime(q):
            out.append(p * q)
    return out


class TestRho:
    """The batched rho against the per-step Brent loop in the oracles."""

    @staticmethod
    def _both(n, budget, s=2):
        fast, slow = nt._Budget(budget), nt._Budget(budget)
        return (nt._rho_factor(n, fast, s), fast.remaining), (brent_rho(n, slow, s), slow.remaining)

    def test_same_divisor_and_budget_left(self):
        # small semiprimes include x = y (mod n) collisions, where the c sweep moves on
        for n in _semiprimes(1, 40, 24) + _semiprimes(2, 200, 8) + [9, 15, 21, 25, 49, 10403, 2**2 * 3]:
            for s in (2, 4, 6, 22, 202):
                fast, slow = self._both(n, nt.DEFAULT_BUDGET, s)
                assert fast == slow, (n, s)

    def test_budget_ending_mid_block(self):
        # a block of 64 evaluations costs 32 units at s = 2 and 64 at s = 6
        for n in _semiprimes(3, 12, 22) + [11 * 13, 101 * 103]:
            for s in (2, 6):
                _, (_, left) = self._both(n, nt.DEFAULT_BUDGET, s)
                used = nt.DEFAULT_BUDGET - left
                probes = {0, 1, used // 2} | {used + k for k in (-65, -64, -63, -33, -32, -31, -1, 0, 1, 63, 64, 65)}
                for budget in probes:
                    if budget >= 0:
                        fast, slow = self._both(n, budget, s)
                        assert fast == slow, (n, s, budget)

    def test_budget_runs_out_on_a_prime(self):
        # a prime has no proper divisor: every c runs until the budget is gone
        for budget in (0, 1, 63, 64, 65, 1000, 4097):
            fast, slow = self._both(1_000_003, budget)
            assert fast == slow == (None, -1), budget

    def test_factor_partials_match_per_step_rho(self, monkeypatch):
        cases = [(n, b, s) for n in _semiprimes(4, 8, 28) for b in (300, 2_000, 5_000, 20_000) for s in (2, 6)]
        cases += [(2 * 3 * (10**9 + 7) * (10**9 + 9), b, 2) for b in (5, 400, 70_000)]

        def outcome(n, budget, s):
            try:
                return nt.factor(n, budget, s).factors
            except BudgetExceeded as exc:
                return ("partial", exc.partial.factors)

        fast = [outcome(*case) for case in cases]
        monkeypatch.setattr(nt, "_rho_factor", brent_rho)
        assert fast == [outcome(*case) for case in cases]
        assert any(r[0] == "partial" for r in fast) and any(r[0] != "partial" for r in fast)

    def test_factor_matches_per_step_rho_from_a_cold_memo(self, monkeypatch):
        # factor's memo would answer the per-step pass from the batched one,
        # so each pass starts with it empty
        cases = [(n, b) for n in _semiprimes(4, 8, 28) for b in (2_000, 20_000)]

        def outcomes():
            nt._factor.cache_clear()
            out = []
            for n, b in cases:
                try:
                    out.append(nt.factor(n, b).factors)
                except BudgetExceeded as exc:
                    out.append(("partial", exc.partial.factors))
            return out

        fast = outcomes()
        monkeypatch.setattr(nt, "_rho_factor", brent_rho)
        assert fast == outcomes()
        assert any(r[0] == "partial" for r in fast) and any(r[0] != "partial" for r in fast)

    @given(st.integers(1, 40), st.integers(10**5, 2**26), st.integers(10**5, 2**26), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_exponent_is_a_hint_only(self, j, lo, hi, k):
        # two primes above the trial bound that are 1 mod lcm(j, 2), as the
        # prime factors of Phi_j(b) not dividing j are: the same factorization
        # whether rho iterates x^2 + c, x^lcm(j, 2) + c or x^(2k) + c
        m = lcm(j, 2)
        p, q = (next(r for r in range(x - x % m + 1, 2 * x, m) if nt.is_prime(r)) for x in (lo, hi))
        n = p * q
        want = tuple(sorted(collections.Counter((p, q)).items()))
        for s in (2, m, 2 * k):
            assert nt.factor(n, nt.DEFAULT_BUDGET, s).factors == want, s


class TestPrimality:
    def test_against_sieve(self):
        sieve = set(brute_primes(5000))
        for n in range(5000):
            assert nt.is_prime(n) == (n in sieve)

    def test_carmichael(self):
        assert not nt.is_prime(561)
        assert not nt.is_prime(1105)

    def test_large(self):
        assert nt.is_prime(2**61 - 1)
        assert not nt.is_prime(2**67 - 1)

    def test_against_sieve_through_the_small_tiers(self):
        # the bases 2 and (2, 3) alone decide below 2047 and 1373653
        limit = 2 * 10**6
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for p in range(2, isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
        assert bytes(nt.is_prime(n) for n in range(limit)) == sieve

    @pytest.mark.parametrize("bound, bases", list(zip(nt._MR_TIER_BOUNDS, nt._MR_TIER_BASES)))
    def test_tier_bounds_are_composite(self, bound, bases):
        # each bound psi_t fools every base of the tier below it, so the
        # next tier's bases are the ones that expose it
        assert all(_strong_probable_prime(bound, a) for a in bases)
        assert not nt.is_prime(bound)

    def test_psi_12_is_factored(self):
        # a strong probable prime to the bases 2..37 (Sorenson-Webster 2017)
        assert nt.factor(318665857834031151167461).factors == ((399165290221, 1), (798330580441, 1))


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestFactorMemo:
    N = 2 * (10**9 + 7) * (10**9 + 9)

    def _partial(self, budget):
        with pytest.raises(BudgetExceeded) as exc:
            nt.factor(self.N, budget)
        return exc.value.partial

    def test_budget_exhaustion_is_never_memoized(self, monkeypatch):
        nt._factor.cache_clear()
        runs = []
        trial_blocks = nt._trial_blocks
        monkeypatch.setattr(nt, "_trial_blocks", lambda limit: runs.append(limit) or trial_blocks(limit))
        before = [self._partial(budget) for budget in (5, 100)]
        assert nt.factor(self.N).factors == ((2, 1), (10**9 + 7, 1), (10**9 + 9, 1))
        assert [self._partial(budget) for budget in (5, 100)] == before
        assert [p.factors for p in before] == [(), ((2, 1),)]
        # each exhausted call factored anew; only the success was kept
        assert len(runs) == 5 and nt._factor.cache_info().currsize == 1

    def test_default_budget_shares_one_entry(self):
        n = 3 * 1_000_003 * 1_000_033
        assert nt.factor(n) is nt.factor(n, nt.DEFAULT_BUDGET) is nt.factor(n, budget=nt.DEFAULT_BUDGET)

    def test_memo_is_bounded(self):
        size = nt._FACTOR_MEMO_SIZE
        assert nt._factor.cache_info().maxsize == size
        for n in range(2, 2 * size):
            nt.factor(n)
        assert nt._factor.cache_info().currsize == size
        # the oldest entries were dropped, the newest are kept
        misses = nt._factor.cache_info().misses
        nt.factor(2 * size - 1)
        assert nt._factor.cache_info().misses == misses
        nt.factor(2)
        assert nt._factor.cache_info().misses == misses + 1
