import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gksplit import numtheory as nt
from gksplit.errors import BudgetExceeded, NotCoprime, PreconditionViolated

from oracles import brute_factor, brute_order, brute_ppd, brute_primes


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
        assert nt.pi_part(12, {2}) == 4
        assert nt.pi_part(6, {3}) == 3
        assert nt.pi_part(45, set()) == 1

    def test_full(self):
        assert nt.pi_part(360, {2, 3, 5}) == 360


class TestPrimeNeighbours:
    def test_primes_upto(self):
        assert nt.primes_upto(100) == brute_primes(100)


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
