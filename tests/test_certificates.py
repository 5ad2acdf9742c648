import json
import time
from math import prod

import pytest

from gksplit import campaigns, exceptional, gkbuild, groups
from gksplit import numtheory as nt
from gksplit.certificates import (
    Certificate,
    CertStep,
    KIND_CHAIN,
    KIND_NONSPLIT,
    TAG_L52,
    assume,
    certificate_from_json,
    recheck,
    step,
)
from gksplit.errors import InvalidField, MalformedInput, NotSimple
from gksplit.graph import ClassLabel, ForbiddenWitness
from gksplit.splitcheck import SplitPartition

from oracles import prime_powers


def chain(*steps):
    return Certificate(KIND_CHAIN, steps)


class TestCheckOps:
    def test_arithmetic_ops(self):
        good = chain(
            step("17 prime", op="is_prime", n=17),
            step("18 composite", op="is_composite", n=18),
            step("3 | 12", op="divides", a=3, b=12),
            step("5 does not divide 12", op="not_divides", a=5, b=12),
            step("7 < 9", op="cmp", a=7, rel="lt", b=9),
            step("19 = 1 mod 9", op="mod_eq", a=19, m=9, equals=1),
            step("R_4(2) nonempty", op="zsigmondy_nonempty", base=2, index=4),
            step("R_6(2) empty", op="zsigmondy_empty", base=2, index=6),
            step("pi(10) not inside pi(4)", op="pi_not_subset", a=10, b=4),
            step("(12)_pi(6) = 12", op="pi_part_eq", a=12, pi_of=6, equals=12),
            step("7 in (6.5, 13]", op="in_interval", x=7, lo=6, hi=13),
            step("2 prim root mod 11", op="primitive_root", p=2, mod=11),
            step("order of 4 mod 43 is 7", op="mult_order", r=43, base=4, equals=7),
        )
        assert not recheck(good)

    def test_each_op_can_fail(self):
        bad_steps = [
            step("x", op="is_prime", n=18),
            step("x", op="is_composite", n=17),
            step("x", op="divides", a=5, b=12),
            step("x", op="not_divides", a=3, b=12),
            step("x", op="cmp", a=9, rel="lt", b=7),
            step("x", op="mod_eq", a=19, m=9, equals=2),
            step("x", op="zsigmondy_nonempty", base=2, index=6),
            step("x", op="zsigmondy_empty", base=2, index=4),
            step("x", op="pi_not_subset", a=8, b=4),
            step("x", op="pi_part_eq", a=12, pi_of=6, equals=4),
            step("x", op="in_interval", x=6, lo=6, hi=13),
            step("x", op="primitive_root", p=2, mod=7),
            step("x", op="mult_order", r=43, base=4, equals=6),
        ]
        for s in bad_steps:
            assert recheck(chain(s)) == ["x"], s.check

    @pytest.mark.parametrize("n", [0, 1])
    def test_composite_needs_more_than_one(self, n):
        # neither 0 nor 1 is prime, and neither is composite
        assert recheck(chain(step("x", op="is_composite", n=n))) == ["x"]

    def test_ge_holds_on_equality_only_from_above(self):
        assert not recheck(chain(step("x", op="cmp", a=7, rel="ge", b=7)))
        assert not recheck(chain(step("x", op="cmp", a=8, rel="ge", b=7)))
        assert recheck(chain(step("x", op="cmp", a=6, rel="ge", b=7))) == ["x"]

    def test_forged_primality_of_a_strong_pseudoprime_fails(self):
        # psi_12 = 399165290221 * 798330580441 is a strong probable prime to
        # each of the bases 2..37, so twelve Miller-Rabin bases call it prime
        psi_12 = 318665857834031151167461
        forged = certificate_from_json(chain(step("x", op="is_prime", n=psi_12)).to_json())
        assert recheck(forged) == ["x"]
        assert not recheck(chain(step("x", op="is_composite", n=psi_12)))

    def test_interval_is_open_below_closed_above_whatever_the_step_says(self):
        # (lo, hi] is the op's one meaning; extra keys cannot widen it
        assert recheck(chain(step("x", op="in_interval", x=6, lo=6, hi=13, lo_open=False))) == ["x"]
        assert recheck(chain(step("x", op="in_interval", x=13, lo=6, hi=13, hi_open=True))) == []
        assert recheck(chain(step("x", op="in_interval", x=14, lo=6, hi=13, hi_open=True))) == ["x"]

    def test_order_steps_recheck_from_the_claims_side(self, monkeypatch):
        # the audit checks the claimed order itself: it neither recomputes
        # the order (raw_order factors r - 1) nor asks ppd_set
        monkeypatch.setattr(nt, "raw_order", lambda *args: pytest.fail("raw_order consulted"))
        monkeypatch.setattr(nt, "ppd_set", lambda *args, **kw: pytest.fail("ppd_set consulted"))
        assert not recheck(chain(step("order of 4 mod 43 is 7", op="mult_order", r=43, base=4, equals=7)))
        for wrong in (1, 6, 14, 0, -7):
            assert recheck(chain(step("x", op="mult_order", r=43, base=4, equals=wrong))) == ["x"]

    @pytest.mark.parametrize(
        "r, base, k",
        [(2, 5, 1), (2, 7, 2), (2, -3, 1), (7, 2, 3), (5, -2, 4), (3, -2, 1), (43, 4, 7), (101, 2, 100)],
    )
    def test_order_steps_agree_with_mult_order(self, r, base, k):
        assert nt.mult_order(r, base) == k
        assert not recheck(chain(step("x", op="mult_order", r=r, base=base, equals=k)))
        assert recheck(chain(step("x", op="mult_order", r=r, base=base, equals=k + 1))) == ["x"]

    def test_an_order_with_many_primes_rechecks_at_once(self):
        # one cofactor k / p per prime of k: the 2^25 squarefree divisors of
        # k are never listed; 4 has order 7 modulo 43, and 7 divides k
        primes = nt.primes_upto(97)
        assert len(primes) == 25
        k = prod(primes)
        start = time.perf_counter()
        assert recheck(chain(step("x", op="mult_order", r=43, base=4, equals=k))) == ["x"]
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "r, base, message",
        [
            (2, 6, "6 is even"),
            (5, 10, "10 is divisible by 5"),
            (9, 2, "9 is not a prime modulus"),
            (7, 1, "base must satisfy |n| > 1, got 1"),
            (2, -1, "base must satisfy |n| > 1, got -1"),
        ],
    )
    def test_order_steps_refuse_what_mult_order_refuses(self, r, base, message):
        got = recheck(chain(step("x", op="mult_order", r=r, base=base, equals=1)))
        assert got == [f"x: checker error {message}"]

    #: r = 2 * 104 * P * Q + 1 is a 186-bit prime for the 90-bit primes
    #: P = 2^89 + 29 and Q = 2^89 + 89, so factoring r - 1 means splitting
    #: the 179-bit P * Q; recomputing these orders ran the default budget
    #: out (13.7 s), and each true step read as a forgery
    HARD_P, HARD_Q = 2**89 + 29, 2**89 + 89
    HARD_R = 2 * 104 * HARD_P * HARD_Q + 1

    def hard_order_steps(self):
        r = self.HARD_R
        assert r.bit_length() == 186 and all(map(nt.is_prime, (self.HARD_P, self.HARD_Q, r)))

        def order(b):  # every order divides 208, the smooth part of r - 1
            return min(d for d in range(1, 209) if 208 % d == 0 and pow(b, d, r) == 1)

        steps = []
        for d in (2, 13, 208):
            b = next(b for a in range(2, 50) if order(b := pow(a, (r - 1) // d, r)) == d)
            steps.append(step(f"order of b mod r is {d}", op="mult_order", r=r, base=b, equals=d))
        return steps

    def test_order_steps_about_a_hard_prime_need_no_factoring_of_r_minus_1(self):
        true = chain(*self.hard_order_steps())
        start = time.perf_counter()
        assert not recheck(certificate_from_json(true.to_json()))
        assert time.perf_counter() - start < 0.1

    def test_a_wrong_order_about_the_hard_prime_fails(self):
        for s in self.hard_order_steps():
            k, r = s.check["equals"], s.check["r"]
            for wrong in sorted({1, k // 2, 2 * k, 104, 416} - {k}):
                forged = chain(step("x", op="mult_order", r=r, base=s.check["base"], equals=wrong))
                assert recheck(forged) == ["x"], (k, wrong)

    def test_pi_steps_on_a_hard_semiprime_need_no_factoring(self):
        # 2^89 - 1 and 2^107 - 1 are prime; factoring b ran the default budget
        # out (8.3 s), which read as a forgery
        m89, m107 = 2**89 - 1, 2**107 - 1
        a, b = 3 * m89, m89 * m107
        true = chain(
            step("pi(a) not inside pi(b)", op="pi_not_subset", a=a, b=b),
            step("(a)_pi(b) = 2^89 - 1", op="pi_part_eq", a=a, pi_of=b, equals=m89),
            step("(b)_pi(a) = 2^89 - 1", op="pi_part_eq", a=b, pi_of=a, equals=m89),
        )
        start = time.perf_counter()
        assert not recheck(certificate_from_json(true.to_json()))
        assert time.perf_counter() - start < 0.1
        assert recheck(chain(step("x", op="pi_not_subset", a=m89 * m89, b=b))) == ["x"]
        assert recheck(chain(step("x", op="pi_part_eq", a=a, pi_of=b, equals=a))) == ["x"]

    @pytest.mark.parametrize(
        "check",
        [
            {"op": "pi_not_subset", "a": 0, "b": 4},
            {"op": "pi_not_subset", "a": 10, "b": 0},
            {"op": "pi_not_subset", "a": -10, "b": 4},
            {"op": "pi_part_eq", "a": 0, "pi_of": 6, "equals": 0},
            {"op": "pi_part_eq", "a": 12, "pi_of": 0, "equals": 12},
            {"op": "pi_part_eq", "a": 12, "pi_of": -6, "equals": 12},
        ],
    )
    def test_pi_steps_need_positive_operands(self, check):
        failures = recheck(chain(CertStep("x", "arithmetic", check)))
        assert len(failures) == 1 and failures[0].startswith("x: checker error")

    def test_unknown_op_surfaces(self):
        cert = chain(CertStep("mystery", "arithmetic", {"op": "telepathy"}))
        failures = recheck(cert)
        assert failures and "checker error" in failures[0]

    @pytest.mark.parametrize(
        "check",
        [
            {"op": "ppd_member", "r": 5, "index": 101, "base": 3},
            {"op": "gcd_eq", "a": 12, "b": 18, "equals": 6},
            {"op": "raw_order", "r": 7, "base": 2, "equals": 3},
        ],
        ids=["ppd_member", "gcd_eq", "raw_order"],
    )
    def test_ops_nothing_emits_are_rejected(self, check, monkeypatch):
        # outside the closed language even when the claim is true, and
        # rejected before any number theory runs
        monkeypatch.setattr(nt, "ppd_set", lambda *args, **kw: pytest.fail("ppd_set consulted"))
        forged = certificate_from_json(chain(CertStep("forged", "arithmetic", check)).to_json())
        assert recheck(forged) == [f"forged: checker error unknown check operation {check['op']!r}"]

    def test_assumptions_not_checked(self):
        cert = chain(assume("group-theoretic claim", TAG_L52))
        assert not recheck(cert)
        assert cert.assumptions() and not cert.checked_steps()


class TestSerialization:
    def test_round_trip(self):
        cert = chain(
            step("order of 4 mod 43 is 7", op="mult_order", r=43, base=4, equals=7),
            assume("classes adjacent", TAG_L52),
        )
        again = certificate_from_json(cert.to_json())
        assert again.kind == cert.kind
        assert [s.claim for s in again.steps] == [s.claim for s in cert.steps]
        assert not recheck(again)

    def test_round_trip_class_labels(self):
        r3, r7, r9 = ClassLabel("R3", (7,)), ClassLabel("R7", (43, 127)), ClassLabel("R9", (19, 73))
        p, unknown = ClassLabel("p", (2,)), ClassLabel("R61")
        cert = Certificate(
            KIND_NONSPLIT,
            (step("order of 4 mod 43 is 7", op="mult_order", r=43, base=4, equals=7),),
            partition=SplitPartition(frozenset({p, r7}), frozenset({r9, unknown, 5}), True),
            witness=ForbiddenWitness("2K2", (r7, r9, r3, p)),
            context={"group": "A12(4)"},
        )
        again = certificate_from_json(cert.to_json())
        assert again == cert
        assert again.to_json() == cert.to_json()

    def test_default_context_is_not_shared(self):
        first, second = Certificate(KIND_CHAIN), Certificate(KIND_CHAIN)
        assert first.context == {} and first.context is not second.context
        first.context["k"] = 7
        assert Certificate(KIND_CHAIN).context == {}

    def test_schema_field(self):
        doc = json.loads(chain(assume("x", TAG_L52)).to_json())
        assert doc["schema"] == "gksplit/certificate/1"

    def test_tampering_detected(self):
        cert = chain(step("order of 4 mod 43 is 7", op="mult_order", r=43, base=4, equals=7))
        doc = json.loads(cert.to_json())
        doc["steps"][0]["check"]["equals"] = 8  # forge the claimed order
        forged = certificate_from_json(json.dumps(doc))
        assert recheck(forged)

    @pytest.mark.parametrize(
        "text",
        [
            '{}',
            '[1]',
            '{"kind": "split", "steps": [{"claim": "x"}]}',
            '{"kind": "split", "steps": ' + "[" * 2000 + "]" * 2000 + "}",
            '{"kind": "lemma-chain", "steps": ['
            '{"claim": "5 divisible by true", "tag": "arithmetic", "check": {"op": "divides", "a": true, "b": 5}}, '
            '{"claim": "7.0 prime", "tag": "arithmetic", "check": {"op": "is_prime", "n": 7.0}}, '
            '{"claim": "2.5 < 3", "tag": "arithmetic", "check": {"op": "cmp", "a": 2.5, "rel": "lt", "b": 3}}]}',
            '{"kind": "split", "steps": [{"claim": "x", "tag": "arithmetic", "check": {"n": 7}}]}',
            '{"kind": "split", "steps": [], "partition": {"clique": [2], "independent": [3], "special": 1}}',
            '{"kind": "split", "steps": [{"claim": ["x"], "tag": "arithmetic", "check": null}]}',
        ],
        ids=[
            "no-steps", "top-level-list", "step-without-tag", "nested-2000", "bool-and-float-operands",
            "check-without-op", "integer-special", "list-claim",
        ],
    )
    def test_malformed_document(self, text):
        with pytest.raises(MalformedInput):
            certificate_from_json(text)

    def test_step_requires_op(self):
        with pytest.raises(ValueError):
            step("bad", equals=3)


#: the closed operation language of ``certificates._check_one``
CHECK_OPS = {
    "is_prime", "is_composite", "mult_order", "divides", "not_divides", "cmp", "mod_eq",
    "zsigmondy_nonempty", "zsigmondy_empty", "pi_not_subset", "pi_part_eq", "in_interval", "primitive_root",
}


def emitted_certificates():
    """One certificate from each producer: every group of the Theorem C rows
    (the classical grid and the exceptional samples), the four witnesses,
    Lemma 5.2 and theorem D."""
    for _, descriptors in campaigns.theorem_c_rows():
        for d in descriptors:
            yield gkbuild.theoremD_verify(d)[2]
    yield gkbuild.nonsplit_witness_linear(13, 2, 2)
    yield gkbuild.prop72_certificate(5, 7, 2)
    yield gkbuild.sc_nonsplit_certificate(19, 2)
    yield gkbuild.psl11_2_sc()[1]
    yield gkbuild.lemma52_check(35, 2, 3)
    for group in ("Alt(12)", "M22", "Tits", "E8(2)"):
        yield gkbuild.theoremD_verify(groups.parse_descriptor(group))[2]


def test_every_emitted_certificate_loads_and_rechecks():
    # the strict decoder accepts everything the package writes: integer
    # operands, string op and rel, a true/false special
    ops = set()
    for cert in emitted_certificates():
        again = certificate_from_json(cert.to_json())
        assert again == cert and not recheck(again)
        ops.update(s.check["op"] for s in again.checked_steps())
    assert ops == CHECK_OPS


def certificates_to_audit():
    """(group or builder, certificate) over every diagram group with q < 300
    at budget 1, the Theorem C rows, the sporadic groups, Alt/Sym samples and
    the four witness builders."""
    for family in exceptional.diagram_families():
        for q in prime_powers(2, 299):
            try:
                d = groups.parse_descriptor(f"{family}({q})")
            except (InvalidField, NotSimple):
                continue
            yield d, gkbuild.exceptional_compact(d, 1)[1]
    for _, descriptors in campaigns.theorem_c_rows():
        for d in descriptors:
            yield d, gkbuild.theoremD_verify(d)[2]
    for d in [groups.sporadic(rec.name) for rec in groups.sporadic_table()] + [groups.sporadic("Tits")]:
        yield d, gkbuild.theoremD_verify(d)[2]
    for n in (5, 6, 7, 12, 30, 100):
        for d in (groups.alternating(n), groups.symmetric(n)):
            yield d, gkbuild.theoremD_verify(d)[2]
    for n, p, a in ((13, 2, 2), (14, 3, 2), (20, 3, 2), (25, 5, 3)):
        yield f"prop71 {n} {p} {a}", gkbuild.nonsplit_witness_linear(n, p, a)
    for u, w, p in ((5, 7, 2), (5, 7, 3), (5, 13, 5)):
        yield f"prop72 {u} {w} {p}", gkbuild.prop72_certificate(u, w, p)
    for n, p in ((19, 2), (17, 3), (29, 2)):
        yield f"prop73 {n} {p}", gkbuild.sc_nonsplit_certificate(n, p)
    yield "psl11", gkbuild.psl11_2_sc()[1]


def test_no_emitted_certificate_repeats_a_step():
    # each claim is made once: no certificate holds two steps with equal
    # claim, tag and check, however many diagram vertices, edges and
    # partitions ask the same predicate
    repeated = {}
    for source, cert in certificates_to_audit():
        seen = []
        for s in cert.steps:
            if s in seen:
                repeated.setdefault(str(source), []).append(s.claim)
            seen.append(s)
    assert not repeated
