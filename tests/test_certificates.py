import json

import pytest

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
from gksplit.errors import MalformedInput
from gksplit.graph import ClassLabel, ForbiddenWitness
from gksplit.splitcheck import SplitPartition


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

    def test_order_steps_recheck_through_raw_order(self, monkeypatch):
        # the audit keeps its own order computation, whatever ppd_set does
        seen = []
        raw_order = nt.raw_order
        monkeypatch.setattr(nt, "raw_order", lambda r, n: seen.append((r, n)) or raw_order(r, n))
        monkeypatch.setattr(nt, "ppd_set", lambda *args, **kw: pytest.fail("ppd_set consulted"))
        assert not recheck(chain(step("order of 4 mod 43 is 7", op="mult_order", r=43, base=4, equals=7)))
        assert recheck(chain(step("x", op="mult_order", r=43, base=4, equals=1))) == ["x"]
        assert seen == [(43, 4), (43, 4)]

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
        ['{}', '[1]', '{"kind": "split", "steps": [{"claim": "x"}]}'],
        ids=["no-steps", "top-level-list", "step-without-tag"],
    )
    def test_malformed_document(self, text):
        with pytest.raises(MalformedInput):
            certificate_from_json(text)

    def test_step_requires_op(self):
        with pytest.raises(ValueError):
            step("bad", equals=3)
