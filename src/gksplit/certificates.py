"""Machine-checkable certificates.

A certificate is a list of steps.  Each step carries a human-readable claim,
a justification tag, and optionally a ground arithmetic check.  Steps with a
check are re-verifiable by :func:`recheck` using nothing but the number
theory module; steps without one are recorded assumptions (group-theoretic
facts imported under their tag) and are clearly separated when auditing.

Justification tags
------------------
``arithmetic``      pure integer computation, always carries a check
``Zsigmondy``       existence/absence of primitive prime divisors
``Fermat``          r in R_i(n) implies i divides r - 1 (odd r)
``Lemma5.2``        |R_k(q)| > 1 via the two base-field divisor wings
``Lemma5.3.iii``    adjacency criterion for primes with large order indices
``Lemma5.4``        primes nonadjacent to the characteristic have large indices
``Lemma5.5(AK)``    cyclic Sylow / normalizer-index bound (solvable graphs)
``Lemma5.6(AK)``    solvable {r,s}-subgroup forces a divisibility (solvable graphs)
``Lemma5.7(tor)``   reducibility of solvable {r,n}-subgroups of GL_n(p)
``reference-table/reference-diagram/diagram/spectrum``  embedded reference data
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import numtheory as nt
from .errors import MalformedInput
from .graph import ForbiddenWitness, decode_label, encode_label, json_typed, load_document
from .splitcheck import SplitPartition, partition_doc

_SCHEMA = "gksplit/certificate/1"

TAG_ARITH = "arithmetic"
TAG_ZSIGMONDY = "Zsigmondy"
TAG_FERMAT = "Fermat"
TAG_L52 = "Lemma5.2"
TAG_L53 = "Lemma5.3.iii"
TAG_L54 = "Lemma5.4"
TAG_AK_CYCLIC = "Lemma5.5(AK)"
TAG_AK_SOLV = "Lemma5.6(AK)"
TAG_TOR = "Lemma5.7(tor)"

KIND_SPLIT = "split"
KIND_NONSPLIT = "nonsplit"
KIND_CHAIN = "lemma-chain"


class CertStep(NamedTuple):
    """One certificate step; immutable, and a tuple like every value type of the package."""

    claim: str
    tag: str = TAG_ARITH
    check: dict | None = None

    @property
    def assumption(self) -> bool:
        return self.check is None


class _CertificateFields(NamedTuple):
    kind: str
    steps: tuple[CertStep, ...] = ()
    partition: SplitPartition | None = None
    witness: ForbiddenWitness | None = None
    context: dict | None = None


class Certificate(_CertificateFields):
    """A certificate; built without ``context``, it gets a dict of its own."""

    __slots__ = ()

    def __new__(cls, kind, steps=(), partition=None, witness=None, context=None):
        return super().__new__(cls, kind, steps, partition, witness, {} if context is None else context)

    def assumptions(self) -> list[CertStep]:
        return [s for s in self.steps if s.assumption]

    def checked_steps(self) -> list[CertStep]:
        return [s for s in self.steps if not s.assumption]

    def to_json(self) -> str:
        doc = {
            "schema": _SCHEMA,
            "kind": self.kind,
            "context": self.context,
            "steps": [
                {"claim": s.claim, "tag": s.tag, "check": s.check}
                for s in self.steps
            ],
        }
        if self.partition is not None:
            doc["partition"] = partition_doc(self.partition)
        if self.witness is not None:
            doc["witness"] = {
                "kind": self.witness.kind,
                "vertices": [encode_label(v) for v in self.witness.vertices],
            }
        return json.dumps(doc, indent=2)


def step(claim: str, tag: str = TAG_ARITH, **check) -> CertStep:
    """A machine-checked step; the keyword payload is the check expression."""
    if "op" not in check:
        raise ValueError("checked steps need an 'op' field")
    return CertStep(claim, tag, check)


def assume(claim: str, tag: str) -> CertStep:
    """A recorded assumption (no arithmetic content)."""
    return CertStep(claim, tag, None)


# ---------------------------------------------------------------------------
# The independent re-checker.  It dispatches on the closed operation language
# below and consults only the number theory module (the pi steps call
# ``numtheory.pi_part``, which takes gcds and factors nothing), so an audit of
# a serialized certificate does not trust any of the construction code.
# ---------------------------------------------------------------------------

_RELS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def _check_one(check: dict) -> bool:
    op = check["op"]
    if op == "is_prime":
        return nt.is_prime(check["n"])
    if op == "is_composite":
        n = check["n"]
        return n > 1 and not nt.is_prime(n)
    if op == "mult_order":
        return nt.is_mult_order(check["r"], check["base"], check["equals"])
    if op == "divides":
        return check["b"] % check["a"] == 0
    if op == "not_divides":
        return check["b"] % check["a"] != 0
    if op == "cmp":
        return _RELS[check["rel"]](check["a"], check["b"])
    if op == "mod_eq":
        return check["a"] % check["m"] == check["equals"]
    if op == "zsigmondy_nonempty":
        return not nt.is_zsigmondy_exception(check["index"], check["base"])
    if op == "zsigmondy_empty":
        return nt.is_zsigmondy_exception(check["index"], check["base"])
    if op == "pi_not_subset":
        # pi(a) not contained in pi(b): a is more than its pi(b)-part
        return nt.pi_part(check["a"], check["b"]) < check["a"]
    if op == "pi_part_eq":
        return nt.pi_part(check["a"], check["pi_of"]) == check["equals"]
    if op == "in_interval":
        return check["lo"] < check["x"] <= check["hi"]
    if op == "primitive_root":
        return nt.is_primitive_root(check["p"], check["mod"])
    raise ValueError(f"unknown check operation {op!r}")


def recheck(cert: Certificate) -> list[str]:
    """Re-verify every checked step; returns the claims that failed."""
    failures = []
    for s in cert.steps:
        if s.assumption:
            continue
        try:
            ok = _check_one(s.check)
        except Exception as exc:  # surfaced, not swallowed
            failures.append(f"{s.claim}: checker error {exc}")
            continue
        if not ok:
            failures.append(s.claim)
    return failures


def certificate_from_json(text: str) -> Certificate:
    """The certificate of a ``Certificate.to_json`` document; MalformedInput
    for anything else.  Kind, claims, tags and the witness kind are strings,
    special is true or false, and a check is null or an object with an op,
    whose op and rel are strings and whose other operands JSON integers."""
    doc = load_document(text, "certificate")
    try:
        steps = tuple(_step_from_json(s) for s in json_typed(doc["steps"], list, "certificate steps"))
        partition = None
        if "partition" in doc:
            block = doc["partition"]
            partition = SplitPartition(
                frozenset(_labels(block, "clique")),
                frozenset(_labels(block, "independent")),
                json_typed(block.get("special", False), bool, "partition special"),
            )
        witness = None
        if "witness" in doc:
            block = doc["witness"]
            kind = json_typed(block["kind"], str, "witness kind")
            witness = ForbiddenWitness(kind, tuple(_labels(block, "vertices")))
        context = json_typed(doc.get("context", {}), dict, "certificate context")
        return Certificate(json_typed(doc["kind"], str, "certificate kind"), steps, partition, witness, context)
    except KeyError as exc:
        raise MalformedInput(f"certificate document lacks field {exc}") from None
    except TypeError as exc:
        raise MalformedInput(f"malformed certificate document: {exc}") from None


def _step_from_json(s) -> CertStep:
    claim, tag = json_typed(s["claim"], str, "step claim"), json_typed(s["tag"], str, "step tag")
    check = s.get("check")
    if check is not None:
        if "op" not in json_typed(check, dict, "step check"):
            raise MalformedInput("step check lacks field 'op'")
        for key, value in check.items():
            json_typed(value, str if key in ("op", "rel") else int, f"check operand {key!r}")
    return CertStep(claim, tag, check)


def _labels(block, key) -> list:
    return [decode_label(v) for v in json_typed(block[key], list, key)]
