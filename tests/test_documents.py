"""Generated documents on the three readers: ``split --in``, ``split --spectrum``
and ``certificate_from_json`` with ``recheck``.

Whatever the document, a reader answers with an exit code of 0 to 3 (the CLI)
or ``MalformedInput`` (the certificate decoder), never another exception.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gksplit import cli, groups
from gksplit.certificates import certificate_from_json, recheck
from gksplit.errors import GKSplitError, MalformedInput
from gksplit.graph import Graph

from test_certificates import CHECK_OPS

#: any JSON value: nested lists and objects of ints, floats, bools, strings and null
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mostly(draw, valid):
    """A value from valid, or now and then any JSON value in its place."""
    return draw(json_values) if draw(st.integers(0, 7)) == 0 else draw(valid)


class_labels = st.builds(
    lambda cls: {"class": cls},
    mostly(
        st.fixed_dictionaries(
            {"name": mostly(st.text(alphabet='R2"\\né ', max_size=3))},
            optional={"members": mostly(st.lists(mostly(st.integers(0, 12)), max_size=3))},
        )
    ),
)
labels = mostly(st.integers(-2, 12) | class_labels)


@st.composite
def graph_documents(draw):
    vertices = draw(st.lists(labels, max_size=8))
    pairs = [[u, v] for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12) if pairs else st.just([]))
    return draw(mostly(st.just({"schema": "gksplit/graph/1", "vertices": vertices, "edges": edges})))


#: small groups only, so that no spectrum check reaches a factoring cliff,
#: each with its maximal element orders
SPECTRUM_GROUPS = {
    name: sorted(groups.spectrum_formulas(groups.parse_descriptor(name)).mu)
    for name in ("A1(7)", "A1(8)", "A1(25)", "B2(3)", "2B2(8)", "2G2(27)", "Tits")
}


@st.composite
def spectrum_documents(draw):
    group = draw(st.sampled_from(sorted(SPECTRUM_GROUPS)))
    mu = SPECTRUM_GROUPS[group] + draw(st.lists(mostly(st.integers(-2, 60)), max_size=2))
    mu = draw(st.permutations(mu) | st.lists(mostly(st.integers(-2, 60)), max_size=6))
    return draw(mostly(st.just({"group": draw(mostly(st.just(group))), "mu": draw(mostly(st.just(mu)))})))


OPERANDS = ("n", "r", "base", "equals", "a", "b", "m", "index", "pi_of", "x", "lo", "hi", "p", "mod")

checks = st.none() | mostly(
    st.builds(
        lambda op, rel, operands: {"op": op, "rel": rel, **operands},
        mostly(st.sampled_from(sorted(CHECK_OPS))),
        mostly(st.sampled_from(("lt", "le", "eq", "ne", "gt", "ge"))),
        st.dictionaries(st.sampled_from(OPERANDS), mostly(st.integers(-3, 10**4)), max_size=4),
    )
)
steps = mostly(
    st.fixed_dictionaries(
        {"claim": mostly(st.text(max_size=4)), "tag": mostly(st.just("arithmetic")), "check": checks}
    )
)
certificate_documents = mostly(
    st.fixed_dictionaries(
        {"kind": mostly(st.sampled_from(("split", "nonsplit", "lemma-chain"))), "steps": mostly(st.lists(steps, max_size=4))},
        optional={
            "partition": mostly(
                st.fixed_dictionaries(
                    {"clique": mostly(st.lists(labels, max_size=3)), "independent": mostly(st.lists(labels, max_size=3))},
                    optional={"special": mostly(st.booleans())},
                )
            ),
            "witness": mostly(
                st.fixed_dictionaries({"kind": mostly(st.just("2K2")), "vertices": mostly(st.lists(labels, max_size=4))})
            ),
            "context": mostly(st.dictionaries(st.text(max_size=3), json_values, max_size=2)),
        },
    )
)

#: text that is not JSON at all, now and then
raw_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)

FUZZ = settings(max_examples=150, deadline=2000, suppress_health_check=[HealthCheck.too_slow])


def run_cli(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, path])
    assert code in (0, 1, 2, 3)
    if code >= 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return code


@given(graph_documents().map(json.dumps) | raw_text)
@example("[" * 2000 + "]" * 2000)
@FUZZ
def test_split_in_answers_every_document(text):
    run_cli(["split", "--in"], text)


@given(spectrum_documents().map(json.dumps) | raw_text)
@example('{"group": "A1(7)", "mu": [7, 3, 4]}')
@FUZZ
def test_split_spectrum_answers_every_document(text):
    run_cli(["split", "--spectrum"], text)


@given(certificate_documents.map(json.dumps) | raw_text)
@FUZZ
def test_certificate_decoder_answers_every_document(text):
    try:
        cert = certificate_from_json(text)
    except MalformedInput:
        return
    assert isinstance(recheck(cert), list)
    assert certificate_from_json(cert.to_json()) == cert


@given(graph_documents())
@example({"vertices": [2, {"class": {"name": "Ré", "members": [5, 3]}}], "edges": [[2, {"class": {"name": "Ré", "members": [5, 3]}}]]})
@settings(max_examples=150, deadline=None)
def test_accepted_graph_documents_round_trip(doc):
    try:
        g = Graph.from_json(json.dumps(doc))
    except GKSplitError:
        return
    assert Graph.from_json(g.to_json()) == g
