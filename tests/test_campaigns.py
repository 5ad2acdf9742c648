import ast
import hashlib
from pathlib import Path

import pytest

from gksplit import campaigns, cli, exceptional, gkbuild, groups
from gksplit.splitcheck import validate_partition

from oracles import prime_powers

# each campaign called with plain values, next to the argv that runs it
CASES = [
    (lambda: campaigns.theorem_a(30), ["verify", "theorem-a", "--max-n", "30"]),
    (campaigns.theorem_a, ["verify", "theorem-a"]),
    (campaigns.theorem_b, ["verify", "theorem-b"]),
    (campaigns.theorem_c, ["verify", "theorem-c"]),
    (lambda: campaigns.theorem_d(groups.classical("B", 4, 3), 1),
     ["verify", "theorem-d", "--group", "B4(3)", "--budget", "1"]),
    (lambda: campaigns.theorem_d(groups.sporadic("M22")), ["verify", "theorem-d", "--group", "M22"]),
    (lambda: campaigns.zsigmondy(8), ["verify", "zsigmondy", "--max-n", "8"]),
    (campaigns.zsigmondy, ["verify", "zsigmondy"]),
    (campaigns.spectrum, ["verify", "spectrum"]),
]


@pytest.mark.parametrize("campaign, argv", CASES, ids=[" ".join(a[1:]) for _, a in CASES])
def test_campaign_prints_what_the_cli_prints(campaign, argv, capsys):
    ok, lines = campaign()
    code = cli.main(argv)
    assert capsys.readouterr().out.splitlines() == lines
    assert code == (0 if ok else 1)
    assert ok


def test_campaigns_do_not_import_the_argument_parser():
    tree = ast.parse(Path(campaigns.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert "argparse" not in imported
    assert "cli" not in imported and "gksplit.cli" not in imported


def test_theorem_a_300_keeps_its_lines():
    # sha256 of the report lines, each ended by a newline, as the kind-major
    # sweep printed them; the degree-major sweep must print the same bytes
    ok, lines = campaigns.theorem_a(300)
    assert ok and len(lines) == 596
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == "8578e0ed7133cebeb52b9970b0d9834d98b296f6d2f9dfdc0e3860e9e9c73293"


def test_printed_and_certified_partitions_both_validate():
    # theorem-d prints the degree route's partition of the compact graph and
    # the certificate carries the diagram's: both validate on the graph
    # theorem-d returns, for every exceptional sample, and they differ at 13
    # of the 53 (A2(5), G2(4), E8(2), ...)
    differ = []
    for family, qs in campaigns._EXCEPTIONAL_SAMPLES:
        for q in qs:
            graph, verdict, cert = gkbuild.theoremD_verify(exceptional.descriptor_for(family, q))
            for part in (verdict.partition, cert.partition):
                assert validate_partition(graph, part) == (True, None), (family, q)
            if verdict.partition != cert.partition:
                differ.append(f"{family}({q})")
    assert len(differ) == 13 and {"A2(5)", "G2(4)", "E8(2)"} <= set(differ)
    # B2 = C2 prints the partition it certifies at every field size q <= 400
    for q in prime_powers(3, 400):
        for family in ("B2", "C2"):
            graph, verdict, cert = gkbuild.theoremD_verify(exceptional.descriptor_for(family, q))
            assert verdict.partition == cert.partition, (family, q)
