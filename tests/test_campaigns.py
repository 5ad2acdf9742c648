import ast
import hashlib
from pathlib import Path

import pytest

from gksplit import campaigns, cli, groups

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
