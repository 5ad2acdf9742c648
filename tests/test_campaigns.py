import ast
import hashlib
from pathlib import Path

import pytest

from gksplit import campaigns, cli, gkbuild, groups
from gksplit.graph import Graph
from gksplit.splitcheck import SplitPartition, validate_partition

from oracles import prime_powers
from test_gkbuild import planted

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
    samples = [
        d for _, ds in campaigns.theorem_c_rows() for d in ds if callable(gkbuild.GRAPHS[gkbuild.kind_of(d)].compact)
    ]
    assert len(samples) == 53
    for d in samples:
        graph, verdict, cert = gkbuild.theoremD_verify(d)
        for part in (verdict.partition, cert.partition):
            assert validate_partition(graph, part) == (True, None), d
        if verdict.partition != cert.partition:
            differ.append(str(d))
    assert len(differ) == 13 and {"A2(5)", "G2(4)", "E8(2)"} <= set(differ)
    # B2 = C2 prints the partition it certifies at every field size q <= 400
    for q in prime_powers(3, 400):
        for family in ("B2", "C2"):
            graph, verdict, cert = gkbuild.theoremD_verify(groups.parse_descriptor(f"{family}({q})"))
            assert verdict.partition == cert.partition, (family, q)


def test_theorem_c_rows_list_each_group_once():
    # the grid written out, against the rows every theorem C reader expands
    rows = campaigns.theorem_c_rows()
    assert len(rows) == 21
    classical = [d for _, ds in rows[:6] for d in ds]
    samples = [d for _, ds in rows[6:] for d in ds]
    assert (len(classical), len(samples)) == (346, 53)
    expected = [
        groups.classical(f, r, q) for f in ("A", "2A") for r in range(3, 20) for q in (2, 3, 4, 5, 7, 8, 9)
    ] + [groups.classical(f, r, q) for f in ("B", "C", "D", "2D") for r in range(4, 13) for q in (2, 3, 5)]
    assert classical == expected
    assert [str(d) for d in samples[:8]] == [f"A1({q})" for q in (4, 5, 7, 8, 9, 11, 13, 27)]
    assert [text for text, _ in rows[:6]] == [
        "A-series dimensions 4..20", "2A-series dimensions 4..20",
        "B-series ranks 4..12", "C-series ranks 4..12", "D-series ranks 4..12", "2D-series ranks 4..12",
    ]


G2_ROW = "G2 at q in (4, 5, 13, 27)"
G2_REASON = "certified partition of G2(5) invalid: I is not independent"


@pytest.fixture
def g2_edge_in_i(monkeypatch):
    # one edge inside I of G2(5)'s diagram (the q = -1 (mod 3) variant)
    planted(monkeypatch, "G2", lambda t: t["variants"][2]["edges"].append(["R1p", "R3", None]))


def test_failed_check_is_a_fail_row_of_theorem_c(g2_edge_in_i, capsys):
    code = cli.main(["verify", "theorem-c"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 21
    assert [line for line in lines if not line.startswith("PASS ")] == [f"FAIL {G2_ROW} ({G2_REASON})"]


def test_failed_check_is_a_fail_line_of_theorem_d(g2_edge_in_i, capsys):
    code = cli.main(["verify", "theorem-d", "--group", "G2(5)"])
    out, err = capsys.readouterr()
    assert code == 1 and not err
    assert out.splitlines() == [f"FAIL G2(5): compact prime graph split ({G2_REASON})"]


def test_failed_check_outside_a_campaign_is_an_error(g2_edge_in_i, capsys):
    code = cli.main(["build", "--group", "G2(5)", "--graph", "compact"])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.splitlines() == [f"error: {G2_REASON}"]


def test_theorem_b_reads_the_m22_witness_of_its_record(monkeypatch):
    table = [r._replace(solvable_witness=(2, 3, 5, 7)) if r.name == "M22" else r for r in groups.sporadic_table()]
    monkeypatch.setattr(groups, "_TABLE", table)
    ok, lines = campaigns.theorem_b()
    assert not ok and len(lines) == 26
    assert [line for line in lines if not line.startswith("PASS ")] == [
        "FAIL M22 (solvable graph has no 2K2 on [2, 3, 5, 7])"
    ]


def test_theorem_a_fail_rows_and_total(monkeypatch):
    real, wrong = gkbuild.altsym_partition, SplitPartition(frozenset({2, 3, 5}), frozenset({7}))
    monkeypatch.setattr(gkbuild, "altsym_partition", lambda n: wrong if n == 7 else real(n))
    ok, lines = campaigns.theorem_a(10)
    failed = [line for line in lines if not line.startswith("PASS ")]
    assert not ok and failed == [
        "FAIL symmetric n=7 (C is not a clique)",
        "FAIL alternating n=7 (C is not a clique)",
        "FAIL theorem-a up to n=10 (2 failed)",
    ]


def test_theorem_a_fails_only_the_broken_kind(monkeypatch):
    # Alt(11) without its edge 3-5 is still split, so only the validation of
    # its partition fails; Sym(11), built from the same degree's rows, passes
    real = gkbuild.gk_altsym

    def broken(d):
        g = real(d)
        if (d.kind, d.n) != ("alternating", 11):
            return g
        return Graph(g.vertices, [e for e in g.edges if set(e) != {3, 5}])

    monkeypatch.setattr(gkbuild, "gk_altsym", broken)
    ok, lines = campaigns.theorem_a(12)
    assert "PASS symmetric n=11" in lines
    assert not ok and [line for line in lines if not line.startswith("PASS ")] == [
        "FAIL alternating n=11 (C is not a clique)",
        "FAIL theorem-a up to n=12 (1 failed)",
    ]


def test_zsigmondy_lists_each_failing_pair(monkeypatch):
    # with an empty exception list, every true exception of |base| 2 fails
    monkeypatch.setattr(campaigns.nt, "is_zsigmondy_exception", lambda i, base: False)
    ok, lines = campaigns.zsigmondy(2)
    assert not ok
    assert lines == [
        "FAIL R_1(2) (empty off the exception list)",
        "FAIL R_6(2) (empty off the exception list)",
        "FAIL R_2(-2) (empty off the exception list)",
        "FAIL R_3(-2) (empty off the exception list)",
        "FAIL primitive-divisor exceptions, |base| <= 2, index <= 12 (4 failed)",
    ]
