import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import gksplit
import pins
import run_pins
from gksplit import cli, gkbuild, groups
from gksplit.certificates import certificate_from_json
from gksplit.errors import DescriptorSyntaxError, InputTooLarge, InvalidField, MalformedInput, NotSimple
from gksplit.graph import ClassLabel, Graph, decode_label


class TestParseDescriptor:
    def test_one_parser(self):
        assert cli.parse_descriptor is groups.parse_descriptor

    def test_permutation(self):
        assert cli.parse_descriptor("Alt(7)") == groups.alternating(7)
        assert cli.parse_descriptor("Sym(9)") == groups.symmetric(9)

    def test_classical(self):
        assert cli.parse_descriptor("A3(4)") == groups.classical("A", 3, 4)
        assert cli.parse_descriptor("2A4(9)") == groups.classical("2A", 4, 9)
        assert cli.parse_descriptor("2D4(3)") == groups.classical("2D", 4, 3)

    def test_aliases_through_parser(self):
        assert cli.parse_descriptor("C2(3)") == groups.classical("B", 2, 3)
        assert cli.parse_descriptor("D3(3)") == groups.classical("A", 3, 3)
        assert cli.parse_descriptor("2D2(3)") == groups.classical("A", 1, 9)

    def test_exceptional(self):
        assert cli.parse_descriptor("2B2(32)") == groups.exceptional("2B2", 32)
        assert cli.parse_descriptor("E8(5)") == groups.exceptional("E8", 5)
        assert cli.parse_descriptor("3D4(2)") == groups.exceptional("3D4", 2)

    def test_sporadic(self):
        assert cli.parse_descriptor("M22") == groups.sporadic("M22")
        assert cli.parse_descriptor("Fi24'") == groups.sporadic("Fi24'")
        assert cli.parse_descriptor("2F4(2)'").tits

    def test_field_constraint_surfaces(self):
        with pytest.raises(InvalidField):
            cli.parse_descriptor("2B2(16)")

    def test_not_simple_surfaces(self):
        with pytest.raises(NotSimple):
            cli.parse_descriptor("A1(2)")

    def test_syntax_error_position(self):
        with pytest.raises(DescriptorSyntaxError) as exc:
            cli.parse_descriptor("Alt(7")
        assert exc.value.position == 5  # the missing ')'
        with pytest.raises(DescriptorSyntaxError) as exc:
            cli.parse_descriptor("Alt[7]")
        assert exc.value.position == 3
        with pytest.raises(DescriptorSyntaxError):
            cli.parse_descriptor("")
        with pytest.raises(DescriptorSyntaxError):
            cli.parse_descriptor("H4(2)")


class TestSplitCommand:
    def test_m22_solvable_refuted(self, capsys):
        code = cli.main(["split", "--group", "M22", "--graph", "solvable"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT split" in out and "2K2" in out
        for p in ("3", "5", "7", "11"):
            assert p in out

    def test_alt7_split(self, capsys):
        code = cli.main(["split", "--group", "Alt(7)"])
        assert code == 0
        assert "split" in capsys.readouterr().out

    def test_json_witness_revalidates(self, capsys):
        code = cli.main(["split", "--group", "M22", "--graph", "solvable", "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "gksplit/result/1"
        assert doc["split"] is False
        assert sorted(doc["witness"]["vertices"]) == [11, 3, 5, 7] or set(
            doc["witness"]["vertices"]
        ) == {3, 5, 7, 11}

    def test_json_witness_keeps_class_members(self, tmp_path, capsys):
        # two R5 and two R7 classes form a 2K2; the witness names each class
        # by the label codec, so it decodes back to four distinct vertices
        r5a, r7a, r5b, r7b = (ClassLabel(n, (p,)) for n, p in (("R5", 11), ("R7", 29), ("R5", 13), ("R7", 43)))
        doc = tmp_path / "classes.json"
        doc.write_text(Graph([r5a, r7a, r5b, r7b], [(r5a, r7a), (r5b, r7b)]).to_json())
        assert cli.main(["split", "--in", str(doc), "--format", "json"]) == 1
        witness = json.loads(capsys.readouterr().out)["witness"]
        vertices = [decode_label(v) for v in witness["vertices"]]
        assert witness["kind"] == "2K2" and set(vertices) == {r5a, r7a, r5b, r7b}

    def test_two_sources_rejected(self, capsys):
        code = cli.main(["split", "--group", "M22", "--in", "x.json"])
        assert code == 2


    def test_compact_graph_of_an_in_graph(self, tmp_path, capsys):
        # --graph compact compacts an --in graph, as the compact verb does
        m22, compacted = tmp_path / "m22.json", tmp_path / "compact.json"
        assert cli.main(["build", "--group", "M22", "--graph", "solvable", "--format", "json", "--out", str(m22)]) == 0
        assert cli.main(["compact", "--in", str(m22), "--format", "json", "--out", str(compacted)]) == 0
        assert cli.main(["split", "--in", str(m22), "--graph", "compact", "--format", "json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert cli.main(["split", "--in", str(compacted), "--format", "json"]) == 0
        via_file = json.loads(capsys.readouterr().out)
        assert direct["split"] is via_file["split"] is True
        assert direct["partition"] == via_file["partition"]


class TestBuildExport:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = cli.main(["export", "--group", "2G2(27)", "--format", "json", "--out", str(out)])
        assert code == 0
        g = Graph.from_json(out.read_text())
        assert g.vertices == (2, 3, 7, 13, 19, 37)
        code = cli.main(["split", "--in", str(out)])
        assert code == 0  # star plus isolated vertices is split

    def test_dot(self, capsys):
        code = cli.main(["build", "--group", "2B2(8)", "--format", "dot"])
        assert code == 0
        assert capsys.readouterr().out.startswith("graph G {")

    def test_spectrum_ingestion(self, tmp_path, capsys):
        doc = {"group": "A1(7)", "mu": [7, 3, 4]}
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["split", "--spectrum", str(path)])
        assert code == 0

    def test_spectrum_coverage_enforced(self, tmp_path, capsys):
        doc = {"group": "A1(7)", "mu": [7, 4]}  # prime 3 missing
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["split", "--spectrum", str(path)])
        assert code == 2

    def test_hostile_spectrum_refused_quickly(self, tmp_path, capsys):
        # |E8(1000003)| has factors such as q^30 - 1 that the default budget
        # cannot split; the cover test compares prime sets by gcds instead
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"group": "E8(1000003)", "mu": [2]}))
        start = time.perf_counter()
        assert cli.main(["split", "--spectrum", str(path)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_budget_reaches_spectrum_built_graphs(self, tmp_path, capsys):
        # mu = {|E8(1000003)|}: building the graph factors that order, which
        # ran for 75 s at the default budget whatever --budget said; the
        # closed-form spectrum of A1(2^127 - 1) needs 2^126 - 1 factored
        path = tmp_path / "mu.json"
        order = groups.order(groups.parse_descriptor("E8(1000003)"))
        path.write_text(json.dumps({"group": "E8(1000003)", "mu": [order]}))
        for source in (["--spectrum", str(path)], ["--group", f"A1({2**127 - 1})"]):
            start = time.perf_counter()
            assert cli.main(["split", *source, "--budget", "1"]) == 3
            assert time.perf_counter() - start < 1
            err = capsys.readouterr().err
            assert err.startswith("error: factoring budget exhausted: ") and err.count("\n") == 1

    def test_budget_message_says_it_once_and_shortens_long_integers(self, tmp_path, capsys):
        # the 1,489-digit order of E8(1000003) is named by its ends and digit count
        order = groups.order(groups.parse_descriptor("E8(1000003)"))
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"group": "E8(1000003)", "mu": [order]}))
        assert cli.main(["split", "--spectrum", str(path), "--budget", "1"]) == 3
        err = capsys.readouterr().err
        assert len(err.encode()) < 200 and err.count("\n") == 1
        assert err.count("budget exhausted") == 1
        assert f"({len(str(order))} digits)" in err
        assert cli.main(["witness", "prop71", "--n", "40", "--p", "5", "--a", "3", "--budget", "1"]) == 3
        err = capsys.readouterr().err
        assert err == "error: factoring budget exhausted: could not factor 113532654389881 within budget 1\n"

    def test_compact_unavailable_for_big_classical(self, capsys):
        code = cli.main(["build", "--group", "A12(4)", "--graph", "compact"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["split", "--group", "A200(4)", "--graph", "compact"],
         ["build", "--group", "A100(3)", "--graph", "compact"],
         ["build", "--group", "M22", "--graph", "compact"]],
        ids=["A200(4)", "A100(3)", "M22"],
    )
    def test_compact_refused_before_factoring(self, argv, capsys):
        # the refusal reads the descriptor alone; it used to follow the whole
        # theorem-d campaign (81 s on A200(4), 7 s on A100(3))
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 0.5
        group = argv[2]
        assert capsys.readouterr().err == (
            f"error: the compact form of {group} is certified by a partition, not materialized "
            "as a graph; use 'verify theorem-d --group ...' instead\n"
        )

    def test_solvable_only_m22(self, capsys):
        code = cli.main(["build", "--group", "Co1", "--graph", "solvable"])
        assert code == 2


class TestCompactCommand:
    def test_m22_path(self, capsys):
        code = cli.main(["compact", "--group", "M22", "--graph", "solvable", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        members = sorted(tuple(v["class"]["members"]) for v in doc["vertices"])
        assert members == [(2,), (3, 7), (5,), (11,)]

    def test_compact_graph_of_a_diagram_group(self, capsys):
        # the drawn diagram that build prints can hold true twins: compact
        # merges 3 and R3 of G2(4), and takes A2(11) from 5 classes to 4
        assert cli.main(["compact", "--group", "G2(4)", "--graph", "compact"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "vertices (3): 3{3,7} R2p{2,5} R6{13}"
        for verb, classes in (("build", 5), ("compact", 4)):
            assert cli.main([verb, "--group", "A2(11)", "--graph", "compact", "--format", "json"]) == 0
            assert len(json.loads(capsys.readouterr().out)["vertices"]) == classes

    def test_compacting_a_compact_graph_changes_nothing(self, capsys):
        outs = []
        for extra in ([], ["--graph", "compact"]):
            assert cli.main(["compact", "--group", "Alt(30)", "--format", "json", *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestVerifyCommands:
    def test_theorem_a_small(self, capsys):
        code = cli.main(["verify", "theorem-a", "--max-n", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS symmetric n=30" in out and "PASS alternating n=30" in out

    def test_theorem_b(self, capsys):
        code = cli.main(["verify", "theorem-b"])
        out = capsys.readouterr().out
        assert code == 0 and out.count("PASS") == 26

    def test_theorem_d_group(self, capsys):
        code = cli.main(["verify", "theorem-d", "--group", "E8(2)"])
        assert code == 0

    def test_theorem_d_factors_every_class(self, capsys):
        # Phi_61(4) and Phi_73(4) are factored as their pieces Phi_j(2), so R61
        # and R73 print with their members, not as bare labels
        assert cli.main(["verify", "theorem-d", "--group", "A60(4)"]) == 0
        out = capsys.readouterr().out
        assert "R61{768614336404564651,2305843009213693951}" in out
        assert cli.main(["verify", "theorem-d", "--group", "A79(4)"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"R61\{[0-9,]+\}", out) and re.search(r"R73\{[0-9,]+\}", out)

    def test_theorem_d_names_unknown_members(self, capsys):
        # one unit of budget factors Phi_2(3) = 4 and Phi_6(3) = 7 and no other
        # class: the classes stay (Zsigmondy), and a note names them in label order
        assert cli.main(["verify", "theorem-d", "--group", "B4(3)", "--budget", "1"]) == 0
        assert capsys.readouterr().out == (
            "PASS B4(3): compact prime graph split\n"
            "C = {R2{2}, R4, p{3}}  I = {R3, R6{7}, R8}\n"
            "  members unknown (factoring budget exhausted): R3, R4, R8\n"
        )
        assert cli.main(["verify", "theorem-d", "--group", "B4(3)"]) == 0
        assert "members unknown" not in capsys.readouterr().out

    @pytest.mark.parametrize("group", ["A2(13)", "E8(2)", "2G2(27)", "A4(13)", "B2(5)", "C2(7)"])
    def test_theorem_d_keeps_classes_at_any_budget(self, group, capsys):
        # class existence never needs factoring: the diagrams, and delta(L)
        # of A4(13), once ran the budget out with exit 3
        assert cli.main(["verify", "theorem-d", "--group", group, "--budget", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("  members unknown (factoring budget exhausted): ")
        assert cli.main(["verify", "theorem-d", "--group", group]) == 0
        full = capsys.readouterr().out.splitlines()
        assert re.sub(r"\{[0-9,]+\}", "", lines[1]) == re.sub(r"\{[0-9,]+\}", "", full[1])

    def test_theorem_d_b2_at_budget_1_without_factoring(self, capsys):
        # q = 2^127 - 1: B2 is a diagram of order indices, so one unit of
        # budget decides it at once; it once factored its maximal element
        # orders at the default budget and exited 3 after seconds
        start = time.perf_counter()
        code = cli.main(
            ["verify", "theorem-d", "--group", "B2(170141183460469231731687303715884105727)", "--budget", "1"]
        )
        assert time.perf_counter() - start < 1
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "  members unknown (factoring budget exhausted): R, R4"

    def test_theorem_c_at_budget_1(self, capsys):
        assert cli.main(["verify", "theorem-c", "--budget", "1"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_spectrum_needs_members(self, capsys):
        # the spectrum check compares member sets, so a class without
        # members is a budget exhaustion, not a traceback
        assert cli.main(["verify", "spectrum", "--budget", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: factoring budget exhausted: ") and err.count("\n") == 1

    def test_zsigmondy(self, capsys):
        code = cli.main(["verify", "zsigmondy", "--max-n", "8"])
        assert code == 0

    def test_zsigmondy_ignores_budget(self, capsys):
        # emptiness of R_i(base) is decided without factoring, so even the
        # smallest budget neither runs out nor changes a line
        assert cli.main(["verify", "zsigmondy", "--max-n", "30"]) == 0
        out = capsys.readouterr().out
        assert cli.main(["verify", "zsigmondy", "--max-n", "30", "--budget", "1"]) == 0
        assert capsys.readouterr().out == out

    def test_spectrum(self, capsys):
        code = cli.main(["verify", "spectrum"])
        out = capsys.readouterr().out
        assert code == 0 and "FAIL" not in out


class TestWitnessCommands:
    def test_prop71(self, capsys):
        code = cli.main(["witness", "prop71", "--n", "13", "--p", "2", "--a", "2"])
        out = capsys.readouterr().out
        assert code == 0
        for p in ("43", "127", "19", "73"):
            assert p in out

    def test_prop71_json_is_certificate(self, capsys):
        code = cli.main(
            ["witness", "prop71", "--n", "13", "--p", "2", "--a", "2", "--format", "json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["schema"] == "gksplit/certificate/1"
        assert doc["witness"]["vertices"] == [43, 127, 19, 73]

    def test_prop72(self, capsys):
        assert cli.main(["witness", "prop72", "--u", "5", "--w", "7", "--p", "2"]) == 0

    def test_prop73(self, capsys):
        assert cli.main(["witness", "prop73", "--n", "19", "--p", "2"]) == 0

    def test_psl11(self, capsys):
        assert cli.main(["witness", "psl11"]) == 0

    def test_bad_parameters_exit_2(self, capsys):
        assert cli.main(["witness", "prop73", "--n", "11", "--p", "2"]) == 2


@pytest.mark.parametrize(
    "argv, content",
    [
        (["split", "--in", "doc.json"], "{not json"),
        (["split", "--in", "doc.json"], '{"vertices": [2, 3]}'),
        (["split", "--in", "doc.json"], '{"vertices": ["x"], "edges": []}'),
        (["split", "--spectrum", "doc.json"], '{"group": "A1(7)"}'),
        (["split", "--in", "doc.json"], None),
        (["witness", "prop71"], None),
        (["split", "--in", "doc.json"], b"\xff\xfe{}"),
        (["split", "--spectrum", "doc.json"], b"\xff\xfe{}"),
        (["verify", "theorem-a", "--max-n", "-5"], None),
        (["verify", "theorem-a", "--max-n", "0"], None),
        (["verify", "zsigmondy", "--max-n", "1"], None),
        (["split", "--spectrum", "doc.json"], '{"group": "A1(7)", "mu": [7, 3, 4, 0]}'),
        (["split", "--in", "doc.json"], '{"vertices": [true, 1, 2], "edges": [[true, 2]]}'),
        (["split", "--in", "doc.json"], '{"vertices": [{"class": {"name": "R1", "members": [false]}}], "edges": []}'),
        (["split", "--spectrum", "doc.json"], '{"group": "A1(7)", "mu": [7.9, 3, 4]}'),
        (["split", "--spectrum", "doc.json"], '{"group": "A1(7)", "mu": [7, 3, "4"]}'),
        (["split", "--spectrum", "doc.json"], '{"group": "A1(7)", "mu": [7, 3, 4, true]}'),
        (["split", "--in", "doc.json"], '{"vertices": [1, {"class": {"name": "1"}}], "edges": []}'),
        (["compact", "--in", "doc.json"],
         '{"vertices": [2, {"class": {"name": "2", "members": [2]}}, 3], '
         '"edges": [[2, 3], [{"class": {"name": "2", "members": [2]}}, 3]]}'),
        (["verify", "theorem-d", "--group", "B4(3)", "--budget", "0"], None),
        (["split", "--group", "Alt(5)", "--budget", "-1"], None),
        (["split", "--in", "doc.json", "--graph", "solvable"], '{"vertices": [2, 3], "edges": [[2, 3]]}'),
        (["build", "--spectrum", "doc.json", "--graph", "solvable"], '{"group": "A1(7)", "mu": [7, 3, 4]}'),
        (["split", "--in", "doc.json"], '{"vertices": [' + "[" * 2000 + "]" * 2000 + '], "edges": []}'),
        (["split", "--spectrum", "doc.json"], '{"group": "A1(7)", "mu": [' + "[" * 2000 + "]" * 2000 + "]}"),
        (["split", "--in", "doc.json"], '{"vertices": [{"class": {"name": "R1", "members": [1.5]}}], "edges": []}'),
        (["split", "--in", "doc.json"], '{"vertices": [{"class": {"name": "R1", "members": ["7"]}}], "edges": []}'),
        (["split", "--in", "doc.json"], '{"vertices": [{"class": {"name": ["x"], "members": [7]}}], "edges": []}'),
        (["split", "--spectrum", "doc.json"], '{"group": 7, "mu": [7, 3, 4]}'),
        (["split", "--in", "doc.json"], '{"vertices": [{"class": "R1"}], "edges": []}'),
        (["split", "--in", "doc.json"], '{"vertices": {}, "edges": []}'),
        (["split", "--spectrum", "doc.json"], "[7, 3, 4]"),
    ],
    ids=[
        "invalid-json", "no-edges", "string-label", "spectrum-without-mu", "missing-file",
        "prop71-without-parameters", "graph-not-utf8", "spectrum-not-utf8",
        "theorem-a-negative-bound", "theorem-a-zero-bound", "zsigmondy-bound-below-first-base",
        "spectrum-zero-order", "boolean-label", "boolean-class-member",
        "spectrum-float-order", "spectrum-string-order", "spectrum-boolean-order",
        "labels-that-print-alike", "twin-classes-share-a-label",
        "theorem-d-zero-budget", "split-negative-budget",
        "solvable-graph-of-an-in-graph", "solvable-graph-of-a-spectrum",
        "graph-nested-2000", "spectrum-nested-2000", "float-class-member", "string-class-member",
        "list-class-name", "integer-spectrum-group", "class-not-an-object", "vertices-not-a-list",
        "spectrum-not-an-object",
    ],
)
def test_malformed_input_exits_2(argv, content, tmp_path, capsys):
    path = tmp_path / "doc.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    code = cli.main([str(path) if a == "doc.json" else a for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "name, fmt",
    [('a"; 7 -- 9; "b', "dot"), ("\n  2 -- 3", "table"), ("a\\b", "dot"), ("\x85", "table")],
    ids=["quote-adds-a-dot-edge", "newline-adds-a-table-edge", "backslash", "c1-control"],
)
def test_class_name_cannot_write_lines(name, fmt, tmp_path, capsys):
    # unchecked, the first two exited 0, printing the edge 7 -- 9 in DOT and
    # the line "  2 -- 3" in the table of an edgeless graph
    label = {"class": {"name": name}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"vertices": [5, label], "edges": []}))
    assert cli.main(["build", "--in", str(path), "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: class name ") and err.count("\n") == 1
    # the certificate reader decodes its labels with the same decoder
    cert = {"kind": "nonsplit", "steps": [], "witness": {"kind": "2K2", "vertices": [2, label, 5, 7]}}
    with pytest.raises(MalformedInput, match="class name"):
        certificate_from_json(json.dumps(cert))


class _CountingSink:
    """A stdout that keeps only the length of what is written to it."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["compact", "--group", "Sym(5000)", "--format", "json"],
        ["build", "--group", "Alt(5000)", "--format", "dot"],
        ["build", "--group", "Alt(5000)"],
    ],
    ids=["compact-json", "build-dot", "build-table"],
)
def test_graph_documents_are_written_as_they_go(argv, monkeypatch):
    # a document joined before its first byte goes out peaks at about twice
    # its length; written one adjacency row at a time, at under a tenth
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.length > 10**6
    assert peak < 0.25 * sink.length


@pytest.mark.parametrize(
    "group, code, err",
    [
        (f"A1({(2**61 - 1) ** 2})", 0, ""),
        (f"A1({2**128 + 1})", 2, f"error: {2**128 + 1} is not a prime power\n"),
        ("A3(6)", 2, "error: 6 is not a prime power\n"),
    ],
    ids=["mersenne-prime-squared", "fermat-composite", "six"],
)
def test_prime_power_field_decided_without_factoring(group, code, err, capsys):
    # 2^61 - 1 is prime and 2^128 + 1 = 59649589127497217 * 5704689200685129054721;
    # factoring either field size ran the default budget out, exit 3 after about 4 s
    start = time.perf_counter()
    assert cli.main(["verify", "theorem-d", "--group", group]) == code
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == err


class TestSweepBounds:
    def test_smallest_bounds_run(self, capsys):
        assert cli.main(["verify", "theorem-a", "--max-n", "2"]) == 0
        assert capsys.readouterr().out == "PASS symmetric n=2\nPASS theorem-a up to n=2\n"
        assert cli.main(["verify", "zsigmondy", "--max-n", "2"]) == 0
        assert "|base| <= 2," in capsys.readouterr().out


class TestSporadicCommand:
    def test_table(self, capsys):
        code = cli.main(["sporadic"])
        out = capsys.readouterr().out
        assert code == 0 and out.count("prime graph") == 26

    def test_single_json(self, capsys):
        code = cli.main(["sporadic", "Ly", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc[0]["solvable_partition"]["clique"] == [2, 3, 11]


class TestBudgetExit:
    def test_budget_exit_code(self, capsys):
        # a 60-digit semiprime-ish cofactor cannot be cracked with budget 10
        code = cli.main(
            ["witness", "prop71", "--n", "13", "--p", "1000003", "--a", "2", "--budget", "10"]
        )
        assert code == 3


class TestOversizedDescriptors:
    @pytest.mark.parametrize(
        "group, message",
        [("A1(" + "9" * 5000 + ")", "number of 5000 digits is too long"),
         ("Alt(" + "9" * 5000 + ")", "number of 5000 digits is too long"),
         ("Alt(100000000000000000000000)", "degree above the ceiling 1000000"),
         ("Sym(10000000)", "degree above the ceiling 1000000")],
        ids=["A1-5000-digits", "Alt-5000-digits", "Alt-10^23", "Sym-10^7"],
    )
    def test_refused_with_exit_2(self, group, message, capsys):
        # each used to end in a traceback (ValueError, OverflowError) or an
        # allocation of about 55 GB
        start = time.perf_counter()
        assert cli.main(["split", "--group", group]) == 2
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_ceiling_is_inclusive_and_in_help(self, capsys):
        assert groups.parse_descriptor(f"Alt({groups.MAX_PERM_DEGREE})").n == groups.MAX_PERM_DEGREE
        with pytest.raises(InputTooLarge):
            groups.symmetric(groups.MAX_PERM_DEGREE + 1)
        assert cli.main(["build", "--help"]) == 0
        assert f"Alt/Sym degree at most {groups.MAX_PERM_DEGREE}" in capsys.readouterr().out


class TestOutOfMemory:
    def test_memory_error_is_one_error_line_and_exit_2(self, monkeypatch, capsys):
        # exit 1 would read as "refuted"; no real allocation is made
        def exhausted(d):
            raise MemoryError

        monkeypatch.setattr(gkbuild, "gk_altsym", exhausted)
        assert cli.main(["build", "--group", f"Sym({groups.MAX_PERM_DEGREE})", "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _faults_in_process(pin, tmp_path, monkeypatch, capsys):
    """pins.faults of pin's runs through cli.main, from a directory holding its inputs."""
    monkeypatch.chdir(tmp_path)
    pins.write_inputs(pin, tmp_path)
    results = []
    for argv in pin.runs:
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        results.append((code, out.encode() + pins.out_file(argv, tmp_path), err))
    return pins.faults(pin, results)


# Every record of tests/pins.py but CI_ONLY, in-process; run_pins.py runs each
# record that has a time limit in a fresh interpreter under that limit.  Each
# golden section runs under a test name of its own, so that the ids of its
# records stay those that earlier test reports list.
@pytest.mark.parametrize("pin", pins.GOLDEN, ids=lambda p: p.name)
def test_golden_output(pin, tmp_path, monkeypatch, capsys):
    assert _faults_in_process(pin, tmp_path, monkeypatch, capsys) == []


@pytest.mark.parametrize("pin", pins.GOLDEN_LARGE, ids=lambda p: p.name)
def test_golden_large_output(pin, tmp_path, monkeypatch, capsys):
    assert _faults_in_process(pin, tmp_path, monkeypatch, capsys) == []


@pytest.mark.parametrize("pin", pins.GOLDEN_ROUTES, ids=lambda p: p.name)
def test_golden_route_output(pin, tmp_path, monkeypatch, capsys):
    assert _faults_in_process(pin, tmp_path, monkeypatch, capsys) == []


@pytest.mark.parametrize("pin", pins.LIMITED + pins.UNLIMITED, ids=lambda p: p.name)
def test_pinned_output(pin, tmp_path, monkeypatch, capsys):
    assert _faults_in_process(pin, tmp_path, monkeypatch, capsys) == []


def test_readme_commands_are_pinned():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [tuple(shlex.split(line, comments=True)) for line in block.splitlines()]
    assert {c[0] for c in commands} == {"gksplit"}
    pinned = {argv for p in pins.PINS for argv in p.runs}
    assert [c for c in commands if c[1:] not in pinned] == []


def test_run_pins_fails_each_planted_fault(capsys):
    # four fresh interpreters: one record that holds and three planted faults
    good = next(p for p in pins.GOLDEN if p.name == "split --group Alt(7)")._replace(limit=20)
    planted = [
        good,
        good._replace(name="digest with its last bit flipped", sha256=f"{int(good.sha256, 16) ^ 1:064x}"),
        good._replace(name="exit 1 expected", code=1),
        pins.pin("--help", limit=0.001, name="--help within 1 ms"),
    ]
    assert run_pins.main(planted) == 1
    verdicts = [line.split(" (")[0] for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    assert verdicts == [
        "PASS split --group Alt(7)", "FAIL digest with its last bit flipped", "FAIL exit 1 expected", "FAIL --help within 1 ms",
    ]


#: the graphs each descriptor has, one per kind of gkbuild.GRAPHS and per
#: diagram family, as the switches before the table built them
WALK = {
    "Alt(9)": "prime compact", "Sym(7)": "prime compact", "M22": "solvable", "M11": "", "Tits": "prime compact",
    "A4(2)": "", "2A4(3)": "", "B4(3)": "", "C4(3)": "", "D5(2)": "", "2D5(2)": "",
    "A1(7)": "prime compact", "A2(5)": "compact", "2A2(8)": "compact", "B2(5)": "prime compact",
    "B3(3)": "prime compact", "B3(5)": "compact", "C3(5)": "compact", "G2(4)": "compact", "F4(2)": "compact",
    "E6(2)": "compact", "2E6(2)": "compact", "E7(2)": "compact", "E8(2)": "compact",
    "2B2(8)": "prime compact", "2G2(27)": "prime compact", "2F4(8)": "compact", "3D4(2)": "compact",
}


@pytest.mark.parametrize("group, has", WALK.items(), ids=list(WALK))
def test_every_graph_verb_builds_exactly_what_the_table_has(group, has, capsys):
    d = groups.parse_descriptor(group)
    row = gkbuild.GRAPHS[gkbuild.kind_of(d)]
    assert {which for which in ("prime", "compact", "solvable") if callable(getattr(row, which))} == set(has.split())
    # theorem-d materializes the compact graph exactly where the table builds one
    assert (gkbuild.theoremD_verify(d)[0] is not None) == ("compact" in has)
    for which in ("prime", "compact", "solvable"):
        for verb in ("build", "export", "split", "compact"):
            argv = [verb, "--group", group, "--graph", which, *(["--format", "json"] if verb == "export" else [])]
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
            out, err = capsys.readouterr()
            if which in has:
                assert code in (0, 1) and out and not err, argv
            else:
                # refused from the descriptor alone, with the table's reason
                assert (code, out, err) == (2, "", f"error: {getattr(row, which).format(d=d)}\n"), argv
                assert elapsed < 0.5, argv


# A graph whose only forbidden subgraph is a C4 (a square under a clique, one
# pendant), and one whose only forbidden subgraph is a C5 (a pentagon under a
# clique, two pendants); the witness bytes were recorded with the exhaustive
# 4- and 5-subset scan.
C4_ONLY = {
    "vertices": [2, 3, 5, 7, 11, 13, 17],
    "edges": [[2, 3], [5, 11], [11, 7], [7, 13], [13, 5], [2, 17]]
    + [[c, q] for c in (2, 3) for q in (5, 7, 11, 13)],
}
C5_ONLY = {
    "vertices": [2, 3, 5, 7, 11, 13, 17, 19, 23],
    "edges": [[2, 3], [5, 11], [11, 7], [7, 17], [17, 13], [13, 5], [2, 19], [3, 23]]
    + [[c, q] for c in (2, 3) for q in (5, 7, 11, 13, 17)],
}


C4_ONLY_JSON = """{
  "schema": "gksplit/result/1",
  "input": "g.json",
  "split": false,
  "m_index": 5,
  "witness": {
    "kind": "C4",
    "vertices": [
      5,
      11,
      7,
      13
    ]
  }
}
"""
C5_ONLY_JSON = """{
  "schema": "gksplit/result/1",
  "input": "g.json",
  "split": false,
  "m_index": 5,
  "witness": {
    "kind": "C5",
    "vertices": [
      5,
      11,
      7,
      17,
      13
    ]
  }
}
"""


@pytest.mark.parametrize(
    "graph, expected", [(C4_ONLY, C4_ONLY_JSON), (C5_ONLY, C5_ONLY_JSON)], ids=["c4-only", "c5-only"]
)
def test_split_json_witness_bytes(graph, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps(graph))
    assert cli.main(["split", "--in", "g.json", "--format", "json"]) == 1
    assert capsys.readouterr().out == expected


def _fresh_process(argv):
    """(exit code, stdout, stderr) of ``python -m gksplit argv`` in a new interpreter."""
    src = str(Path(gksplit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "gksplit", *argv], env=env, capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_set_up_imports_neither_dataclasses_nor_inspect():
    # the value types are NamedTuples; -S keeps site's own imports out
    src = str(Path(gksplit.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from gksplit import cli, exceptional, groups\n"
        "groups.sporadic_table(); exceptional.diagram_families()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_python_dash_m_runs_the_cli():
    code, _, err = _fresh_process(["split", "--group", "Alt(7)"])
    assert code == 0, err


def test_argument_parsing_imports_neither_argparse_nor_gettext():
    # the verb table is walked by hand; -S keeps site's own imports out
    src = str(Path(gksplit.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import gksplit.cli\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_in_process_answers_like_a_fresh_process(capsys):
    sequence = [
        ["split", "--group", "Alt(7)", "--format", "json"],
        ["split", "--group", "Alt(7)"],
        ["split", "--form=json", "--gr", "Alt(7)"],
        ["compact", "--graph", "solvable"],
        ["verify", "theorem-d"],
        ["verify", "--max-n", "-5", "theorem-a"],
        ["split", "--group", "Alt(5)", "--budget", "0"],
        ["split", "--group", "Alt(5)", "--budget", "-1"],
        ["sporadic", "M11"],
        ["sporadic", "--format", "json", "--format", "table", "--", "M11"],
        ["split", "--group", "Alt(7)", "--format", "xml"],
        ["split", "--g", "Alt(7)"],
        ["split", "--group"],
        ["split", "--colour", "red"],
        ["verify", "theorem-a", "--max-n", "ten"],
        ["sporadic", "Ly", "M22"],
        ["witness"],
        ["bogus"],
        [],
        ["-h"],
        ["verify", "-h"],
    ]
    for argv in sequence:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh_process(argv), argv


def _option_cases():
    """(verb, option, argv prefix) for every option of every verb in the table."""
    for verb, (_, positional, options, _) in cli.VERBS.items():
        head = [verb] + ([positional[1][0]] if positional and positional[2] else [])
        for option in options:
            yield pytest.param(verb, option, head, id=f"{verb} {option[0]}")


@pytest.mark.parametrize("verb, option, head", list(_option_cases()))
def test_every_option_takes_every_spelling(verb, option, head):
    flag, dest, kind, choices, default, _ = option
    first, text = (choices[0], choices[-1]) if choices else ("7", "-5" if kind is int else "-")
    names = [o[0] for o in cli.VERBS[verb][2]] + ["--help"]
    prefix = next(flag[:k] for k in range(3, len(flag) + 1) if [n for n in names if n.startswith(flag[:k])] == [flag])
    assert getattr(cli._parse(head), dest) == default
    spellings = [[flag, text], [f"{flag}={text}"], [prefix, text], [f"{prefix}={text}"], [flag, first, flag, text]]
    for spelling in spellings:
        args = cli._parse(head + spelling)
        assert getattr(args, dest) == kind(text), spelling
        assert args.func is cli.VERBS[verb][3]
        if len(head) > 1:  # options may also come before the positional
            assert getattr(cli._parse([verb] + spelling + head[1:]), dest) == kind(text)


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_verb_help_lists_every_option(verb, capsys):
    assert cli.main([verb, "-h"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"usage: gksplit {verb} [-h]")
    for flag, *_ in cli.VERBS[verb][2]:
        assert f"\n  {flag} " in out, flag
    assert cli.main(["--help"]) == 0
    assert f"\n  {verb} " in capsys.readouterr().out


def test_sporadic_name_is_optional():
    assert cli._parse(["sporadic"]).name is None
    assert cli._parse(["sporadic", "Ly"]).name == "Ly"
    assert cli._parse(["sporadic", "--", "-x"]).name == "-x"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: verb"),
        (["bogus"], "argument verb: invalid choice: 'bogus'"),
        (["--colour"], "unrecognized arguments: --colour"),
        (["split", "--colour", "red"], "unrecognized arguments: --colour"),
        (["split", "-g", "M22"], "unrecognized arguments: -g"),
        (["split", "--g", "M22"], "ambiguous option: --g could match --group, --graph"),
        (["split", "--group"], "argument --group: expected one argument"),
        (["split", "--out", "--format", "json"], "argument --out: expected one argument"),
        (["verify", "theorem-a", "--max-n", "ten"], "argument --max-n: invalid int value: 'ten'"),
        (["witness", "prop71", "--n=1.5"], "argument --n: invalid int value: '1.5'"),
        (["split", "--group", "Alt(7)", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["sporadic", "--format", "dot"], "argument --format: invalid choice: 'dot'"),
        (["verify", "theorem-e"], "argument which: invalid choice: 'theorem-e'"),
        (["witness", "--n", "13"], "the following arguments are required: which"),
        (["sporadic", "Ly", "M22"], "unrecognized arguments: M22"),
        (["split", "Alt(7)"], "unrecognized arguments: Alt(7)"),
    ],
    ids=[
        "no-verb", "unknown-verb", "option-before-verb", "unknown-option", "unknown-short-option",
        "ambiguous-prefix", "missing-value", "option-as-value", "bad-int", "float-as-int",
        "bad-choice", "format-the-verb-lacks", "bad-positional-choice", "missing-positional",
        "extra-positional", "positional-the-verb-lacks",
    ],
)
def test_usage_error_exits_2(argv, message, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    verb = argv[0] if argv and argv[0] in cli.VERBS else None
    assert out == ""
    assert err.startswith("error: " + message)
    assert err.splitlines()[1] == cli._usage(verb) and err.count("\n") == 2
