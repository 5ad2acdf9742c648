"""Command line surface: parse the arguments, acquire the graph, print.

Verbs: build, split, compact, verify, witness, export, sporadic.  The verify
campaigns live in ``campaigns``; this module checks their flags, calls them
and prints their lines.  ``--graph compact`` compacts a graph from any
source; ``--graph solvable`` needs ``--group``.

Exit codes: 0 = verified/split as asked; 1 = refuted, with a witness that
revalidates; 2 = error, malformed input and running out of memory included;
3 = factoring budget exhausted (never a silent pass).

Group descriptors are parsed by ``groups.parse_descriptor``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import campaigns, gkbuild, groups, numtheory as nt
from .certificates import recheck
from .errors import (
    BudgetExceeded,
    GKSplitError,
    MalformedInput,
    UnsupportedFamily,
)
from .graph import Graph, edge_count, edge_text, label_text
from .groups import parse_descriptor
from .splitcheck import is_split_degree, is_split_forbidden, partition_doc, partition_text

_RESULT_SCHEMA = "gksplit/result/1"


# ---------------------------------------------------------------------------
# graph acquisition
# ---------------------------------------------------------------------------

_SPECTRUM_FAMILIES = "Alt/Sym, A1, B2=C2, B3(3)=C3(3), 2B2, 2G2, and the Tits group"


def _prime_graph_for(d: groups.GroupDescriptor) -> Graph:
    if d.kind in ("alternating", "symmetric"):
        return gkbuild.gk_altsym(d.kind, d.n)
    try:
        return groups.gk_from_spectrum(groups.spectrum_formulas(d))
    except UnsupportedFamily:
        raise UnsupportedFamily(
            f"no closed-form prime graph for {d}; supply one with --spectrum FILE "
            f"(closed forms exist for {_SPECTRUM_FAMILIES})"
        ) from None


def _solvable_graph_for(d: groups.GroupDescriptor) -> Graph:
    if d.kind == "sporadic" and not d.tits:
        record = groups.sporadic_record(d.name)
        if record.solvable_edges:
            return Graph(sorted(record.prime_spectrum), record.solvable_edges)
    raise UnsupportedFamily(
        f"no embedded solvable-graph edge set for {d} (only M22 ships one)"
    )


def _compact_graph_for(d: groups.GroupDescriptor, budget: int) -> Graph:
    obj, verdict, cert = gkbuild.theoremD_verify(d, budget)
    if obj is None:
        raise UnsupportedFamily(
            f"the compact form of {d} is certified by a partition, not materialized "
            "as a graph; use 'verify theorem-d --group ...' instead"
        )
    return obj


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from None


def _load_spectrum_file(path: str) -> tuple[groups.GroupDescriptor, Graph]:
    text = _read_text(path)
    try:
        doc = json.loads(text)
        group, mu = str(doc["group"]), list(doc["mu"])
    except KeyError as exc:
        raise MalformedInput(f"spectrum document lacks field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"malformed spectrum document: {exc}") from None
    for x in mu:
        if not isinstance(x, int) or isinstance(x, bool):
            raise MalformedInput(f"spectrum element orders must be JSON integers, got {json.dumps(x)}")
    if any(m < 1 for m in mu):
        raise MalformedInput(f"spectrum element orders must be positive, got {sorted(mu)}")
    d = parse_descriptor(group)
    data = groups.SpectrumData(d, groups.maximal_elements(mu))
    if not groups.spectrum_covers(data):
        raise GKSplitError(
            f"spectrum primes do not cover the prime spectrum of {d}"
        )
    return d, groups.gk_from_spectrum(data)


def _acquire_graph(args) -> tuple[Graph, str]:
    sources = [bool(args.group), bool(args.spectrum), bool(args.infile)]
    if sum(sources) != 1:
        raise GKSplitError("exactly one input source required: --group, --spectrum or --in")
    if args.group:
        d = parse_descriptor(args.group)
        if args.graph == "solvable":
            return _solvable_graph_for(d), f"solvable graph of {d}"
        if args.graph == "compact":
            return _compact_graph_for(d, args.budget), f"compact prime graph of {d}"
        return _prime_graph_for(d), f"prime graph of {d}"
    if args.graph == "solvable":
        raise GKSplitError("--graph solvable needs --group; --spectrum and --in give no solvable graph")
    if args.infile:
        g, title = Graph.from_json(_read_text(args.infile)), args.infile
    else:
        d, g = _load_spectrum_file(args.spectrum)
        title = f"spectrum of {d}"
    if args.graph == "compact":
        g = g.compact_form().quotient
    return g, title


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _graph_table(g: Graph, title: str) -> str:
    text = [label_text(v) for v in g.vertices]
    lines = [title, f"vertices ({g.n}): " + " ".join(text)]
    edges = edge_text(g.rows, text, "  ", " -- ", "", "\n")
    if edges:
        lines.append(f"edges ({edge_count(g.rows)}):")
        lines.extend(edges)
    else:
        lines.append("edges (0): none")
    return "\n".join(lines)


def _render_graph(g: Graph, fmt: str, title: str) -> str:
    if fmt == "json":
        return g.to_json()
    if fmt == "dot":
        return g.to_dot()
    return _graph_table(g, title)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_build(args) -> int:
    g, title = _acquire_graph(args)
    _emit(_render_graph(g, args.format, title), args.out)
    return 0


def _cmd_export(args) -> int:
    if args.format == "table":
        raise GKSplitError("export needs --format json or dot")
    return _cmd_build(args)


def _cmd_compact(args) -> int:
    args.graph = "prime" if args.graph == "compact" else args.graph
    g, title = _acquire_graph(args)
    cf = g.compact_form()
    _emit(_render_graph(cf.quotient, args.format, f"compact form of {title}"), args.out)
    return 0


def _cmd_split(args) -> int:
    g, title = _acquire_graph(args)
    verdict = is_split_degree(g)
    other = is_split_forbidden(g)
    if verdict.split != other.split:  # pragma: no cover - fatal invariant
        raise GKSplitError("degree and forbidden-subgraph checks disagree")
    if args.format == "json":
        doc = {"schema": _RESULT_SCHEMA, "input": title, "split": verdict.split, "m_index": verdict.m_index}
        if verdict.split:
            doc["partition"] = partition_doc(verdict.partition)
        else:
            doc["witness"] = {
                "kind": verdict.forbidden.kind,
                "vertices": [v if isinstance(v, int) else v.name for v in verdict.forbidden.vertices],
            }
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [f"{title}: {'split' if verdict.split else 'NOT split'} (m = {verdict.m_index})"]
        if verdict.split:
            lines.append(partition_text(verdict.partition))
        else:
            w = verdict.forbidden
            lines.append(
                f"forbidden induced {w.kind} on "
                + "{" + ", ".join(label_text(v) for v in w.vertices) + "}"
            )
        _emit("\n".join(lines), args.out)
    return 0 if verdict.split else 1


def _sporadic_doc(p) -> dict:
    return {"clique": sorted(p.clique), "independent": sorted(p.independent)}


def _sporadic_text(p) -> str:
    return "C={clique} I={independent}".format_map(_sporadic_doc(p))


def _cmd_sporadic(args) -> int:
    records = groups.sporadic_table()
    if args.name:
        records = [groups.sporadic_record(args.name)]
    if args.format == "json":
        doc = [
            {
                "name": r.name,
                "prime_partition": _sporadic_doc(r.prime_partition),
                "solvable_partition": None if r.solvable_partition is None else _sporadic_doc(r.solvable_partition),
                "solvable_witness": list(r.solvable_witness) if r.solvable_witness else None,
            }
            for r in records
        ]
        _emit(json.dumps(doc, indent=2), args.out)
        return 0
    lines = []
    for r in records:
        lines.append(f"{r.name}: prime graph {_sporadic_text(r.prime_partition)}")
        if r.solvable_partition:
            lines.append(f"    solvable graph {_sporadic_text(r.solvable_partition)}")
        else:
            lines.append(f"    solvable graph NOT split; 2K2 witness {sorted(r.solvable_witness)}")
    _emit("\n".join(lines), args.out)
    return 0


_WITNESS_PARAMETERS = {
    "prop71": ("n", "p", "a"),
    "prop72": ("u", "w", "p"),
    "prop73": ("n", "p"),
    "psl11": (),
}


def _cmd_witness(args) -> int:
    missing = [f"--{k}" for k in _WITNESS_PARAMETERS[args.which] if getattr(args, k) is None]
    if missing:
        raise GKSplitError(f"witness {args.which} needs {' '.join(missing)}")
    if args.which == "prop71":
        primes, cert = gkbuild.nonsplit_witness_linear(args.n, args.p, args.a, args.budget)
        header = (
            f"prime graph of A{args.n - 1}({args.p}^{args.a}) is nonsplit; "
            f"2K2 on {{{primes[0]}, {primes[1]}}} x {{{primes[2]}, {primes[3]}}}"
        )
    elif args.which == "prop72":
        cert = gkbuild.prop72_certificate(args.u, args.w, args.p, args.budget)
        header = f"solvable graph of A{args.u * args.w - 1}({args.p}^3) is nonsplit"
    elif args.which == "prop73":
        cert = gkbuild.sc_nonsplit_certificate(args.n, args.p)
        header = f"compact solvable graph of A{args.n - 1}({args.p}) is nonsplit"
    else:  # psl11
        graph, cert = gkbuild.psl11_2_sc()
        header = "compact solvable graph of A10(2): " + _graph_table(graph, "")
    failures = recheck(cert)
    if failures:  # pragma: no cover - would be a construction bug
        raise GKSplitError("certificate failed its own recheck: " + "; ".join(failures))
    if args.format == "json":
        _emit(cert.to_json(), args.out)
    else:
        lines = [header, f"certificate ({len(cert.steps)} steps, arithmetic re-verified):"]
        for s in cert.steps:
            mark = "assume" if s.assumption else "check "
            lines.append(f"  [{mark}|{s.tag}] {s.claim}")
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    which, bound = args.which, args.max_n
    # a sweep starts at degree (theorem-a) or base (zsigmondy) 2; without
    # --max-n the campaign's own default bound applies
    if which in ("theorem-a", "zsigmondy") and bound is not None and bound < 2:
        raise GKSplitError(f"verify {which} needs --max-n of at least 2, got {bound}")
    sweep = () if bound is None else (bound,)
    if which == "theorem-a":
        ok, lines = campaigns.theorem_a(*sweep)
    elif which == "theorem-b":
        ok, lines = campaigns.theorem_b()
    elif which == "theorem-c":
        ok, lines = campaigns.theorem_c(args.budget)
    elif which == "theorem-d":
        if not args.group:
            raise GKSplitError("verify theorem-d needs --group")
        ok, lines = campaigns.theorem_d(parse_descriptor(args.group), args.budget)
    elif which == "zsigmondy":
        ok, lines = campaigns.zsigmondy(*sweep, budget=args.budget)
    else:
        ok, lines = campaigns.spectrum(args.budget)
    _emit("\n".join(lines), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--group", help="group descriptor, e.g. Alt(12), A3(4), 2B2(32), M22")
    p.add_argument("--spectrum", help="JSON file {'group': descriptor, 'mu': [orders...]}")
    p.add_argument("--in", dest="infile", help="graph JSON file")
    p.add_argument(
        "--graph", choices=("prime", "solvable", "compact"), default="prime",
        help="which graph of the group to use",
    )
    p.add_argument("--format", choices=("json", "dot", "table"), default="table")
    p.add_argument("--out", help="write output to FILE instead of stdout")
    p.add_argument("--budget", type=int, default=nt.DEFAULT_BUDGET, help="factoring effort budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gksplit",
        description="Prime graphs of finite simple groups, split-graph checks, compact forms, certificates.",
        epilog="exit codes: 0 verified/split, 1 refuted (witness shown), 2 error, 3 factoring budget exhausted",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="construct a graph and print/serialize it")
    _add_common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("split", help="run both split-recognition routes on a graph")
    _add_common(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("compact", help="compute the compact (true-twin quotient) form")
    _add_common(p)
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser("export", help="serialize a graph to JSON or DOT")
    _add_common(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("sporadic", help="show the embedded sporadic tables")
    p.add_argument("name", nargs="?", help="a single sporadic group")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sporadic)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument(
        "which",
        choices=("theorem-a", "theorem-b", "theorem-c", "theorem-d", "zsigmondy", "spectrum"),
    )
    p.add_argument("--max-n", type=int, help="sweep bound (theorem-a degree / zsigmondy base)")
    p.add_argument("--group", help="group descriptor (theorem-d)")
    p.add_argument("--out")
    p.add_argument("--budget", type=int, default=nt.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_verify, format="table")

    p = sub.add_parser("witness", help="emit a nonsplitness witness with its certificate")
    p.add_argument("which", choices=("prop71", "prop72", "prop73", "psl11"))
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--u", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--out")
    p.add_argument("--budget", type=int, default=nt.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_witness)

    return parser


#: The parser main reuses; built on main's first call, never at import.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if getattr(args, "budget", 1) < 1:
            raise GKSplitError(f"--budget must be at least 1, got {args.budget}")
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: factoring budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (GKSplitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large for this host", file=sys.stderr)
        return 2


#: programmatic entry point: run(argv) -> exit status, one parser per process
run = main


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
