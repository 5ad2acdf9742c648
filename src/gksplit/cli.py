"""Command line surface: parse the arguments, acquire the graph, print.

The verbs, their options and their handlers are the one table ``VERBS``;
``_parse`` walks argv against it and the same table prints the help.  The
verify campaigns live in ``campaigns``; this module checks their flags,
calls them and prints their lines.  A ``--group``'s graph, or the refusal
of it, comes from ``gkbuild.graph_of``; ``--graph compact`` compacts a
``--spectrum`` or ``--in`` graph, and ``--graph solvable`` needs ``--group``.

Exit codes: 0 = verified/split as asked; 1 = refuted, with a witness that
revalidates, or a verify campaign with a FAIL line; 2 = error, malformed
input, a usage error, a failed check outside a campaign and running out of
memory included; 3 = factoring budget exhausted (never a silent pass).

Group descriptors are parsed by ``groups.parse_descriptor``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import types

from . import campaigns, gkbuild, groups, numtheory as nt
from .certificates import recheck
from .errors import BudgetExceeded, GKSplitError, MalformedInput
from .graph import Graph, edge_count, edge_text, label_text
from .groups import parse_descriptor
from .splitcheck import is_split_degree, is_split_forbidden, partition_doc, partition_text, witness_doc

_RESULT_SCHEMA = "gksplit/result/1"


# ---------------------------------------------------------------------------
# graph acquisition
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from None


def _acquire_graph(args) -> tuple[Graph, str]:
    sources = [bool(args.group), bool(args.spectrum), bool(args.infile)]
    if sum(sources) != 1:
        raise GKSplitError("exactly one input source required: --group, --spectrum or --in")
    if args.group:
        d = parse_descriptor(args.group)
        title = "compact prime graph" if args.graph == "compact" else f"{args.graph} graph"
        return gkbuild.graph_of(d, args.graph, args.budget), f"{title} of {d}"
    if args.graph == "solvable":
        raise GKSplitError("--graph solvable needs --group; --spectrum and --in give no solvable graph")
    if args.infile:
        g, title = Graph.from_json(_read_text(args.infile)), args.infile
    else:
        data = groups.spectrum_from_json(_read_text(args.spectrum))
        g, title = groups.gk_from_spectrum(data, args.budget), f"spectrum of {data.group}"
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


def _write_graph(g: Graph, fmt: str, title: str, write) -> None:
    """Pass g's document in fmt to write piece by piece, one adjacency row
    of edges at a time: JSON, DOT, or the table of title, the vertex line
    and the counted edge list or none."""
    if fmt == "json":
        g.to_json(write)
    elif fmt == "dot":
        g.to_dot(write)
    else:
        text, edges = [label_text(v) for v in g.vertices], edge_count(g.rows)
        write(f"{title}\nvertices ({g.n}): " + " ".join(text))
        write(f"\nedges ({edges}):\n" if edges else "\nedges (0): none")
        edge_text(write, g.rows, text, "  ", " -- ", "", "\n")


def _emit_graph(g: Graph, fmt: str, title: str, out: str | None):
    """_write_graph to the --out file or to stdout as it goes, ended as _emit
    ends: stdout gets a newline, a file one only if it lacks it (DOT has)."""
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        _write_graph(g, fmt, title, fh.write)
        if fmt != "dot" or not out:
            fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_build(args) -> int:
    g, title = _acquire_graph(args)
    _emit_graph(g, args.format, title, args.out)
    return 0


def _cmd_export(args) -> int:
    if args.format == "table":
        raise GKSplitError("export needs --format json or dot")
    return _cmd_build(args)


def _cmd_compact(args) -> int:
    g, title = _acquire_graph(args)
    _emit_graph(g.compact_form().quotient, args.format, f"compact form of {title}", args.out)
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
            doc["witness"] = witness_doc(verdict.forbidden)
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
        cert = gkbuild.nonsplit_witness_linear(args.n, args.p, args.a, args.budget)
        primes = cert.witness.vertices
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
        table = []
        _write_graph(graph, "table", "compact solvable graph of A10(2): ", table.append)
        header = "".join(table)
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
        ok, lines = campaigns.zsigmondy(*sweep)
    else:
        ok, lines = campaigns.spectrum(args.budget)
    _emit("\n".join(lines), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# the verb table and the argv walk
# ---------------------------------------------------------------------------

# An option is (flag, dest, type, choices, default, help); type is int or str.
_OUT = ("--out", "out", str, None, None, "write output to FILE instead of stdout")
_BUDGET = ("--budget", "budget", int, None, nt.DEFAULT_BUDGET, "factoring effort budget")
_TABLE_OR_JSON = ("--format", "format", str, ("json", "table"), "table", "output format")
_GRAPH_OPTIONS = (
    ("--group", "group", str, None, None,
     f"group descriptor, e.g. Alt(12), A3(4), 2B2(32), M22; Alt/Sym degree at most {groups.MAX_PERM_DEGREE}"),
    ("--spectrum", "spectrum", str, None, None, "JSON file {'group': descriptor, 'mu': [orders...]}"),
    ("--in", "infile", str, None, None, "graph JSON file"),
    ("--graph", "graph", str, ("prime", "solvable", "compact"), "prime", "which graph of the group to use"),
    ("--format", "format", str, ("json", "dot", "table"), "table", "output format"),
    _OUT,
    _BUDGET,
)
_WITNESS_OPTIONS = tuple(
    (f"--{k}", k, int, None, None, "parameter of " + ", ".join(w for w, ks in _WITNESS_PARAMETERS.items() if k in ks))
    for k in dict.fromkeys(k for ks in _WITNESS_PARAMETERS.values() for k in ks)
)

#: The command line: verb -> (help, positional, options, handler).  The
#: positional is None or (dest, choices, required, help); choices None
#: takes any text.
VERBS = {
    "build": ("construct a graph and print/serialize it", None, _GRAPH_OPTIONS, _cmd_build),
    "split": ("run both split-recognition routes on a graph", None, _GRAPH_OPTIONS, _cmd_split),
    "compact": ("compute the compact (true-twin quotient) form", None, _GRAPH_OPTIONS, _cmd_compact),
    "export": ("serialize a graph to JSON or DOT", None, _GRAPH_OPTIONS, _cmd_export),
    "sporadic": (
        "show the embedded sporadic tables",
        ("name", None, False, "a single sporadic group (default: all 26)"),
        (_TABLE_OR_JSON, _OUT),
        _cmd_sporadic,
    ),
    "verify": (
        "run a verification campaign",
        ("which", ("theorem-a", "theorem-b", "theorem-c", "theorem-d", "zsigmondy", "spectrum"), True,
         "the campaign"),
        (
            ("--max-n", "max_n", int, None, None, "sweep bound (theorem-a degree / zsigmondy base)"),
            ("--group", "group", str, None, None, "group descriptor (theorem-d)"),
            _OUT,
            ("--budget", "budget", int, None, nt.DEFAULT_BUDGET,
             "factoring effort budget (theorem-c, theorem-d, spectrum; the others factor nothing)"),
        ),
        _cmd_verify,
    ),
    "witness": (
        "emit a nonsplitness witness with its certificate",
        ("which", tuple(_WITNESS_PARAMETERS), True, "the proposition"),
        _WITNESS_OPTIONS + (_TABLE_OR_JSON, _OUT, _BUDGET),
        _cmd_witness,
    ),
}

_HELP = ("-h", "--help")


class _Usage(Exception):
    """Raised by ``_parse`` with (verb, message): a usage error, or a request
    for help when message is None.  verb is None before a verb is read."""


def _is_flag(tok: str) -> bool:
    # a negative integer is a value, and so are '-' and '--' (end of options)
    return tok[:1] == "-" and tok not in ("-", "--") and not tok[1:].isdecimal()


def _value(verb, name, kind, choices, text):
    try:
        value = kind(text)
    except ValueError:
        raise _Usage(verb, f"argument {name}: invalid int value: {text!r}") from None
    if choices and value not in choices:
        allowed = ", ".join(map(repr, choices))
        raise _Usage(verb, f"argument {name}: invalid choice: {text!r} (choose from {allowed})")
    return value


def _parse(argv) -> types.SimpleNamespace:
    """Walk argv against VERBS.  Accepts '--opt value', '--opt=value', a
    unique prefix of a flag, a negative int as a value, options and the
    positional in any order, and '--' before a positional; the last of a
    repeated option wins.  Raises _Usage."""
    verb = argv[0] if argv else None
    if verb is None or _is_flag(verb):
        if verb and any(h.startswith(verb) for h in _HELP):
            raise _Usage(None, None)
        raise _Usage(None, f"unrecognized arguments: {verb}" if verb else "the following arguments are required: verb")
    if verb not in VERBS:
        raise _Usage(None, f"argument verb: invalid choice: {verb!r} (choose from {', '.join(map(repr, VERBS))})")
    _, positional, options, handler = VERBS[verb]
    flags = {opt[0]: opt for opt in options}
    names = (*flags, *_HELP)
    args = {opt[1]: opt[4] for opt in options}
    if positional:
        args[positional[0]] = None
    todo, took_positional, options_done = list(reversed(argv[1:])), False, False
    while todo:
        tok = todo.pop()
        if tok == "--" and not options_done:
            options_done = True
        elif _is_flag(tok) and not options_done:
            flag, eq, text = tok.partition("=")
            found = [f for f in names if f == flag] or [f for f in names if f.startswith(flag)]
            if len(found) != 1:
                raise _Usage(verb, f"ambiguous option: {flag} could match {', '.join(found)}"
                             if found else f"unrecognized arguments: {tok}")
            if found[0] in _HELP:
                raise _Usage(verb, None)
            name, dest, kind, choices, _, _ = flags[found[0]]
            if not eq:
                if not todo or _is_flag(todo[-1]):
                    raise _Usage(verb, f"argument {name}: expected one argument")
                text = todo.pop()
            args[dest] = _value(verb, name, kind, choices, text)
        elif positional and not took_positional:
            args[positional[0]] = _value(verb, positional[0], str, positional[1], tok)
            took_positional = True
        else:
            raise _Usage(verb, f"unrecognized arguments: {tok}")
    if positional and positional[2] and not took_positional:
        raise _Usage(verb, f"the following arguments are required: {positional[0]}")
    return types.SimpleNamespace(func=handler, **args)


def _metavar(dest: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else dest.upper()


def _usage(verb: str | None) -> str:
    if verb is None:
        return "usage: gksplit [-h] {" + ",".join(VERBS) + "} ..."
    _, positional, options, _ = VERBS[verb]
    words = ["usage: gksplit", verb, "[-h]"]
    words += [f"[{flag} {_metavar(dest, choices)}]" for flag, dest, _, choices, _, _ in options]
    if positional:
        dest, choices, required, _ = positional
        words.append(_metavar(dest, choices) if required else f"[{_metavar(dest, choices)}]")
    return " ".join(words)


def _help(verb: str | None) -> str:
    if verb is None:
        return "\n".join([
            _usage(None), "",
            "Prime graphs of finite simple groups, split-graph checks, compact forms, certificates.", "",
            "verbs (gksplit VERB -h lists a verb's options):",
            *(f"  {v:10}{spec[0]}" for v, spec in VERBS.items()), "",
            "exit codes: 0 verified/split, 1 refuted (witness shown) or a verify FAIL line, 2 error,"
            " 3 factoring budget exhausted",
        ])
    text, positional, options, _ = VERBS[verb]
    rows = [("-h, --help", "show this help message and exit")]
    if positional:
        dest, choices, _, about = positional
        rows.insert(0, (dest.upper(), about + (": " + ", ".join(choices) if choices else "")))
    for flag, dest, _, choices, default, about in options:
        rows.append((f"{flag} {_metavar(dest, choices)}", about if default is None else f"{about} (default: {default})"))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([_usage(verb), "", text, "", "arguments:", *(f"  {left:{width}}{right}" for left, right in rows)])


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _Usage as exc:
        verb, message = exc.args
        if message is None:
            print(_help(verb))
            return 0
        print(f"error: {message}\n{_usage(verb)}", file=sys.stderr)
        return 2
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


#: programmatic entry point: run(argv) -> exit status; usage errors return 2
run = main


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
