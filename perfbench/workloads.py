"""Seeded request lists for the four workloads.

``build_plan(workload, seed, input_dir)`` returns the requests of one pass:
each is the argv for ``gksplit.cli.main``, the exit code a right answer has,
and the check that decides whether the answer is right.  The same seed gives
the same requests and the same graph files.  Draws are stratified, so that a
seed changes which inputs are sent but not how much work of each kind a pass
contains; that keeps run-to-run spread small enough to compare commits.
"""

from __future__ import annotations

import json
import os
import random

from checks import order_index, sieve

WORKLOADS = {
    "altsym-split": {
        "why": "split on Alt/Sym(30..70), table and JSON: stresses the forbidden route's clique search and subset scans; bypasses numtheory factoring",
        "passes": 3,
        "stresses": "splitcheck.is_split_forbidden (clique search) and graph.find_forbidden",
        "bypasses": "numtheory (only primes_upto runs)",
        "predicts": "item 2 (polynomial recognition): wall_s and req_tail_ms fall sharply; "
        "item 3 (bitset graph core): small change; item 4 (factoring): no change",
        "expect": (
            "cli.main", "gkbuild.gk_altsym", "numtheory.primes_upto", "graph.Graph.init",
            "splitcheck.is_split_degree", "splitcheck.is_split_forbidden", "graph.find_forbidden",
        ),
    },
    "altsym-sweep": {
        "why": "theorem-a to ~300 plus build/compact of Alt/Sym(300..3000) as JSON/DOT: stresses graph construction, compact_form and serialization; bypasses factoring",
        "passes": 4,
        "stresses": "graph.Graph.init, gkbuild.gk_altsym, graph.compact_form, graph.to_json/to_dot",
        "bypasses": "the forbidden route and numtheory factoring (split graphs, degree route only)",
        "predicts": "item 3 (bitset graph core): wall_s and peak_rss_mb fall; "
        "item 2 (forbidden route): no change; item 4 (factoring): no change",
        "expect": (
            "cli.main", "gkbuild.gk_altsym", "numtheory.primes_upto", "graph.Graph.init",
            "splitcheck.is_split_degree", "splitcheck.validate_partition", "graph.compact_form",
            "graph.to_json", "graph.to_dot",
        ),
    },
    "lie-certify": {
        "why": "theorem-d on Lie-type groups of rank 4..64 with the A60(4) factoring-budget cliff, theorem-c, zsigmondy, prop71/73: stresses factor/ppd_set and recheck",
        "passes": 3,
        "stresses": "numtheory.factor/ppd_set, the gkbuild ppd cache and certificates.recheck",
        "bypasses": "graph construction at scale and both split routes' search paths",
        "predicts": "item 4 (factoring): wall_s, req_tail_ms and unfactored_class_share fall; "
        "item 2 (forbidden route): no change; item 3 (graph core): no change",
        "expect": (
            "cli.main", "gkbuild.theoremD_verify", "gkbuild.classical_compact_partition",
            "gkbuild.nonsplit_witness_linear", "numtheory.factor", "numtheory.ppd_set",
            "numtheory.cyclotomic_value", "numtheory.raw_order", "numtheory.is_prime",
            "exceptional.exceptional_compact", "exceptional.tits_compact",
            "groups.spectrum_formulas", "groups.gk_from_spectrum", "certificates.recheck",
            "splitcheck.validate_partition", "splitcheck.is_split_degree", "graph.Graph.init",
        ),
    },
    "refute-graphs": {
        "why": "split --in on non-split graphs (planted 2K2/C4, C5-only) of 16..32 vertices: stresses witness search and from_json; bypasses partition extraction",
        "passes": 3,
        "stresses": "graph.find_forbidden (4/5-subset scans) and graph.from_json",
        "bypasses": "partition extraction (clique search) and numtheory",
        "predicts": "item 2 (linear-time witness): wall_s and req_tail_ms fall; "
        "item 3 (graph core): find_forbidden self time falls; item 4 (factoring): no change",
        "expect": (
            "cli.main", "graph.from_json", "graph.Graph.init", "graph.find_forbidden",
            "splitcheck.is_split_degree", "splitcheck.is_split_forbidden", "certificates.recheck",
        ),
    },
}


def _request(argv, expect_rc, **check):
    return {"argv": argv, "expect_rc": expect_rc, "check": check}


# ---------------------------------------------------------------------------
# altsym-split
# ---------------------------------------------------------------------------

#: Every degree is sent once.  The cost of the clique search doubles with
#: each prime added, so drawing the degrees would make a pass's cost depend
#: on a few draws; the seed picks the group kind (Alt and Sym cost the same),
#: the output format and the order instead.  The list stops at 70: the prime
#: 71 doubles the cost again (Alt(71) and Alt(72) take about 2 s each, a
#: third of a whole pass), and three passes must fit in one run.
_SPLIT_DEGREES = range(30, 71)


def altsym_split(rng: random.Random, input_dir: str) -> list[dict]:
    reqs = []
    for n in _SPLIT_DEGREES:
        kind, fmt = rng.choice(("Alt", "Sym")), rng.choice(("table", "json"))
        argv = ["split", "--group", f"{kind}({n})"] + (["--format", "json"] if fmt == "json" else [])
        reqs.append(_request(argv, 0, kind="split_altsym", group=kind, n=n, format=fmt))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# altsym-sweep
# ---------------------------------------------------------------------------

#: Degree grid for build/compact; the seed moves each point by up to 1%.
#: Costs cluster by grid point, so the grid has an odd number of points:
#: the median request then sits inside the middle cluster, not in the gap
#: between two clusters, where any noise would move it a long way.
_SWEEP_GRID = (300, 1000, 1500, 2000, 3000)


def altsym_sweep(rng: random.Random, input_dir: str) -> list[dict]:
    top = rng.randrange(300, 321)
    reqs = [_request(["verify", "theorem-a", "--max-n", str(top)], 0, kind="theorem_a", top=top)]
    for point in _SWEEP_GRID:
        for verb in ("build", "compact"):
            # Alt and Sym cost the same; the seed decides which of them is
            # written as JSON and which as DOT.
            formats = rng.sample(("json", "dot"), 2)
            for kind, fmt in zip(("Alt", "Sym"), formats):
                n = point + rng.randrange(-point // 100, point // 100 + 1)
                argv = [verb, "--group", f"{kind}({n})", "--format", fmt]
                reqs.append(_request(argv, 0, kind="export", verb=verb, group=kind, n=n, format=fmt))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# lie-certify
# ---------------------------------------------------------------------------

_FIELDS = (2, 3, 4, 5, 7, 8, 9)
_FAMILIES = ("A", "2A", "B", "C", "D", "2D")
_RANK_BANDS = ((4, 7), (8, 11), (12, 15), (16, 19), (20, 23), (24, 27), (28, 32))
#: From this rank on, a classical group's cost grows fast with its rank
#: (A29(9) takes half as long as A32(9)), and these groups make up the
#: latency tail; the ranks of the bands above it are fixed at the band's top,
#: so that the seed does not change the tail.
_FIXED_FROM = 24
#: Ranks above 32, by field.  Up to these ranks every class R_e(q) of these
#: fields factors within the default budget in well under a second; past
#: them (R_59(3), and R_e(q) for q >= 4 from about e = 41) single classes
#: cost seconds or exhaust the budget, so drawing such ranks would make a
#: pass's cost depend on how many budget cliffs a seed happens to draw.
_HIGH_BANDS = ((2, (33, 48)), (2, (49, 64)), (3, (33, 48)))
_EXCEPTIONAL = {
    "G2": (3, 4, 5, 7, 8, 9),
    "F4": (2, 3, 4, 5),
    "E6": (2, 3, 4, 5),
    "2E6": (2, 3, 4, 5),
    "E7": (2, 3, 4),
    "E8": (2, 3, 4),
    "3D4": (2, 3, 4, 5),
    "2B2": (8, 32, 128, 512),
    "2G2": (27, 243, 2187),
    "2F4": (8, 32, 128),
    "A1": (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27),
    "A2": (3, 4, 5, 7, 8, 9),
    "2A2": (3, 4, 5, 7, 8, 9),
    "B2": (3, 4, 5, 7, 8, 9),
    "B3": (3, 4, 5, 7),
}


def _rank(rng: random.Random, lo: int, hi: int) -> int:
    return hi if lo >= _FIXED_FROM else rng.randrange(lo, hi + 1)


def _theorem_d(descriptor: str, base: int | None) -> dict:
    return _request(
        ["verify", "theorem-d", "--group", descriptor], 0,
        kind="theorem_d", descriptor=descriptor, base=base,
    )


def lie_certify(rng: random.Random, input_dir: str) -> list[dict]:
    """Requests in a fixed order, so that the same requests pay for filling
    the ppd cache in every run."""
    reqs = []
    # Classical groups of rank 4..32 in a Latin square: every family meets
    # every field and every rank band once; the seed picks the rank inside
    # the bands below _FIXED_FROM.  Up to rank 32 every R_e(q) factors within
    # the budget.
    for i, family in enumerate(_FAMILIES):
        for j, q in enumerate(_FIELDS):
            lo, hi = _RANK_BANDS[(i + j) % len(_RANK_BANDS)]
            reqs.append(_theorem_d(f"{family}{_rank(rng, lo, hi)}({q})", q))
        for q, (lo, hi) in _HIGH_BANDS:
            reqs.append(_theorem_d(f"{family}{_rank(rng, lo, hi)}({q})", q))
    # The cliff, the same group for every seed: A60(4) needs R_61(4), which
    # exhausts the default factoring budget (seconds) and is printed as a
    # bare class.
    reqs.append(_theorem_d("A60(4)", 4))
    for family, fields in _EXCEPTIONAL.items():
        reqs.append(_theorem_d(f"{family}({rng.choice(fields)})", None))
    reqs.append(_theorem_d("2F4(2)'", None))
    reqs.append(_request(["verify", "theorem-c"], 0, kind="all_pass"))
    reqs.append(_request(["verify", "zsigmondy", "--max-n", "25"], 0, kind="zsigmondy", top=25))
    for _ in range(4):
        n, p, a = rng.randrange(12, 31), rng.choice((2, 3, 5)), rng.choice((2, 3))
        argv = ["witness", "prop71", "--n", str(n), "--p", str(p), "--a", str(a), "--format", "json"]
        reqs.append(_request(argv, 0, kind="prop71", n=n, p=p, a=a))
    for _ in range(4):
        n, p = _primitive_root_pair(rng)
        argv = ["witness", "prop73", "--n", str(n), "--p", str(p), "--format", "json"]
        reqs.append(_request(argv, 0, kind="prop73", n=n, p=p))
    return reqs


def _primitive_root_pair(rng: random.Random) -> tuple[int, int]:
    """A prime n in (13, 200) with a prime p < 50 that generates (Z/n)^*."""
    while True:
        n = rng.choice([x for x in sieve(200) if x > 13])
        roots = [p for p in sieve(50) if p != n and order_index(n, p) == n - 1]
        if roots:
            return n, rng.choice(roots)


# ---------------------------------------------------------------------------
# refute-graphs
# ---------------------------------------------------------------------------


def _add_edge(adj, u, v):
    adj[u].add(v)
    adj[v].add(u)


def _split_part(rng: random.Random, labels: list[int]) -> tuple[dict, list[int]]:
    """A random split graph on labels: half a clique, the rest attached to it
    at random.  Returns the adjacency and the clique side."""
    labels = labels[:]
    rng.shuffle(labels)
    clique, indep = labels[: len(labels) // 2], labels[len(labels) // 2 :]
    adj = {v: set() for v in labels}
    for i, u in enumerate(clique):
        for v in clique[i + 1 :]:
            _add_edge(adj, u, v)
    for u in indep:
        for v in clique:
            if rng.random() < 0.5:
                _add_edge(adj, u, v)
    return adj, clique


def _planted(rng: random.Random, n: int, kind: str) -> dict[int, set]:
    """A split graph with an induced 2K2 or C4 on four of its last six labels.

    The four planted vertices see the whole clique side, none of the
    independent side, and among themselves only the planted edges, so the
    planted subgraph is the only forbidden one and a lexicographic 4-subset
    scan reaches it near its end.
    """
    quad = sorted(rng.sample(range(n - 5, n + 1), 4))
    adj, clique = _split_part(rng, [v for v in range(1, n + 1) if v not in quad])
    for v in quad:
        adj[v] = set()
        for k in clique:
            _add_edge(adj, v, k)
    rng.shuffle(quad)
    a, b, c, d = quad
    for u, v in ([(a, b), (c, d)] if kind == "2K2" else [(a, b), (b, c), (c, d), (d, a)]):
        _add_edge(adj, u, v)
    return adj


def _c5_only(rng: random.Random, n: int) -> dict[int, set]:
    """A clique joined to a C5, plus vertices attached only to the clique.

    No induced 2K2 or C4 exists, so both routes scan every 4-subset and then
    5-subsets up to the C5.  The C5 sits on the five largest labels, in a
    seeded cyclic order, so the scans run to their end whatever the seed.
    """
    cycle = rng.sample(range(n - 4, n + 1), 5)
    adj, clique = _split_part(rng, [v for v in range(1, n + 1) if v not in cycle])
    for v in cycle:
        adj[v] = set()
    for i in range(5):
        _add_edge(adj, cycle[i], cycle[(i + 1) % 5])
    for v in cycle:
        for k in clique:
            _add_edge(adj, v, k)
    return adj


def _write_graph(adj: dict[int, set], path: str) -> None:
    vertices = sorted(adj)
    edges = [[u, v] for u in vertices for v in sorted(adj[u]) if u < v]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": "gksplit/graph/1", "vertices": vertices, "edges": edges}, fh)


#: Graph sizes; one planted 2K2 and one planted C4 graph of each size in
#: _PLANTED_SIZES, one C5-only graph of each size in _C5_SIZES.
_PLANTED_SIZES = range(16, 33)
_C5_SIZES = (24, 28, 32)


def refute_graphs(rng: random.Random, input_dir: str) -> list[dict]:
    os.makedirs(input_dir, exist_ok=True)
    graphs = [_planted(rng, n, kind) for n in _PLANTED_SIZES for kind in ("2K2", "C4")]
    graphs += [_c5_only(rng, n) for n in _C5_SIZES]
    reqs = []
    for i, adj in enumerate(graphs):
        path = os.path.join(input_dir, f"g{i:03d}.json")
        _write_graph(adj, path)
        fmt = rng.choice(("table", "json"))
        argv = ["split", "--in", path] + (["--format", "json"] if fmt == "json" else [])
        reqs.append(_request(argv, 1, kind="refute", graph=path, format=fmt))
    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "gksplit", "data", "sporadic.json")
    reqs.append(_request(["split", "--group", "M22", "--graph", "solvable"], 1, kind="refute_m22", data=data))
    reqs.append(_request(["witness", "psl11"], 0, kind="psl11"))
    rng.shuffle(reqs)
    return reqs


_PLAN_MAKERS = {
    "altsym-split": altsym_split,
    "altsym-sweep": altsym_sweep,
    "lie-certify": lie_certify,
    "refute-graphs": refute_graphs,
}


def build_plan(workload: str, seed: int, input_dir: str) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return _PLAN_MAKERS[workload](rng, input_dir)
