"""One measured pass in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json RESULT.json
        [--setup-only] [--reference RESULT0.json] [--trace SPANS]

Times the set-up (importing ``gksplit.cli`` and loading the embedded tables),
then sends the plan's requests one after another to ``gksplit.cli.main`` with
stdout and stderr captured, and checks each answer right after it returns,
outside the timed span.  With ``--reference`` an answer whose exit code and
stdout digest equal those of an already checked pass is accepted as is, and
any other answer is reported as wrong: the CLI's output is deterministic.
With ``--trace`` the package's public functions are wrapped first and the
spans are written to SPANS.  A calibration loop (``calibrate``) is timed
around the set-up, before every request, during every request (see
``SpeedSampler``) and after the last one, so that run.py can tell the host's
speed at each moment.  The result is one JSON document; run.py starts
this script and aggregates its results.

Only ``os``, ``sys`` and ``time`` are imported before the set-up is timed, so
that nothing the package needs is loaded in advance.
"""

import os
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))


def timed_setup() -> float:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    t0 = perf_counter()
    from gksplit import cli, exceptional, groups  # noqa: F401

    groups.sporadic_table()
    exceptional.diagram_families()
    return perf_counter() - t0


def calibrate() -> float:
    """Time a fixed piece of pure-Python work, half interpreted integer,
    dict and set operations, half products of 600-bit integers (the
    package's factoring is mostly the latter, its graph code the former).
    It uses builtins only and creates two small containers, so it costs the
    same whatever the package has loaded; its time measures how fast the
    host runs Python at that moment."""
    t0 = perf_counter()
    acc, table, seen = 0, {}, set()
    for i in range(4500):
        acc += i * i % 7
        table[i] = acc
        seen.add(acc % 97)
    x, m = 3**200, 2**607 - 1
    for _ in range(750):
        x = x * x % m
    return perf_counter() - t0


class SpeedSampler:
    """Times ``calibrate`` between requests and, from a SIGALRM timer every
    SAMPLE_EVERY_S, during them, so that a long request has speed samples of
    its own.  The time spent in the handler is counted in ``stolen`` so the
    caller can take it out of the request's time."""

    SAMPLE_EVERY_S = 0.25

    def __init__(self):
        self.loops = []  # (start time, duration) of every timed loop
        self.stolen = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        self.loops.append((t0, calibrate()))
        self.stolen += perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        import signal

        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)


def _adjacency(path: str) -> dict:
    import json

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    adj = {v: set() for v in doc["vertices"]}
    for u, v in doc["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def run_check(spec: dict, out: str) -> tuple:
    """(reason or None, extra counts) for one answer."""
    import checks

    kind = spec["kind"]
    if kind == "split_altsym":
        return checks.check_split_altsym(out, spec["group"], spec["n"], spec["format"]), {}
    if kind == "theorem_a":
        return checks.check_theorem_a(out, spec["top"]), {}
    if kind == "export":
        return checks.check_graph_export(out, spec["verb"], spec["group"], spec["n"], spec["format"]), {}
    if kind == "theorem_d":
        reason, classes, bare = checks.check_theorem_d(out, spec["descriptor"], spec.get("base"))
        return reason, {"classes": classes, "bare_classes": bare}
    if kind == "all_pass":
        return checks.check_all_pass(out), {}
    if kind == "zsigmondy":
        return checks.check_zsigmondy(out, spec["top"]), {}
    if kind == "prop71":
        return checks.check_prop71(out, spec["n"], spec["p"], spec["a"]), {}
    if kind == "prop73":
        return checks.check_prop73(out, spec["n"], spec["p"]), {}
    if kind == "psl11":
        return checks.check_psl11(out), {}
    if kind == "refute":
        return checks.check_refutation(out, spec["format"], _adjacency(spec["graph"])), {}
    if kind == "refute_m22":
        return checks.check_refutation(out, "table", checks.m22_solvable_adjacency(spec["data"])), {}
    raise ValueError(f"unknown check {kind!r}")


def main(argv: list) -> int:
    plan_path, result_path = argv[0], argv[1]
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    ref_path = argv[argv.index("--reference") + 1] if "--reference" in argv else None
    calibrate()  # the loop's first run in a fresh interpreter is slower
    before = calibrate()
    setup_s = timed_setup()
    setup_calib_s = (before + calibrate()) / 2

    import contextlib
    import hashlib
    import io
    import json
    import resource
    import traceback

    from gksplit import cli, gkbuild

    sys.path.insert(0, HERE)
    result = {"setup_s": setup_s, "setup_calib_s": setup_calib_s}
    if "--setup-only" in argv:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    reference = None
    if ref_path:
        with open(ref_path, encoding="utf-8") as fh:
            reference = [(r["rc"], r["digest"]) for r in json.load(fh)["requests"]]
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    requests = []
    check_s = 0.0
    sampler = SpeedSampler()
    for rid, req in enumerate(plan["requests"]):
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request_id = rid
        sampler.sample()
        c0, w0 = process_time(), perf_counter()
        try:
            with sampler, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(req["argv"])
        except SystemExit as exc:  # argparse rejects an argv with exit 2
            rc = exc.code
        except Exception:  # a traceback is an answer nobody asked for
            rc = None
            stderr.write(traceback.format_exc())
        w1, c1 = perf_counter(), process_time()
        w1 -= sampler.stolen
        c1 -= sampler.stolen
        out = stdout.getvalue()
        data = out.encode()
        rec = {
            "start_s": w0,
            "latency_s": w1 - w0,
            "cpu_s": c1 - c0,
            "rc": rc,
            "bytes": len(data),
            "digest": hashlib.sha256(data).hexdigest(),
        }
        if rc != req["expect_rc"]:
            rec["error"] = f"exit code {rc}, expected {req['expect_rc']}: {stderr.getvalue()[-300:]}"
        elif reference is not None:
            if (rc, rec["digest"]) != reference[rid]:
                rec["error"] = "stdout differs from the checked pass"
        else:
            t0 = perf_counter()
            try:
                reason, extra = run_check(req["check"], out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason, extra = f"unparsable output: {exc!r}", {}
            check_s += perf_counter() - t0
            rec.update(extra)
            if reason is not None:
                rec["error"] = reason
        requests.append(rec)

    result["requests"] = requests
    sampler.sample()
    result["speed_loops"] = sampler.loops
    result["check_s"] = check_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = gkbuild._class_members.cache_info()
    result["ppd_cache"] = {"hits": info.hits, "misses": info.misses}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
