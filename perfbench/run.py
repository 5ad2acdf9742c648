"""Seeded end-to-end benchmark of the gksplit command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The caller is a single closed loop: one request is sent to
``gksplit.cli.main`` after the previous one returned, in-process, with stdout
captured.  A *pass* sends the workload's seeded request list once, in a fresh
interpreter (so the data tables and the ppd cache start cold, as for a CLI
user).  Each workload runs a fixed number of passes, one at a time, so that
every commit takes its figures from the same number of samples; a pass is
left out only if it would end after ``--seconds``, and the report says how
many ran.  Every time in the result line is scaled to a reference host
speed (see ``reference_speed``); the measured figures are printed as well.
``wall_s`` and ``cpu_s`` sum each request's fastest time over the passes,
and the latency metrics are the median and the tail over every request
sample.  Set-up time is the median of several fresh interpreters importing
the package.

``--trace 1`` runs untraced and traced passes in turn instead (half as many
pairs as the workload has passes, at least one) and reports the per-layer
metrics of the traced passes, after checking that every request's
stdout bytes and exit code are the same with and without tracing and that
every function the workload must reach was reached.

Every answer is checked by code in ``checks.py``; a wrong answer makes the
result ``"correct": false`` and the exit status 1.  A request that ends with
exit code 2 or 3 gave no answer: it counts in ``failed`` and ``fail_share``
but is not wrong.  The last line of stdout is the result as one JSON
object.  Per-run details (interpreter, core count,
seed, per-pass figures) are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import COUNTERS, MODULES, TARGETS  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402

SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
#: A run must end within 180 s whatever --seconds asks for.
MAX_RUN_S = 150
TAIL_BEYOND = 10
#: The worker's calibration loop takes this long on the reference host (a
#: 2-core x86-64 VM under Python 3.11.7, the fastest tenth of its
#: readings); times in the result line are scaled to that speed.
REF_CALIB_S = 0.0017
#: Loops timed within this many seconds of a request count toward its speed.
SPEED_WINDOW_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for _, _, stem in TARGETS:
        units[f"{stem}.calls"] = "count"
        units[f"{stem}.total_s"] = "s"
        units[f"{stem}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["gkbuild.ppd_cache.hits"] = "count"
    units["gkbuild.ppd_cache.misses"] = "count"
    units["gkbuild.ppd_cache.hit_ratio"] = "ratio"
    units["gkbuild.unfactored_class_share"] = "ratio"
    units["cli.output_bytes"] = "bytes"
    units["cli.fail_share"] = "ratio"
    for module in MODULES:
        units[f"{module}.self_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion in a fresh interpreter and load its result."""
    result_path = args[1]
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - perf_counter()))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail_point(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the sample with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def pass_figures(res: dict) -> dict:
    lat = [r["latency_s"] for r in res["requests"]]
    return {
        "setup_s": res["setup_s"],
        "wall_s": sum(lat),
        "cpu_s": sum(r["cpu_s"] for r in res["requests"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "output_bytes": sum(r["bytes"] for r in res["requests"]),
    }


def reference_speed(passes: list[dict]) -> list[list[tuple[float, float]]]:
    """Per pass and request, (latency, CPU time) scaled to the reference speed.

    The host's speed changes from second to second and, for minutes at a
    time, by half or more while other tenants run.  The worker times a fixed
    calibration loop before every request, every quarter second during it
    and after the last one.  The host's speed during a request is the median
    of the loops timed during it and within SPEED_WINDOW_S on either side,
    and the request's time is scaled by REF_CALIB_S over that median: what
    it would have taken with the host at the reference speed.  The package's
    code never runs in the loop, so a change to the package moves the scaled
    time as it moves the measured one.
    """
    out = []
    for p in passes:
        loops = p["speed_loops"]
        row = []
        for r in p["requests"]:
            lo, hi = r["start_s"] - SPEED_WINDOW_S, r["start_s"] + r["latency_s"] + SPEED_WINDOW_S
            scale = REF_CALIB_S / statistics.median(d for t, d in loops if lo <= t <= hi)
            row.append((r["latency_s"] * scale, r["cpu_s"] * scale))
        out.append(row)
    return out


def request_metrics(passes: list[dict]) -> dict:
    """End-to-end figures at the reference speed, and as measured.

    ``wall_s``/``cpu_s`` sum each request's fastest time over the passes: the
    fastest of identical samples moves least with the host.  The latency
    figures are the median and the tail of every request sample of every
    pass.
    """

    def figures(samples: list[list[tuple[float, float]]]) -> dict:
        lat = [min(col) for col in zip(*([w for w, _ in p] for p in samples))]
        cpu = [min(col) for col in zip(*([c for _, c in p] for p in samples))]
        pooled = [w for p in samples for w, _ in p]
        tail, _ = tail_point(pooled)
        return {
            "wall_s": sum(lat),
            "cpu_s": sum(cpu),
            "req_p50_ms": statistics.median(pooled) * 1000.0,
            "req_tail_ms": tail * 1000.0,
        }

    measured = [[(r["latency_s"], r["cpu_s"]) for r in p["requests"]] for p in passes]
    samples = len(passes) * len(passes[0]["requests"])
    return {
        **figures(reference_speed(passes)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "tail_percentile": tail_point([0.0] * samples)[1],
        "samples": samples,
        "measured": figures(measured),
    }


def setup_metrics(results: list[dict]) -> tuple[float, float]:
    """Median set-up time at the reference speed and as measured."""
    scaled = [r["setup_s"] * REF_CALIB_S / r["setup_calib_s"] for r in results]
    return statistics.median(scaled), statistics.median(r["setup_s"] for r in results)


def answer_counts(passes: list[dict]) -> dict:
    attempted = failed = wrong = classes = bare = 0
    problems = []
    for res in passes:
        for rid, r in enumerate(res["requests"]):
            attempted += 1
            classes += r.get("classes", 0)
            bare += r.get("bare_classes", 0)
            if "error" not in r:
                continue
            if r["rc"] in (2, 3, None):
                failed += 1
            else:
                wrong += 1
            problems.append(f"request {rid}: {r['error']}")
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "fail_share": failed / attempted if attempted else 0.0,
        "unfactored_class_share": bare / classes if classes else 0.0,
        "problems": problems,
    }


def layer_metrics(traced: dict, figures: dict) -> dict:
    trace = traced["trace"]
    out = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for stem, stats in trace["functions"].items():
        out[f"{stem}.calls"] = stats["calls"]
        out[f"{stem}.total_s"] = stats["total_s"]
        out[f"{stem}.self_s"] = stats["self_s"]
        module_self[stem.split(".")[0]] += stats["self_s"]
    out.update(trace["counters"])
    hits, misses = traced["ppd_cache"]["hits"], traced["ppd_cache"]["misses"]
    out["gkbuild.ppd_cache.hits"] = hits
    out["gkbuild.ppd_cache.misses"] = misses
    out["gkbuild.ppd_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cli.output_bytes"] = figures["output_bytes"]
    for module, self_s in module_self.items():
        out[f"{module}.self_share"] = self_s / figures["wall_s"]
    out["trace.spans"] = trace["spans"]
    return out


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    started = perf_counter()
    deadline = started + 170.0
    seconds = min(seconds, MAX_RUN_S)
    plan_path = os.path.join(work_dir, "plan.json")
    requests = build_plan(workload, seed, os.path.join(work_dir, "inputs"))
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "requests": requests}, fh)

    checked = os.path.join(work_dir, "pass0.json")

    def one_pass(tag: str, traced: bool) -> dict:
        """Only the run's first pass checks every answer; later passes compare
        exit codes and stdout digests against it."""
        result = os.path.join(work_dir, f"{tag}.json")
        args = [plan_path, result]
        if os.path.exists(checked):
            args += ["--reference", checked]
        if traced:
            args += ["--trace", os.path.join(work_dir, f"{tag}.spans")]
        return run_worker(args, deadline)

    def fits(done: list[dict], took: float) -> bool:
        """Whether another pass, as long as the last one without its output
        checks, ends within --seconds."""
        return not done or perf_counter() - started + took - done[-1]["check_s"] <= seconds

    wanted = WORKLOADS[workload]["passes"]
    if trace:
        wanted = max(1, wanted // 2)
    report = {"requests_per_pass": len(requests), "passes_planned": wanted}
    took = 0.0
    if not trace:
        setups = [
            run_worker([plan_path, os.path.join(work_dir, f"setup{i}.json"), "--setup-only"], deadline)
            for i in range(SETUP_PROBES)
        ]
        passes = []
        while len(passes) < wanted and fits(passes, took):
            t0 = perf_counter()
            passes.append(one_pass(f"pass{len(passes)}", False))
            took = perf_counter() - t0
        figures = [pass_figures(p) for p in passes]
        setups += passes
        metrics = request_metrics(passes)
        metrics["setup_s"], metrics["measured"]["setup_s"] = setup_metrics(setups)
        report.update(passes=figures, setup_samples=len(setups))
        counted = passes
    else:
        plain, traced = [], []
        while len(plain) < wanted and fits(plain, took):
            t0 = perf_counter()
            plain.append(one_pass(f"pass{len(plain)}", False))
            traced.append(one_pass(f"traced{len(traced)}", True))
            took = perf_counter() - t0
        plain_fig = [pass_figures(p) for p in plain]
        traced_fig = [pass_figures(p) for p in traced]
        mismatched = [
            rid
            for p, t in zip(plain, traced)
            for rid, (a, b) in enumerate(zip(p["requests"], t["requests"]))
            if (a["rc"], a["digest"]) != (b["rc"], b["digest"])
        ]
        if mismatched:
            raise BenchError(f"stdout or exit code changed under tracing for requests {sorted(set(mismatched))}")
        layers = [layer_metrics(t, f) for t, f in zip(traced, traced_fig)]
        metrics = {name: median_of(layers, name) for name in layers[0]}
        plain_answers = answer_counts(plain)
        metrics["gkbuild.unfactored_class_share"] = plain_answers["unfactored_class_share"]
        metrics["cli.fail_share"] = plain_answers["fail_share"]
        metrics["trace.overhead_s"] = request_metrics(traced)["wall_s"] - request_metrics(plain)["wall_s"]
        missed = [f for f in WORKLOADS[workload]["expect"] if metrics[f"{f}.calls"] == 0]
        if missed:
            raise BenchError(f"traced functions recorded no calls (binding site missed?): {missed}")
        report.update(untraced_passes=plain_fig, traced_passes=traced_fig)
        counted = plain + traced
    report["answers"] = answer_counts(counted)
    report["metrics"] = metrics
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gksplit", "cli.py")):
        print(f"error: no gksplit source under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    work_dir = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(work_dir, "inputs"), ignore_errors=True)

    spec = WORKLOADS[args.workload]
    answers = report["answers"]
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": report["metrics"][name], "unit": unit} for name, unit in units.items()}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": spec, **report}, fh, indent=1)

    print(f"# {args.workload}: {spec['why']}")
    print(f"# stresses {spec['stresses']}; bypasses {spec['bypasses']}")
    print(f"# predicts: {spec['predicts']}")
    print("# " + ", ".join(f"{k}={v}" for k, v in env.items()))
    passes = report.get("passes") or report["traced_passes"]
    print(f"# {len(passes)} of {report['passes_planned']} planned {'traced ' if args.trace else ''}"
          f"pass(es) of {report['requests_per_pass']} requests")
    if not args.trace:
        m = report["metrics"]
        print(f"# times below are at the reference speed (calibration loop {REF_CALIB_S * 1000:g} ms); "
              f"req_tail_ms is p{m['tail_percentile']:.1f} of {m['samples']} request samples "
              f"({TAIL_BEYOND} beyond it); setup_s is the median of {report['setup_samples']} fresh interpreters")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in report["metrics"]["measured"].items():
            print(f"{'measured ' + name:48s} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{'fail_share':48s} {answers['fail_share']:.6g} ratio ({answers['failed']} of {answers['attempted']})")
    print(f"{'unfactored_class_share':48s} {answers['unfactored_class_share']:.6g} ratio")
    for line in answers["problems"][:20]:
        print(f"# WRONG {line}")
    correct = answers["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": answers["attempted"],
        "failed": answers["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
