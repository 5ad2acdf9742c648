"""Time the CLI commands of the ROADMAP Baseline table that the workloads do
not cover at the same size.

    python3 perfbench/baseline_rows.py

Each command runs as its own ``python3 -m gksplit.cli`` process from the
checkout root, so a figure includes interpreter start-up, as the Baseline
table's do.  Prints the median wall time of REPEAT runs per command.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REPEAT = 3

ROWS = (
    ("split", "--group", "Alt(60)"),
    ("split", "--group", "Alt(80)"),
    ("verify", "theorem-a", "--max-n", "700"),
    ("verify", "theorem-d", "--group", "A60(4)"),
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    print(f"# python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} repeat={REPEAT}")
    for row in ROWS:
        times = []
        for _ in range(REPEAT):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "gksplit.cli", *row],
                cwd=ROOT, env=env, capture_output=True, timeout=600,
            )
            times.append(perf_counter() - t0)
            if proc.returncode != 0:
                print(f"error: {' '.join(row)} exited {proc.returncode}", file=sys.stderr)
                return 1
        print(f"{' '.join(row):40s} median {statistics.median(times):7.2f} s  runs {' '.join(f'{t:.2f}' for t in times)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
