"""Run every pinned command-line run that has a time limit, as CI does.

Usage: ``python tests/run_pins.py`` (no options).  Each record of
``pins.PINS`` with a limit runs in a fresh ``python -m gksplit`` against this
checkout's ``src``, from a new temporary directory that holds its inputs,
under the record's limit per run.  Prints one PASS or FAIL line per record
and exits 1 on any FAIL.  Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__":  # pins reads gksplit; a script reads this checkout's
    sys.path.insert(0, str(SRC))

import pins  # noqa: E402


def run(p: pins.Pin) -> list[str]:
    """Why p's runs in fresh interpreters break it; empty when they keep it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        pins.write_inputs(p, directory)
        results = []
        for argv in p.runs:
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "gksplit", *argv],
                    cwd=directory, env=env, capture_output=True, timeout=p.limit,
                )
            except subprocess.TimeoutExpired:
                return [f"{' '.join(argv)}: no exit within {p.limit} s"]
            out = done.stdout + pins.out_file(argv, directory)
            results.append((done.returncode, out, done.stderr.decode(errors="replace")))
        return pins.faults(p, results)


def main(records=None) -> int:
    """Run records (every limited one by default); 1 if any fails, else 0."""
    failed = 0
    for p in records if records is not None else [p for p in pins.PINS if p.limit]:
        start = time.perf_counter()
        reasons = run(p)
        failed += bool(reasons)
        verdict = "FAIL" if reasons else "PASS"
        print(f"{verdict} {p.name} ({time.perf_counter() - start:.2f} s)" + "".join(f"\n  {r}" for r in reasons),
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
