"""Every script under demos/ runs in a fresh interpreter, exits 0 and prints
the same bytes: the demos call the library API, so a changed signature shows
here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gksplit

DEMOS = Path(__file__).resolve().parent.parent / "demos"

#: sha256 of each demo's stdout
DEMO_STDOUT = {
    "certificates_tour": "d383d567fd5c4a5d85cebfbee32eb8b0feb2f7958ab1adeb1c3972764d13b15a",
    "compact_forms": "40bc3a4d9f865aed954c0acbe5f556d83a6e2e997d1db4410b084ccf653c1eae",
    "split_recognition": "96abd5cd6e20b7e7405d8c364db410c6c3e34e7068c68d93533a1413f39f8bf3",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT))
def test_demo_runs_and_prints_its_pinned_bytes(name):
    src = str(Path(gksplit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")], env=env, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT[name]
