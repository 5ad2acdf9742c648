"""The names that the benchmark under ``perfbench/`` binds to in ``gksplit``.

The tracer wraps each function of its ``TARGETS`` table where it is defined,
and the worker reads the class cache's counters after every run.  A rename
of any of them passes every other test and fails every benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gksplit import gkbuild

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module, path, stem", tracer.TARGETS, ids=[stem for _, _, stem in tracer.TARGETS])
def test_every_traced_function_resolves(module, path, stem):
    home = importlib.import_module(f"gksplit.{module}")
    if "." in path:  # the tracer replaces a method in its class's own namespace
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(home, cls_name)).get(attr)), stem
    else:
        assert callable(getattr(home, path)), stem


def test_every_traced_module_exists():
    for module in tracer.MODULES:
        importlib.import_module(f"gksplit.{module}")


def test_the_class_cache_counts_hits_and_misses():
    info = gkbuild._class_members.cache_info()
    assert info.hits >= 0 and info.misses >= 0
