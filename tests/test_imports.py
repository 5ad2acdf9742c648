"""The package runs on the standard library alone: every absolute import in
``src/gksplit`` names a standard-library module (or the package itself), as
``sys.stdlib_module_names`` lists them (Python 3.10 and later)."""

import ast
import sys
from pathlib import Path

import pytest

import gksplit

SOURCES = sorted(Path(gksplit.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_every_absolute_import_is_the_standard_library(source):
    modules = set()
    for node in ast.walk(ast.parse(source.read_text(), str(source))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    outside = sorted(m for m in modules if m.split(".")[0] not in sys.stdlib_module_names | {"gksplit"})
    assert not outside, outside
