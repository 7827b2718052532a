"""Module boundaries read from the source: the runtime imports only the
standard library, and the test oracles import nothing from the package."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "design_forge").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """Dotted names of every absolute import in the file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "params.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    outside = [
        name
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_oracles_do_not_import_the_package():
    names = _absolute_imports(ROOT / "tests" / "helpers.py")
    assert [n for n in names if n.split(".")[0] == "design_forge"] == []
