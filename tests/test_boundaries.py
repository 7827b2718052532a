"""Module boundaries read from the source: the runtime imports only the
standard library, every module is reached from the package or the CLI, and
the test oracles import nothing from the package."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "design_forge"
SOURCES = sorted(PACKAGE.glob("*.py"))


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


def _package_imports(path: Path) -> set[str]:
    """Modules of the package that the file imports, relatively or by name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                names.add(node.module.split(".")[0])
            elif node.level:
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("design_forge."):
                names.add(node.module.split(".")[1])
            elif node.module == "design_forge":
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("design_forge.")
            )
    return names


ROUTES = ("blocks", "designs", "params")


@pytest.mark.parametrize("route", ROUTES)
def test_the_three_routes_import_nothing_from_one_another(route):
    path = ROOT / "src" / "design_forge" / f"{route}.py"
    assert _package_imports(path) & set(ROUTES) == set()


def test_route_imports_are_seen():
    # The reader above does see a route importing another.
    assert _package_imports(ROOT / "src" / "design_forge" / "cli.py") >= set(ROUTES)
    assert "blocks" in _package_imports(ROOT / "tests" / "witness.py")


def test_every_module_is_reached_from_the_package_or_the_commands():
    # A module that neither `import design_forge` nor the CLI reaches is
    # code that no route uses; it belongs with the tests, not in the package.
    stems, reached, todo = {p.stem for p in SOURCES}, set(), ["__init__", "cli"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_package_imports(PACKAGE / f"{name}.py") & stems)
    assert stems - reached == set()


def _attribute_reads(path: Path) -> set[str]:
    """Names the file reads as attributes, or passes as a string (getattr)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} | {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_the_verifier_reads_no_lane_format():
    # The lane format belongs to blocks: the verifier reads a family's
    # `points`, never its lanes or their width.
    path = ROOT / "src" / "design_forge" / "designs.py"
    assert _attribute_reads(path) & {"lanes", "lane_size"} == set()
    assert "points" in _attribute_reads(path)


def test_lane_reads_are_seen():
    # The reader above does see the lanes read where they are owned.
    assert {"lanes", "lane_size"} <= _attribute_reads(ROOT / "src" / "design_forge" / "blocks.py")


def _byteswap_callers(path: Path) -> set[str | None]:
    """The top-level function or class around each read of `.byteswap`,
    None for one outside them."""
    return {
        getattr(top, "name", None)
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "byteswap"
    }


def test_bytes_are_swapped_only_where_ints_meet_lanes():
    # Lanes are stored big-endian and column ints are read from them
    # big-endian, so the host's byte order matters only where points
    # become lanes or lanes become points.
    path = ROOT / "src" / "design_forge" / "blocks.py"
    assert _byteswap_callers(path) == {"_pack", "_unpack"}


def _name_sites(path: Path, name: str) -> int:
    """How many times the file names `name`, bare or as an attribute."""
    return sum(
        getattr(node, "id", None) == name or getattr(node, "attr", None) == name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    )


@pytest.mark.parametrize("name", ["verify_bibd", "verify_gdd", "observed_params"])
def test_commands_reach_each_verifier_through_one_call(name):
    # verify-bibd, verify-gdd and crosscheck share one report helper per
    # verifier, and crosscheck reads b, r and lambda through observed_params.
    assert _name_sites(ROOT / "src" / "design_forge" / "cli.py", name) == 1
