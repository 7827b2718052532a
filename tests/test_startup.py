"""Start-up: the modules each command loads, the package's names read on
first use, and the --help of every command."""

from __future__ import annotations

import importlib

import pytest

import design_forge
from design_forge import cli
from helpers import run_python

ROUTES = {"blocks", "designs", "params"}

# Runs `python -m design_forge.cli ARGV` and prints, as its last line of
# stderr, the package's modules in sys.modules when the command exits.
PROBE = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('design_forge.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(*sorted(m for m in sys.modules if m.startswith('design_forge.')), file=sys.stderr)\n"
)


def _loaded_routes(args) -> tuple[int, set[str]]:
    """The child's exit code and the routes it had loaded when it exited."""
    proc = run_python(args)
    last = proc.stderr.decode().splitlines()[-1]
    return proc.returncode, {name.split(".")[1] for name in last.split()} & ROUTES


@pytest.mark.parametrize(
    "argv,routes",
    [
        (["--help"], set()),
        (["params", "--m", "3"], {"params"}),
        (["export", "--m", "3", "--k", "3", "--out", "{w}"], {"blocks"}),
        (["verify-bibd", "--m", "3", "--k", "3", "--blocks", "{w}"], {"designs"}),
        (["verify-gdd", "--m", "3", "--k", "3", "--alpha", "1", "--blocks", "{u}", "--groups", "{g}"], {"designs"}),
    ],
    ids=["help", "params", "export", "verify-bibd-blocks", "verify-gdd-blocks-groups"],
)
def test_each_command_loads_only_the_routes_it_runs(tmp_path, capsys, argv, routes):
    # The zero-sum blocks, and the lifted design's blocks and groups for alpha 1.
    files = {name: tmp_path / f"{name}.jsonl" for name in "wug"}
    for name, family, k in (("w", "W", "3"), ("u", "U", "3"), ("g", "U", "2")):
        export = ["export", "--m", "3", "--k", k, "--family", family, "--alpha", "1"]
        assert cli.main([*export, "--out", str(files[name])]) == 0
    capsys.readouterr()
    assert _loaded_routes(["-c", PROBE, *(arg.format(**files) for arg in argv)]) == (0, routes)


@pytest.mark.parametrize(
    "code,routes",
    [
        ("import design_forge", set()),
        ("import design_forge; design_forge.DEFAULT_NODE_BUDGET", set()),
        ("import design_forge; design_forge.verify_bibd", {"designs"}),
        ("from design_forge import parameter_rows", {"params"}),
    ],
    ids=["import", "budget", "verifier", "from-import"],
)
def test_a_route_is_loaded_when_one_of_its_names_is_first_read(code, routes):
    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('design_forge.')), file=sys.stderr)"
    assert _loaded_routes(["-c", code]) == (0, routes)


# Each public name under the module that defines it.
HOMES = {
    "blocks": (
        "Block", "BlockFamily", "family_predicate", "gdd_blocks", "gdd_groups",
        "shift_invariant_blocks", "sum_to_shift_blocks", "sum_to_zero_blocks",
        "zero_sum_blocks", "zero_sum_blocks_containing",
    ),
    "designs": ("DesignReport", "GddReport", "observed_params", "verify_bibd", "verify_gdd"),
    "errors": (
        "ArgumentError", "BudgetExceededError", "ConsistencyError", "ContainmentError",
        "DesignForgeError", "FamilyError", "InvalidShiftError", "PartitionError",
        "RangeError", "ShapeError", "StateError",
    ),
    "field": ("DEFAULT_NODE_BUDGET", "cosets_of", "nonzero_elements"),
    "params": ("closed_form_balance", "parameter_rows", "reference_gdd_balance"),
}


def test_each_public_name_is_the_object_its_module_defines():
    assert sorted(name for names in HOMES.values() for name in names) == sorted(design_forge.__all__)
    for module, names in HOMES.items():
        home = importlib.import_module(f"design_forge.{module}")
        for name in names:
            assert getattr(design_forge, name) is getattr(home, name), name


def test_the_enumerator_reexports_the_parsers_constants():
    from design_forge import blocks, field

    assert blocks.DEFAULT_NODE_BUDGET is field.DEFAULT_NODE_BUDGET
    assert blocks.FAMILY_KINDS is field.FAMILY_KINDS


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from design_forge import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(design_forge.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(design_forge, "no_such_name")
    assert not hasattr(design_forge, "lift_chunks")  # public in blocks, not in the package


COMMANDS = ("enumerate", "export", "verify-bibd", "verify-gdd", "params", "crosscheck")


def _help(argv, capsys) -> str:
    """The --help text of the command, with its line breaks undone."""
    assert cli.main([*argv, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return " ".join(captured.out.split())


@pytest.mark.parametrize("command", COMMANDS)
def test_each_commands_help_exits_0(command, capsys):
    assert _help([command], capsys).startswith(f"usage: design-forge {command} ")


def test_help_lists_every_command(capsys):
    assert "{" + ",".join(COMMANDS) + "}" in _help([], capsys)


def test_help_shows_the_family_choices_and_the_budget_default(capsys):
    for command in ("enumerate", "export"):
        assert "--family {W,Wpair,I,J,L,U}" in _help([command], capsys)
    assert "enumeration node budget (default 100000000)" in _help(["verify-gdd"], capsys)
