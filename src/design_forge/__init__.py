"""Pair-balanced block designs from zero-XOR-sum subsets of binary fields.

Two constructions and the machinery to check them:

  * the designs (GF(2^m)*, zero-sum k-subsets), whose pair coverage is
    constant, and
  * their lifted, grouped counterparts in GF(2^(m+1)), where the groups
    are the pairs {x, x + alpha} and the blocks XOR to alpha while
    avoiding their own shift.

Enumeration (`blocks`), verification by exhaustive pair sweep (`designs`),
and exact integer recurrences for every parameter (`params`) are kept
independent so each can cross-examine the others; `cli` ties them into a
command-line tool with a one-shot crosscheck.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it. A module is imported
# when one of its names is first read (see `__getattr__`), so importing
# the package loads no route that the caller does not use.
_HOMES = {
    "ArgumentError": "errors",
    "Block": "blocks",
    "BlockFamily": "blocks",
    "BudgetExceededError": "errors",
    "ConsistencyError": "errors",
    "ContainmentError": "errors",
    "DEFAULT_NODE_BUDGET": "field",
    "DesignForgeError": "errors",
    "DesignReport": "designs",
    "FamilyError": "errors",
    "GddReport": "designs",
    "InvalidShiftError": "errors",
    "PartitionError": "errors",
    "RangeError": "errors",
    "ShapeError": "errors",
    "StateError": "errors",
    "closed_form_balance": "params",
    "cosets_of": "field",
    "family_predicate": "blocks",
    "gdd_blocks": "blocks",
    "gdd_groups": "blocks",
    "nonzero_elements": "field",
    "observed_params": "designs",
    "parameter_rows": "params",
    "reference_gdd_balance": "params",
    "shift_invariant_blocks": "blocks",
    "sum_to_shift_blocks": "blocks",
    "sum_to_zero_blocks": "blocks",
    "verify_bibd": "designs",
    "verify_gdd": "designs",
    "zero_sum_blocks": "blocks",
    "zero_sum_blocks_containing": "blocks",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    """A public name, read from its module on first use and kept here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value
