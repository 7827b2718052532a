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

from .blocks import (
    DEFAULT_NODE_BUDGET,
    Block,
    BlockFamily,
    family_predicate,
    gdd_blocks,
    gdd_groups,
    shift_invariant_blocks,
    sum_to_shift_blocks,
    sum_to_zero_blocks,
    zero_sum_blocks,
    zero_sum_blocks_containing,
)
from .designs import DesignReport, GddReport, observed_params, verify_bibd, verify_gdd
from .errors import (
    ArgumentError,
    BudgetExceededError,
    ConsistencyError,
    ContainmentError,
    DesignForgeError,
    FamilyError,
    InvalidShiftError,
    PartitionError,
    RangeError,
    ShapeError,
    StateError,
)
from .field import cosets_of, nonzero_elements
from .params import (
    closed_form_balance,
    hamming_weight_counts,
    parameter_rows,
    reference_gdd_balance,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "Block",
    "BlockFamily",
    "BudgetExceededError",
    "ConsistencyError",
    "ContainmentError",
    "DEFAULT_NODE_BUDGET",
    "DesignForgeError",
    "DesignReport",
    "FamilyError",
    "GddReport",
    "InvalidShiftError",
    "PartitionError",
    "RangeError",
    "ShapeError",
    "StateError",
    "closed_form_balance",
    "cosets_of",
    "family_predicate",
    "gdd_blocks",
    "gdd_groups",
    "hamming_weight_counts",
    "nonzero_elements",
    "observed_params",
    "parameter_rows",
    "reference_gdd_balance",
    "shift_invariant_blocks",
    "sum_to_shift_blocks",
    "sum_to_zero_blocks",
    "verify_bibd",
    "verify_gdd",
    "zero_sum_blocks",
    "zero_sum_blocks_containing",
]
