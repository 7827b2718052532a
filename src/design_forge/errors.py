"""Exception types raised across the package.

Every failure mode gets its own class so callers (and the CLI exit-code
mapping) can branch on outcomes without parsing messages.
"""


class DesignForgeError(Exception):
    """Base class for all package errors."""


class InputError(DesignForgeError, ValueError):
    """Refused input, not a fault: the CLI exits 2 for every subclass."""


class InvalidShiftError(InputError):
    """The coset-defining shift must be a nonzero element of the field."""


class RangeError(InputError):
    """An exponent or block size is outside its supported range."""


class ArgumentError(InputError):
    """Arguments violate a documented precondition."""


class BudgetExceededError(DesignForgeError, RuntimeError):
    """Enumeration hit its node budget before finishing.

    Raised instead of truncating output; carries the bound that was hit.
    """

    def __init__(self, what: str, budget: int):
        super().__init__(
            f"{what}: exceeded the enumeration budget of {budget} nodes"
        )
        self.what = what
        self.budget = budget


class FamilyError(InputError):
    """A block does not satisfy the defining predicate of its family."""


class ShapeError(InputError):
    """Blocks or groups do not share a uniform size, or a block repeats a point."""


class ContainmentError(InputError):
    """A block or group uses a point outside the declared point set."""


class PartitionError(InputError):
    """A group is malformed (it repeats a point)."""


class StateError(DesignForgeError, RuntimeError):
    """The operation needs a passing report."""


class ConsistencyError(DesignForgeError, ArithmeticError):
    """An exact-arithmetic identity, or an enumerator's own block, failed.

    The recurrences divide only when divisibility is guaranteed, and the
    enumerators build only members, so this is a bug, never bad input.
    """
