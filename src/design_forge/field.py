"""Additive structure of binary extension fields, as integer bitmasks.

A field element of GF(2^m) is a plain int in [0, 2^m); addition is bitwise
XOR and every element is its own inverse. Multiplication is never needed
here: everything downstream uses only the additive group, the two-element
subgroups {0, s} it contains, the coset partitions those induce, and an
additive choice of one point per coset that lifts GF(2^(m-1)) back up.
"""

from __future__ import annotations

from .errors import InvalidShiftError, RangeError

MIN_EXPONENT = 3
MAX_EXPONENT = 16
# Lifted constructions live one exponent above their base field.
MAX_AMBIENT_EXPONENT = MAX_EXPONENT + 1
# The enumerators' default node budget and their families, beside the limits so
# that the CLI's parser shows them without loading `blocks`, which re-exports both.
DEFAULT_NODE_BUDGET = 100_000_000
FAMILY_KINDS = ("W", "Wpair", "I", "J", "L", "U")


def check_exponent(m: int, lo: int = MIN_EXPONENT, hi: int = MAX_EXPONENT) -> None:
    if not isinstance(m, int) or not lo <= m <= hi:
        raise RangeError(f"field exponent must be an int in {lo}..{hi}, got {m!r}")


def check_shift(alpha: int, m: int) -> None:
    if not isinstance(alpha, int) or not 0 < alpha < (1 << m):
        raise InvalidShiftError(
            f"shift must be a nonzero element of GF(2^{m}), got {alpha!r}"
        )


def nonzero_elements(m: int) -> range:
    """The 2^m - 1 nonzero elements of GF(2^m), ascending."""
    return range(1, 1 << m)


def cosets_of(alpha: int, m: int) -> list[tuple[int, int]]:
    """Partition GF(2^m) into the 2^(m-1) cosets {low, low + alpha} of {0, alpha}.

    Each coset is the pair (low, low ^ alpha) with low the smaller member,
    in ascending order of low; the subgroup (0, alpha) itself is the first
    entry.
    """
    check_exponent(m, hi=MAX_AMBIENT_EXPONENT)
    check_shift(alpha, m)
    return [(x, x ^ alpha) for x in range(1 << m) if x < (x ^ alpha)]


def section(alpha: int, exp: int) -> tuple[int, ...]:
    """An additive section of GF(2^exp) -> GF(2^exp) / {0, alpha}, as a table.

    Entry y, for y in GF(2^(exp-1)), is y with a zero bit inserted at the
    top set bit h of alpha. The elements with bit h clear are a complement
    of {0, alpha} (alpha has bit h set), so the table meets each coset
    exactly once, and inserting a bit is linear, so the table is additive:
    it carries a zero-sum set of GF(2^(exp-1)) to a zero-sum set.
    """
    check_exponent(exp, lo=MIN_EXPONENT + 1, hi=MAX_AMBIENT_EXPONENT)
    check_shift(alpha, exp)
    h = alpha.bit_length() - 1
    low = (1 << h) - 1
    return tuple((y & ~low) << 1 | y & low for y in range(1 << (exp - 1)))
