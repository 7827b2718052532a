"""Additive structure of binary extension fields, as integer bitmasks.

A field element of GF(2^m) is a plain int in [0, 2^m); addition is bitwise
XOR and every element is its own inverse. Multiplication is never needed
here: everything downstream uses only the additive group, the two-element
subgroups {0, s} it contains, the coset partitions those induce, and the
quotient isomorphism back down to GF(2^(m-1)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentError, InvalidShiftError, RangeError

MIN_EXPONENT = 3
MAX_EXPONENT = 16
# Lifted constructions live one exponent above their base field.
MAX_AMBIENT_EXPONENT = MAX_EXPONENT + 1


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


@dataclass(frozen=True, order=True)
class Coset:
    """The coset {low, low + alpha} of the subgroup {0, alpha}.

    `low` is the smaller member as an unsigned integer, so equality and
    ordering of cosets are equality and ordering of (low, alpha) pairs.
    """

    low: int
    alpha: int

    @property
    def high(self) -> int:
        return self.low ^ self.alpha

    @property
    def members(self) -> tuple[int, int]:
        return (self.low, self.low ^ self.alpha)


def coset_of(x: int, alpha: int) -> Coset:
    """The coset of {0, alpha} containing x."""
    return Coset(min(x, x ^ alpha), alpha)


def cosets_of(alpha: int, m: int) -> list[Coset]:
    """Partition GF(2^m) into the 2^(m-1) cosets of {0, alpha}.

    Returned in ascending order of the smaller member; the subgroup
    {0, alpha} itself is the first entry.
    """
    check_exponent(m, hi=MAX_AMBIENT_EXPONENT)
    check_shift(alpha, m)
    return [Coset(x, alpha) for x in range(1 << m) if x < (x ^ alpha)]


@dataclass(frozen=True)
class CosetOrdering:
    """A total order on the cosets of {0, alpha}, with ranks 1 .. 2^(m-1).

    The constructions that pick a representative out of a block only need
    *some* fixed order; which one is irrelevant to the counting results,
    so the ordering is a value that can be swapped out in tests.
    """

    alpha: int
    m: int
    ranks: dict[int, int]  # coset low -> rank

    def rank(self, x: int) -> int:
        """Rank of the coset containing element x."""
        return self.ranks[min(x, x ^ self.alpha)]

    def reversed(self) -> "CosetOrdering":
        """The same cosets ranked in the opposite order."""
        top = (1 << (self.m - 1)) + 1
        return CosetOrdering(
            self.alpha, self.m, {low: top - r for low, r in self.ranks.items()}
        )


def natural_ordering(alpha: int, m: int) -> CosetOrdering:
    """Rank cosets 1, 2, ... by ascending smaller member. Deterministic."""
    cs = cosets_of(alpha, m)
    return CosetOrdering(alpha, m, {c.low: i + 1 for i, c in enumerate(cs)})


class QuotientIso:
    """Additive isomorphism from GF(2^exp) / {0, alpha} onto GF(2^(exp-1)).

    Built by extending {alpha} to a GF(2) basis of GF(2^exp) (greedy, by
    ascending bitmask) and dropping the alpha coordinate. x and x + alpha
    differ exactly in that coordinate, so the map is constant on cosets;
    it is additive and onto because coordinates are.

    Calling the instance with any element returns the image of that
    element's coset, an element of GF(2^(exp-1)). `section[y]` is the
    preimage of y whose alpha coordinate is 0; the section is additive too,
    so it carries a zero-sum set of GF(2^(exp-1)) to a zero-sum set.
    """

    def __init__(self, alpha: int, exp: int):
        check_exponent(exp, lo=MIN_EXPONENT + 1, hi=MAX_AMBIENT_EXPONENT)
        check_shift(alpha, exp)
        self.alpha = alpha
        self.exp = exp
        size = 1 << exp

        basis = [alpha]
        span = {0, alpha}
        for cand in range(1, size):
            if len(basis) == exp:
                break
            if cand in span:
                continue
            basis.append(cand)
            span.update(cand ^ s for s in list(span))

        # coords[x] has bit i set iff basis[i] appears in the expansion of x.
        coords = [0] * size
        for c in range(size):
            x = 0
            rem = c
            pos = 0
            while rem:
                if rem & 1:
                    x ^= basis[pos]
                rem >>= 1
                pos += 1
            coords[x] = c
        self._coords = coords
        # Elements in coordinate order; the even positions have alpha coordinate 0.
        self.section = tuple(sorted(range(size), key=coords.__getitem__)[0::2])

    def __call__(self, x: int) -> int:
        if not 0 <= x < (1 << self.exp):
            raise ArgumentError(f"{x} is not an element of GF(2^{self.exp})")
        return self._coords[x] >> 1
