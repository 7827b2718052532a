"""Witnesses of the paper's counting proofs, outside the production routes.

The bijections between block families (point replacement through a coset
representative, and a shift of that representative), the coset orderings
and quotient map they use, and the single-formula balance step. The tests
check them against enumeration; no command imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .blocks import Block, family_predicate
from .errors import (
    ArgumentError,
    FamilyError,
    MapViolationError,
    NoRepresentativeError,
    RangeError,
)
from .field import (
    MAX_AMBIENT_EXPONENT,
    MIN_EXPONENT,
    check_exponent,
    check_shift,
    cosets_of,
)
from .params import _exact_div

# cos(k * pi / 2) as an exact integer, looked up by k mod 4. This is the
# only place the "single formula" forms need a sign; no floating point.
_COS_QUARTER = {0: 1, 1: 0, 2: -1, 3: 0}


def as_block(elements) -> Block:
    """Canonical block form: strictly increasing tuple. Rejects duplicates."""
    b = tuple(sorted(elements))
    for a, c in zip(b, b[1:]):
        if a == c:
            raise FamilyError(f"duplicate element {a} in block")
    return b


def coset_of(x: int, alpha: int) -> tuple[int, int]:
    """The coset of {0, alpha} containing x, as `field.cosets_of` lists it."""
    low = min(x, x ^ alpha)
    return (low, low ^ alpha)


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
    return CosetOrdering(alpha, m, {low: i + 1 for i, (low, _) in enumerate(cs)})


def quotient(x: int, alpha: int, exp: int) -> int:
    """Image of x's coset under GF(2^exp) / {0, alpha} -> GF(2^(exp-1)).

    With h the top set bit of alpha: shift x by alpha if its bit h is set,
    then drop bit h. `field.section(alpha, exp)` is a right inverse; with
    alpha = 1 the map is x >> 1.
    """
    check_exponent(exp, lo=MIN_EXPONENT + 1, hi=MAX_AMBIENT_EXPONENT)
    check_shift(alpha, exp)
    if not 0 <= x < (1 << exp):
        raise ArgumentError(f"{x} is not an element of GF(2^{exp})")
    h = alpha.bit_length() - 1
    if x >> h & 1:
        x ^= alpha
    low = (1 << h) - 1
    return (x >> 1) & ~low | x & low


def representative(block: Block, alpha: int, ordering: CosetOrdering) -> int:
    """The element of block \\ (block + alpha) whose coset ranks highest.

    Unique whenever it exists, because survivors occupy distinct cosets.
    A block that equals its own shift has no survivors and raises
    NoRepresentativeError.
    """
    if ordering.alpha != alpha:
        raise ArgumentError(
            f"ordering is for shift {ordering.alpha}, not {alpha}"
        )
    bs = set(block)
    survivors = [x for x in block if (x ^ alpha) not in bs]
    if not survivors:
        raise NoRepresentativeError(
            f"block {block} equals its own shift by {alpha}"
        )
    return max(survivors, key=ordering.rank)


def replace_point_map(
    block: Block, i: int, j: int, ell: int, ordering: CosetOrdering
) -> Block:
    """Map a zero-sum block containing i and j to one containing i and ell.

    With alpha = j ^ ell: if ell is already in the block, the block is its
    own image. Otherwise j and the representative beta of
    block \\ {i, j, alpha} are removed, and ell and beta + alpha inserted,
    which preserves the zero XOR-sum. The image is re-checked against the
    target family: when beta + alpha collides with an element already
    present (it can land exactly on i), the image degenerates and a
    MapViolationError carrying the offending block is raised instead of
    returning a wrong answer. The size identity between the two families
    holds regardless and can always be confirmed by direct enumeration.

    There is no separate inverse: it is this map with j and ell exchanged,
    which keeps alpha and the ordering and brings the representative back.
    A block with a repeated point raises FamilyError.
    """
    block = as_block(block)
    size = 1 << ordering.m
    if len({i, j, ell}) != 3 or not all(0 < x < size for x in (i, j, ell)):
        raise ArgumentError(
            f"need three distinct nonzero elements below {size}, got {i}, {j}, {ell}"
        )
    alpha = j ^ ell
    if ordering.alpha != alpha:
        raise ArgumentError(
            f"ordering must be for shift {alpha}, not {ordering.alpha}"
        )
    k = len(block)
    if not family_predicate("Wpair", ordering.m, k, pair=(i, j))(block):
        raise FamilyError(
            f"block {block} is not a zero-sum block containing {i} and {j}"
        )
    bs = set(block)
    if ell in bs:
        return block
    core = as_block(bs - {i, j, alpha})
    beta = representative(core, alpha, ordering)
    image = tuple(sorted((bs - {j, beta}) | {ell, beta ^ alpha}))
    if not family_predicate("Wpair", ordering.m, k, pair=(i, ell))(image):
        raise MapViolationError(
            block, image, f"image left the zero-sum family through {i} and {ell}"
        )
    return image


def shift_representative(
    block: Block, alpha: int, k: int, ordering: CosetOrdering
) -> Block:
    """Move the representative across its coset: drop beta, insert beta + alpha.

    Sends a k-subset avoiding {0, alpha} with XOR-sum alpha to one with
    XOR-sum zero over the same ground set. Blocks fixed by the shift have
    no representative and raise NoRepresentativeError; everything else maps
    injectively, which is what the counting identities rest on. A block
    with a repeated point raises FamilyError.
    """
    block = as_block(block)
    if len(block) != k:
        raise ArgumentError(f"expected a block of size {k}, got {len(block)}")
    if not family_predicate("I", ordering.m, k, alpha=alpha)(block):
        raise FamilyError(
            f"block {block} does not avoid {{0, {alpha}}} and XOR to {alpha}"
        )
    beta = representative(block, alpha, ordering)
    image = tuple(sorted((set(block) - {beta}) | {beta ^ alpha}))
    if not family_predicate("J", ordering.m, k, alpha=alpha)(image):
        raise MapViolationError(
            block, image, "image left the sum-to-zero companion family"
        )
    return image


def balance_step(lam_k: int, k: int, m: int) -> int:
    """Single-formula step from lambda_k to lambda_{k+1}.

    Identical to the lambda step of params.parameter_rows, with its sign s
    written as the exact integer -cos(k*pi/2), looked up by k mod 4, and
    the binomial index floor(k/2 - 1) as (k - 2) // 2.
    """
    if k < 2:
        raise RangeError(f"step needs k >= 2, got {k}")
    check_exponent(m)
    base = _exact_div(((1 << m) - k - 1) * lam_k, k - 1, "balance step")
    sign = _COS_QUARTER[k % 4]
    return base - sign * comb((1 << (m - 1)) - 2, (k - 2) // 2)
