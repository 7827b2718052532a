"""Block-family enumeration over GF(2^m).

A block is a strictly increasing tuple of field elements (ints). Families
are enumerated exhaustively by depth-first search over ascending bitmasks,
carrying the running XOR of the chosen prefix; the final slot is filled by
direct lookup, since the last element is forced by the target sum. Every
enumerator charges search nodes against an explicit budget and raises
BudgetExceededError rather than truncating silently. Everything here is
pure and immutable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from operator import ge, xor
from typing import Callable, Iterator

from .errors import (
    ArgumentError,
    BudgetExceededError,
    FamilyError,
    RangeError,
)
from .field import (
    MAX_AMBIENT_EXPONENT,
    MIN_EXPONENT,
    check_exponent,
    check_shift,
    cosets_of,
    nonzero_elements,
    section,
)

Block = tuple[int, ...]

DEFAULT_NODE_BUDGET = 100_000_000

FAMILY_KINDS = ("W", "Wpair", "I", "J", "L", "U")


def family_predicate(
    kind: str,
    m: int,
    k: int,
    alpha: int | None = None,
    pair: tuple[int, int] | None = None,
) -> Callable[[Block], bool]:
    """The defining membership test of a family, as a standalone callable.

    A member of any family is a k-tuple that meets three facts (m is the
    exponent of the field the blocks live in):
      points   all lie in the allowed set: the nonzero elements, less
               alpha for I, J and U
      XOR-sum  0 for W, Wpair and J; alpha for I and U; free for L
      one set condition, for the kinds that have one:
               Wpair  holds both elements of `pair`
               L      is closed under x -> x ^ alpha
               U      is disjoint from its shift by alpha, so it meets
                      each coset {x, x + alpha} at most once; not at
                      k = 2, where U (the groups) is I at k = 2: the
                      pairs {x, x + alpha}
    The allowed set, and the shift table the L and U conditions read, have
    2^m entries and are built once per call.
    """
    size = 1 << m
    if kind in ("I", "J", "L", "U"):
        if alpha is None:
            raise ArgumentError(f"family {kind!r} needs a shift alpha")
        check_shift(alpha, m)
    if kind == "Wpair":
        if pair is None:
            raise ArgumentError("family 'Wpair' needs its required pair")
    elif kind not in FAMILY_KINDS:
        raise ArgumentError(f"unknown family kind {kind!r}")

    allowed = set(range(1, size))
    if kind in ("I", "J", "U"):
        allowed.discard(alpha)
    target = {"W": 0, "Wpair": 0, "J": 0, "I": alpha, "U": alpha}.get(kind)
    condition = None
    if kind == "Wpair":
        i, j = pair
        condition = lambda b: i in b and j in b
    elif kind == "L" or (kind == "U" and k != 2):
        # Read only after the allowed check, so every index is below size.
        shift = [x ^ alpha for x in range(size)].__getitem__
        test = set.issuperset if kind == "L" else set.isdisjoint
        condition = lambda b: test(set(b), map(shift, b))

    def pred(b: Block) -> bool:
        return (
            len(b) == k
            and allowed.issuperset(b)
            and (target is None or reduce(xor, b, 0) == target)
            and (condition is None or condition(b))
        )

    return pred


@dataclass(frozen=True)
class BlockFamily:
    """An enumerated family together with its defining parameters.

    Construction re-checks every member against the family predicate, so a
    BlockFamily in hand is always internally consistent. Blocks are kept
    sorted lexicographically; membership tests are binary searches.
    """

    kind: str
    m: int
    k: int
    blocks: tuple[Block, ...]
    alpha: int | None = None
    pair: tuple[int, int] | None = None

    def __post_init__(self):
        pred = family_predicate(self.kind, self.m, self.k, self.alpha, self.pair)
        for b in self.blocks:
            if any(map(ge, b, b[1:])):
                raise FamilyError(f"block {b} is not strictly increasing")
            if not pred(b):
                raise FamilyError(f"block {b} violates the {self.kind} predicate")

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __contains__(self, block) -> bool:
        b = tuple(block)
        pos = bisect_left(self.blocks, b)
        return pos < len(self.blocks) and self.blocks[pos] == b


class _Budget:
    """Node counter shared across the enumerations of one call."""

    __slots__ = ("remaining", "limit", "what")

    def __init__(self, limit: int, what: str):
        if not isinstance(limit, int) or limit <= 0:
            raise ArgumentError(f"budget must be a positive int, got {limit!r}")
        self.remaining = limit
        self.limit = limit
        self.what = what

    def spend(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise BudgetExceededError(self.what, self.limit)


def _xor_subsets(
    ground: tuple[int, ...],
    k: int,
    target: int,
    budget: _Budget,
) -> list[Block]:
    """All strictly increasing k-tuples over `ground` whose XOR equals `target`.

    `ground` must be sorted ascending with no duplicates. Output is in
    lexicographic order.

    Depth-first search with the prefix XOR as state; a prefix dies when too
    few candidates remain. The final slot is a lookup, not a scan: the
    missing element is forced to be target ^ prefix-XOR. One budget node is
    charged per placed element, the forced slot included.
    """
    if k <= 0:
        raise ArgumentError(f"subset size must be positive, got {k}")
    gset = set(ground)
    n = len(ground)
    out: list[Block] = []
    chosen: list[int] = []
    spend = budget.spend

    def walk(lo: int, acc: int) -> None:
        slots = k - len(chosen)
        if slots == 1:
            spend()
            need = acc ^ target
            if need in gset and (not chosen or need > chosen[-1]):
                out.append((*chosen, need))
            return
        for idx in range(lo, n - slots + 1):
            x = ground[idx]
            spend()
            chosen.append(x)
            walk(idx + 1, acc ^ x)
            chosen.pop()

    walk(0, 0)
    return out


def _check_k(k: int, lo: int, hi: int, what: str) -> None:
    if not isinstance(k, int) or not lo <= k <= hi:
        raise RangeError(f"{what}: block size must be in {lo}..{hi}, got {k!r}")


def zero_sum_blocks(m: int, k: int, budget: int = DEFAULT_NODE_BUDGET) -> BlockFamily:
    """Every k-subset of the nonzero elements of GF(2^m) with XOR-sum zero."""
    check_exponent(m)
    _check_k(k, 3, (1 << m) - 4, f"zero-sum family in GF(2^{m})")
    bud = _Budget(budget, f"zero-sum blocks (m={m}, k={k})")
    blocks = _xor_subsets(tuple(nonzero_elements(m)), k, 0, bud)
    return BlockFamily("W", m, k, tuple(blocks))


def zero_sum_blocks_containing(
    m: int, k: int, i: int, j: int, budget: int = DEFAULT_NODE_BUDGET
) -> BlockFamily:
    """The zero-sum k-subsets that contain both i and j.

    Enumerated directly: (k-2)-subsets of the remaining nonzero elements
    with XOR-sum i ^ j, spliced back together with {i, j}.
    """
    check_exponent(m)
    _check_k(k, 3, (1 << m) - 4, f"zero-sum family in GF(2^{m})")
    size = 1 << m
    if not (0 < i < size and 0 < j < size) or i == j:
        raise ArgumentError(f"need two distinct nonzero elements, got {i} and {j}")
    bud = _Budget(budget, f"zero-sum blocks through a pair (m={m}, k={k})")
    ground = tuple(x for x in nonzero_elements(m) if x != i and x != j)
    rest = _xor_subsets(ground, k - 2, i ^ j, bud)
    blocks = sorted(tuple(sorted((*r, i, j))) for r in rest)
    return BlockFamily("Wpair", m, k, tuple(blocks), pair=(i, j))


def sum_to_shift_blocks(
    m: int, k: int, alpha: int, budget: int = DEFAULT_NODE_BUDGET
) -> BlockFamily:
    """k-subsets of GF(2^m) avoiding {0, alpha} whose XOR-sum is alpha."""
    check_exponent(m)
    check_shift(alpha, m)
    _check_k(k, 2, (1 << m) - 2, f"shifted-sum family in GF(2^{m})")
    bud = _Budget(budget, f"sum-to-shift blocks (m={m}, k={k}, alpha={alpha})")
    ground = tuple(x for x in nonzero_elements(m) if x != alpha)
    return BlockFamily("I", m, k, tuple(_xor_subsets(ground, k, alpha, bud)), alpha=alpha)


def sum_to_zero_blocks(
    m: int, k: int, alpha: int, budget: int = DEFAULT_NODE_BUDGET
) -> BlockFamily:
    """k-subsets of GF(2^m) avoiding {0, alpha} whose XOR-sum is zero."""
    check_exponent(m)
    check_shift(alpha, m)
    _check_k(k, 2, (1 << m) - 2, f"shifted-sum family in GF(2^{m})")
    bud = _Budget(budget, f"sum-to-zero blocks (m={m}, k={k}, alpha={alpha})")
    ground = tuple(x for x in nonzero_elements(m) if x != alpha)
    return BlockFamily("J", m, k, tuple(_xor_subsets(ground, k, 0, bud)), alpha=alpha)


def shift_invariant_blocks(
    m: int, k: int, alpha: int, budget: int = DEFAULT_NODE_BUDGET
) -> BlockFamily:
    """k-subsets of the nonzero elements fixed setwise by XOR with alpha.

    Such a block is a union of k/2 whole cosets {x, x + alpha}, none of
    which may be the one containing 0; for odd k the family is empty by
    parity, not an error.
    """
    check_exponent(m)
    check_shift(alpha, m)
    _check_k(k, 2, (1 << m) - 2, f"shift-invariant family in GF(2^{m})")
    blocks: list[Block] = []
    if k % 2 == 0:
        bud = _Budget(budget, f"shift-invariant blocks (m={m}, k={k}, alpha={alpha})")
        free = cosets_of(alpha, m)[1:]  # all but the subgroup (0, alpha)
        for combo in combinations(free, k // 2):
            bud.spend()
            blocks.append(tuple(sorted(x for pair in combo for x in pair)))
        blocks.sort()
    return BlockFamily("L", m, k, tuple(blocks), alpha=alpha)


def gdd_blocks(
    ambient_exp: int, k: int, alpha: int, budget: int = DEFAULT_NODE_BUDGET
) -> BlockFamily:
    """Blocks of the lifted design in GF(2^ambient_exp).

    k-subsets of the field minus {0, alpha} that XOR to alpha and touch
    each coset {x, x + alpha} at most once (equivalently, the block and
    its shift by alpha are disjoint).

    Built as a lift of the zero-sum family one exponent down. The quotient
    map by {0, alpha} sends such a block onto a zero-sum k-block; an
    additive section of that map (`field.section`) sends each zero-sum
    block back to k points that XOR to 0, one per coset. Shifting an odd
    number of them by alpha gives the 2^(k-1) blocks over it. Those are
    every choice of one point per coset that XORs to alpha, so the output
    does not depend on which section is used. The budget is charged one
    node per node of the zero-sum search plus one per lifted block.
    """
    check_exponent(ambient_exp, lo=MIN_EXPONENT + 1, hi=MAX_AMBIENT_EXPONENT)
    check_shift(alpha, ambient_exp)
    m = ambient_exp - 1
    _check_k(k, 3, (1 << m) - 4, f"lifted family in GF(2^{ambient_exp})")
    bud = _Budget(budget, f"lifted blocks (exp={ambient_exp}, k={k}, alpha={alpha})")
    lift = section(alpha, ambient_exp)
    blocks: list[Block] = []
    for base in _xor_subsets(tuple(nonzero_elements(m)), k, 0, bud):
        bud.spend(1 << (k - 1))
        # Choose freely in every coset but the last; the last point is then
        # forced by the target sum, which fixes the parity of the shifts.
        cosets = [(lift[y], lift[y] ^ alpha) for y in base[:-1]]
        for head in product(*cosets):
            blocks.append(tuple(sorted((*head, reduce(xor, head, alpha)))))
    blocks.sort()
    return BlockFamily("U", ambient_exp, k, tuple(blocks), alpha=alpha)


def gdd_groups(ambient_exp: int, alpha: int) -> BlockFamily:
    """The groups of the lifted design: all pairs {x, x + alpha} with x
    outside {0, alpha}. Exactly 2^(ambient_exp - 1) - 1 disjoint pairs
    covering the point set."""
    check_exponent(ambient_exp, lo=MIN_EXPONENT + 1, hi=MAX_AMBIENT_EXPONENT)
    check_shift(alpha, ambient_exp)
    pairs = cosets_of(alpha, ambient_exp)[1:]
    return BlockFamily("U", ambient_exp, 2, tuple(pairs), alpha=alpha)
