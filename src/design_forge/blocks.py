"""Block-family enumeration over GF(2^m).

A block is a strictly increasing tuple of field elements (ints). Families
are enumerated exhaustively: every head of k - 2 ground points in
lexicographic order, completed by the pairs of ground points above it
that XOR to what the head leaves of the target sum, read from a table of
the pairs with that sum and written straight into the family's lanes
(see `_xor_subsets`). Every enumerator charges its search nodes against
an explicit budget, in closed form before it searches, and raises
BudgetExceededError rather than truncating silently.

A family is held packed: one bytes buffer of k fixed-width lanes per block
(see `BlockFamily`), read by the verifier one column at a time. Its
membership rule is checked on those lanes: a chunk of blocks becomes k
column ints with one lane per block, and each fact of the rule is a few
big-int operations over every lane at once (see `_Rule`). The lifted
family is made in the same columns, as checked chunks that the verifier
reads as they come (see `lift_chunks`) or that are sorted as runs merged
by first point (see `_merged`). Everything here is pure and immutable.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import and_, ge, lt, or_, xor
from struct import Struct
from typing import Callable, Iterator

from .errors import (
    ArgumentError,
    BudgetExceededError,
    ConsistencyError,
    FamilyError,
    RangeError,
)
from .field import (
    DEFAULT_NODE_BUDGET,
    FAMILY_KINDS,
    MAX_AMBIENT_EXPONENT,
    MIN_EXPONENT,
    check_exponent,
    check_shift,
    cosets_of,
    nonzero_elements,
    section,
)

Block = tuple[int, ...]

# Blocks per lane-packed check, and bases per chunk of the lift. A check's
# scratch memory is a few bytes per point of one chunk, however large the
# family.
_CHUNK = 65_536
# L and U test their set condition on columns, C(k, 2) big-int operations
# over all lanes, while (k - 1) / 2, the count per point, is at most this
# and there are two blocks or more; else each block's set is tested alone.
# On chunks of 512 and 8,192 L blocks, columns won up to k = 120 in 1-byte
# lanes and k = 96 in 4-byte ones, where L within budget has k <= 8 or >= 248.
_PAIR_TESTS_PER_POINT = 64


def _lane_size(m: int) -> int:
    """Bytes per lane for points of GF(2^m): one while 2^m <= 128, else
    four. The top bit of a lane is its guard, clear in every point."""
    return 1 if m < 8 else 4


def _pack(points, size: int) -> bytes | None:
    """The points as big-endian lanes of `size` bytes, or None if one is
    not an int that fits a lane. Fixed-width big-endian lanes compare as
    bytes in the lexicographic order of the points."""
    try:
        if size == 1:
            return bytes(points)
        lanes = array("I", points)
    except (ValueError, OverflowError, TypeError):
        return None
    if sys.byteorder == "little":
        lanes.byteswap()
    return lanes.tobytes()


def _unpack(lanes: bytes, size: int):
    """The points of packed lanes, in turn, as ints: `lanes` itself for
    1-byte lanes, else an array("I")."""
    if size == 1:
        return lanes
    points = array("I", lanes)
    if sys.byteorder == "little":
        points.byteswap()
    return points


def _columns(lanes, k: int, size: int) -> list[int]:
    """Column j of the packed blocks as an int: point j of block i in lane
    i from the top. The lanes (bytes, or a view) are read big-endian as
    stored, through a raw 32-bit view for 4-byte lanes: no bytes swapped."""
    seq = bytes(lanes) if size == 1 else memoryview(lanes).cast("I")
    return [int.from_bytes(seq[j::k], "big") for j in range(k)]


def _interleave(cols: list, n: int, size: int) -> bytes:
    """The inverse of `_columns`: n blocks packed from their k columns,
    each an int or its n big-endian lanes, written into every k-th lane."""
    k = len(cols)
    out = bytearray(n * k) if size == 1 else array("I", bytes(n * k * size))
    for j, c in enumerate(cols):
        col = c if isinstance(c, bytes) else c.to_bytes(n * size, "big")
        out[j::k] = col if size == 1 else array("I", col)
    return bytes(out)


def _ones(lanes: int, width: int) -> int:
    """An int with bit 0 of each of `lanes` lanes of `width` bits set."""
    return ((1 << lanes * width) - 1) // ((1 << width) - 1)


def _nonzero(x: int, low: int, guard: int) -> int:
    """The guard bit of every lane of x that is not zero.

    Adding the low bits carries into a lane's guard bit iff its low bits
    are not all zero, and no carry leaves a lane (Warren, Hacker's
    Delight, ch. 6).
    """
    return ((x & low) + low | x) & guard


def _sorting_network(k: int) -> list[tuple[int, int]]:
    """Batcher's odd-even merge sort (1968) on k inputs, as the pairs
    (i, j), i < j, to compare-exchange in order. Comparators that would
    reach past k are dropped, as if the inputs were padded with maxima."""
    pairs = []
    p = 1
    while p < k:
        d = p
        while d:
            for j in range(d % p, k - d, 2 * d):
                for i in range(min(d, k - j - d)):
                    if (i + j) // (2 * p) == (i + j + d) // (2 * p):
                        pairs.append((i + j, i + j + d))
            d //= 2
        p *= 2
    return pairs


def _sort_lanes(cols: list[int], pairs, n: int, width: int) -> None:
    """Sort the points of every lane across the columns, in place.

    A compare-exchange of columns a and b takes the guard bits of
    (a | guard) - (b & low), set where a >= b with no borrow leaving a
    lane, widens them to lane masks and swaps those lanes by XOR.
    """
    ones = _ones(n, width)
    guard = ones << (width - 1)
    low = guard - ones
    for i, j in pairs:
        a, b = cols[i], cols[j]
        swap = ((a | guard) - (b & low)) & guard
        swap = (a ^ b) & (swap - (swap >> (width - 1)))
        cols[i], cols[j] = a ^ swap, b ^ swap


class _Rule:
    """The membership rule of one family, checked on lane-packed blocks.

    n blocks of k points are k column ints, column j holding point j of
    block i in lane i from the top (see `_columns`). Lanes are a byte while
    2^m <= 128, else 32 bits; the top bit of each lane is its guard, clear
    in every allowed point. Each fact is a few big-int operations over all
    lanes, and its failing lanes are a mask with a bit set in each:
      points   a lane of some column with a bit m and up set, or zero, or
               (I, J, U) equal to alpha; an int outside the lanes, which
               only a predicate's own points can be, has such a bit too
      XOR-sum  a nonzero lane of the columns' XOR with the target
      order    the guard of (column j-1 | guard) - (column j & low), set
               where point j-1 >= point j; no borrow leaves a lane
      Wpair    a lane where no column equals i, or none equals j
      L, U     a zero lane of column i ^ column j ^ alpha for i < j: U
               fails on any, L where some column meets none
    The order test is exact in lanes whose points are in range, and any
    other lane fails the points test, so the failing lanes are exact.
    The pair tests of L and U cost C(k, 2) column operations, so for one
    block, or k past a bound (`_PAIR_TESTS_PER_POINT`), each block is read
    out of the columns instead and its set is tested against its shift.
    """

    __slots__ = ("kind", "m", "k", "alpha", "target", "pair", "shifted", "size", "width", "masks")

    def __init__(self, kind: str, m: int, k: int, alpha: int | None, pair):
        if kind in ("I", "J", "L", "U"):
            if alpha is None:
                raise ArgumentError(f"family {kind!r} needs a shift alpha")
            check_shift(alpha, m)
        if kind == "Wpair":
            if pair is None:
                raise ArgumentError("family 'Wpair' needs its required pair")
            i, j = pair
            # A pair point out of range is in no allowed block, nor is 0.
            pair = tuple(x if 0 < x < 1 << m else 0 for x in (i, j))
        elif kind not in FAMILY_KINDS:
            raise ArgumentError(f"unknown family kind {kind!r}")
        check_exponent(m, lo=1, hi=31)  # a 32-bit lane and its guard bit
        self.kind, self.m, self.k, self.alpha = kind, m, k, alpha
        self.target = {"W": 0, "Wpair": 0, "J": 0, "I": alpha, "U": alpha}.get(kind)
        self.pair = pair if kind == "Wpair" else ()
        self.shifted = kind == "L" or (kind == "U" and k != 2)
        self.size = _lane_size(m)
        self.width = 8 * self.size
        self.masks: dict[int, tuple] = {}

    def _masks(self, n: int) -> tuple:
        """Lane constants for n lanes: guard bits, low bits, every bit but
        the low m of each lane, then target, alpha and pair points in every
        lane."""
        w = self.width
        ones = _ones(n, w)
        guard = ones << (w - 1)
        masks = self.masks[n] = (
            guard, guard - ones, ~(ones * ((1 << self.m) - 1)), ones * (self.target or 0),
            ones * (self.alpha or 0), [ones * x for x in self.pair],
        )
        return masks

    def first_bad(self, cols: list, n: int) -> int | None:
        """The index of the first of n blocks, given as their columns,
        that is not a strictly increasing member, or None: the block whose
        lane holds the highest failing bit, unless the set test on each
        block finds an earlier one."""
        k, width = self.k, self.width
        guard, low, high, target, alpha, pair = self.masks.get(n) or self._masks(n)
        bad = 0
        for a, b in zip(cols, cols[1:]):
            bad |= (a | guard) - (b & low)
        bad &= guard
        avoid = self.kind in ("I", "J", "U")
        for c in cols:
            ok = _nonzero(c, low, guard)
            if avoid:
                ok &= _nonzero(c ^ alpha, low, guard)
            bad |= c & high | ok ^ guard
        if self.target is not None:
            bad |= _nonzero(reduce(xor, cols, target), low, guard)
        for x in pair:
            missing = guard
            for c in cols:
                missing &= _nonzero(c ^ x, low, guard)
            bad |= missing
        by_sets = self.shifted and (n == 1 or k - 1 > 2 * _PAIR_TESTS_PER_POINT)
        if self.shifted and not by_sets:
            apart = [guard] * k  # lanes where column i is no shift of another
            for i, j in combinations(range(k), 2):
                e = _nonzero(cols[i] ^ cols[j] ^ alpha, low, guard)
                apart[i] &= e
                apart[j] &= e
            if self.kind == "L":
                bad |= reduce(or_, apart, 0)
            else:
                bad |= guard ^ reduce(and_, apart, guard)
        first = (n * width - bad.bit_length()) // width if bad else None
        if by_sets:
            test = set.issuperset if self.kind == "L" else set.isdisjoint
            shift = self.alpha.__xor__
            points = cols if n == 1 else _unpack(_interleave(cols, n, self.size), self.size)
            for i in range(n if first is None else first):
                b = points[i * k : i * k + k]
                if not test(set(b), map(shift, b)):
                    return i
        return first


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
    The test is `BlockFamily`'s lane-packed check on the sorted points,
    each a one-lane column: it takes the points in any order, and the
    order test rejects a repeated point.
    """
    rule = _Rule(kind, m, k, alpha, pair)

    def pred(b: Block) -> bool:
        try:
            points = sorted(b)
            return len(points) == k and rule.first_bad(points, 1) is None
        except TypeError:  # not iterable, or a point that is not an int
            return False

    return pred


def _block_error(b, kind: str) -> FamilyError:
    if any(map(ge, b, b[1:])):
        return FamilyError(f"block {b} is not strictly increasing")
    return FamilyError(f"block {b} violates the {kind} predicate")


@dataclass(frozen=True, init=False)
class BlockFamily:
    """An enumerated family together with its defining parameters.

    The blocks are held as one immutable bytes buffer, `lanes`: the k
    points of every block in turn, each an unsigned big-endian lane of
    `lane_size` bytes (one while 2^m <= 128, else four), blocks in the
    order given. Every enumerator gives them sorted, which with lanes of
    one width is also the order of their bytes. `column(j)` decodes point
    j of every block into ints, the view the verifier reads one column at
    a time (as it reads each chunk of `lift_chunks`), and iteration zips
    the columns into block tuples at C speed.

    Construction re-checks every member against the family's rule, so a
    BlockFamily in hand is always internally consistent. The check reads
    the lanes of 65,536 blocks at a time as k big-endian column ints, block
    0 in the top lane, so its scratch memory does not grow with the family:
    the highest failing lane names the first bad block, which raises
    FamilyError saying it is not strictly increasing or, failing that, that
    it violates the predicate.
    """

    kind: str
    m: int
    k: int
    lanes: bytes = field(repr=False)
    alpha: int | None = None
    pair: tuple[int, int] | None = None

    def __init__(self, kind: str, m: int, k: int, blocks, alpha=None, pair=None):
        """Pack `blocks`, a sequence of k-tuples, and check them. A block
        of another size, or with a point that fits no lane, fails once
        every block before it has passed."""
        rule = _Rule(kind, m, k, alpha, pair)
        n, size = len(blocks), rule.size
        lanes = _pack(chain.from_iterable(blocks), size)
        if lanes is None or set(map(len, blocks)) - {k}:
            n = next(i for i, b in enumerate(blocks) if len(b) != k or _pack(b, size) is None)
            lanes = _pack(chain.from_iterable(blocks[:n]), size)
        self._fill(kind, m, k, lanes, alpha, pair, n)
        self.__post_init__(rule, blocks)
        if n < len(blocks):
            raise _block_error(blocks[n], kind)

    @classmethod
    def _from_lanes(cls, kind: str, m: int, k: int, lanes: bytes, alpha=None, pair=None):
        """A family of already packed blocks, checked on its lanes."""
        rule = _Rule(kind, m, k, alpha, pair)
        family = cls.__new__(cls)
        family._fill(kind, m, k, lanes, alpha, pair, len(lanes) // (k * rule.size))
        family.__post_init__(rule)
        return family

    def _fill(self, kind, m, k, lanes, alpha, pair, n) -> None:
        for name, value in (("kind", kind), ("m", m), ("k", k), ("lanes", lanes),
                            ("alpha", alpha), ("pair", pair), ("_n", n)):
            object.__setattr__(self, name, value)

    def __post_init__(self, rule: _Rule, given=None) -> None:
        """Re-validate: check the packed blocks chunk by chunk, and raise
        for the first bad one, shown as in `given`, else as unpacked."""
        n, width, lanes = self._n, self.k * rule.size, memoryview(self.lanes)
        for start in range(0, n, _CHUNK):
            stop = min(n, start + _CHUNK)
            bad = rule.first_bad(_columns(lanes[start * width : stop * width], self.k, rule.size), stop - start)
            if bad is not None:
                bad += start
                points = _unpack(self.lanes[bad * width : bad * width + width], rule.size)
                raise _block_error(tuple(points) if given is None else given[bad], self.kind)

    @property
    def lane_size(self) -> int:
        """Bytes per lane of `lanes`."""
        return _lane_size(self.m)

    def __len__(self) -> int:
        return self._n

    @property
    def points(self):
        """The points of every block in turn, as ints: `lanes` itself while
        a lane is one byte, else an array("I")."""
        return _unpack(self.lanes, self.lane_size)

    def column(self, j: int):
        """Point j of every block in turn, as `points` gives them."""
        size = self.lane_size
        lanes = self.lanes if size == 1 else memoryview(self.lanes).cast("I")
        return _unpack(bytes(lanes[j :: self.k]), size)

    def __iter__(self) -> Iterator[Block]:
        if not self.k:
            return repeat((), self._n)
        return zip(*map(self.column, range(self.k)))

    def __contains__(self, block) -> bool:
        """Whether `block` is a member: False for anything that is not k
        points that fit a lane, else whether its packed key starts at a
        block of the lanes, found by `bytes.find` in any block order."""
        try:
            points = tuple(block)
        except TypeError:
            return False
        key = _pack(points, self.lane_size) if len(points) == self.k else None
        if key is None:
            return False
        width, lanes = len(key), self.lanes
        at = lanes.find(key)
        while at > 0 and at % width:  # a hit across two blocks
            at = lanes.find(key, at + 1)
        return at >= 0 and self._n > 0  # b"" (k = 0) is found even with no block


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


def _search_nodes(n: int, k: int) -> int:
    """The charge of a search for k of n points (see `_xor_subsets`)."""
    return comb(n, k - 1) - 1 + comb(n - 1, k - 1)


def _xor_subsets(
    ground: tuple[int, ...],
    k: int,
    target: int,
    budget: _Budget,
    size: int,
) -> bytes:
    """The lanes of `size` bytes (see `_pack`) of all strictly increasing
    k-tuples over `ground` whose XOR equals `target`, in lexicographic order.

    k must be at least 1, and `ground` sorted ascending, with no duplicates,
    at least k points and every point fitting a lane.

    The search visits every head of k - 2 ground points in lexicographic
    order. A head whose XOR with the target is s is completed by exactly
    the pairs (h, h ^ s) of ground points with head[-1] < h < h ^ s: the
    slice, past the head's last point, of the table of pairs with sum s.
    No block is ever a tuple. For k > 3 tables are kept with their pairs
    packed, and a head's lanes join that slice in one `bytes.join`. A
    one-point head p is the only head with sum p ^ target, so for k <= 3
    no table is kept (at k = 3 and n = 1,023, keeping them took the traced
    peak from 12 to 48 MiB) and the completions are written as columns.
    Over n points of GF(2^m), the work is at most min(C(n, k - 2), 2^m)
    tables of n steps, and one join per head.

    The charge (`_search_nodes`) is still the node count of a depth-first
    search over heads of k - 1 points: one per placed point, C(n, k - 1) - 1
    in all (the hockey-stick identity), and one per lookup of the forced
    last point, C(n - 1, k - 1). It is made before the search, so a search
    over budget fails before it allocates anything.
    """
    n = len(ground)
    budget.spend(_search_nodes(n, k))
    own = dict(zip(ground, ground))
    if k == 1:
        return _pack([target], size) if target in own else b""
    lane = "B" if size == 1 else "I"
    pack_head, pack_pair = Struct(f">{k - 2}{lane}").pack, Struct(f">2{lane}").pack
    tables: dict[int, tuple[list[int], list[bytes]]] = {}
    out = bytearray()
    for head in combinations(ground[:-2], k - 2):
        last = head[-1] if head else -1
        s = reduce(xor, head, target)
        if (table := tables.get(s)) is None:
            tail = ground[bisect_right(ground, -1 if k > 3 else last) :]  # a kept table serves every head
            highs = list(map(own.get, map(s.__xor__, tail), repeat(-1)))
            keep = list(map(lt, tail, highs))
            lows, highs = list(compress(tail, keep)), list(compress(highs, keep))
            if k <= 3:
                cols = [_pack((x,), size) * len(lows) for x in head]
                out += _interleave([*cols, _pack(lows, size), _pack(highs, size)], len(lows), size)
                continue
            table = tables[s] = lows, list(map(pack_pair, lows, highs))
        lows, pairs = table
        if pairs := pairs[bisect_right(lows, last) :]:
            points = pack_head(*head)
            out += points
            out += points.join(pairs)
    return bytes(out)


def _enumerated(build, *args, **kwargs) -> BlockFamily:
    """An enumerator's family: its own bad block is a bug, not input."""
    try:
        return build(*args, **kwargs)
    except FamilyError as exc:
        raise ConsistencyError(f"enumerated {exc}") from exc


def _check_k(k: int, lo: int, hi: int, what: str) -> None:
    if not isinstance(k, int) or not lo <= k <= hi:
        raise RangeError(f"{what}: block size must be in {lo}..{hi}, got {k!r}")


def zero_sum_blocks(m: int, k: int, budget: int = DEFAULT_NODE_BUDGET) -> BlockFamily:
    """Every k-subset of the nonzero elements of GF(2^m) with XOR-sum zero."""
    check_exponent(m)
    _check_k(k, 3, (1 << m) - 4, f"zero-sum family in GF(2^{m})")
    bud = _Budget(budget, f"zero-sum blocks (m={m}, k={k})")
    lanes = _xor_subsets(tuple(nonzero_elements(m)), k, 0, bud, _lane_size(m))
    return _enumerated(BlockFamily._from_lanes, "W", m, k, lanes)


def zero_sum_blocks_containing(
    m: int, k: int, i: int, j: int, budget: int = DEFAULT_NODE_BUDGET
) -> BlockFamily:
    """The zero-sum k-subsets that contain both i and j.

    Enumerated directly: (k-2)-subsets of the remaining nonzero elements
    with XOR-sum i ^ j, spliced back together with {i, j} as two more
    columns, sorted into each block by `_sort_lanes`, in subset order.
    """
    check_exponent(m)
    _check_k(k, 3, (1 << m) - 4, f"zero-sum family in GF(2^{m})")
    size = 1 << m
    if not (0 < i < size and 0 < j < size) or i == j:
        raise ArgumentError(f"need two distinct nonzero elements, got {i} and {j}")
    bud = _Budget(budget, f"zero-sum blocks through a pair (m={m}, k={k})")
    ground = tuple(x for x in nonzero_elements(m) if x != i and x != j)
    lane = _lane_size(m)
    rest = _xor_subsets(ground, k - 2, i ^ j, bud, lane)
    n = len(rest) // ((k - 2) * lane)
    ones = _ones(n, 8 * lane)
    cols = [*_columns(rest, k - 2, lane), ones * i, ones * j]
    _sort_lanes(cols, _sorting_network(k), n, 8 * lane)
    return _enumerated(BlockFamily._from_lanes, "Wpair", m, k, _interleave(cols, n, lane), pair=(i, j))


def _shifted_sum_blocks(kind: str, m: int, k: int, alpha: int, budget: int) -> BlockFamily:
    """Family I (XOR-sum alpha) or J (XOR-sum 0), searched over the nonzero
    elements less alpha."""
    check_exponent(m)
    check_shift(alpha, m)
    _check_k(k, 2, (1 << m) - 2, f"shifted-sum family in GF(2^{m})")
    target, name = (alpha, "sum-to-shift") if kind == "I" else (0, "sum-to-zero")
    bud = _Budget(budget, f"{name} blocks (m={m}, k={k}, alpha={alpha})")
    ground = tuple(x for x in nonzero_elements(m) if x != alpha)
    lanes = _xor_subsets(ground, k, target, bud, _lane_size(m))
    return _enumerated(BlockFamily._from_lanes, kind, m, k, lanes, alpha=alpha)


def sum_to_shift_blocks(m: int, k: int, alpha: int, budget: int = DEFAULT_NODE_BUDGET) -> BlockFamily:
    """k-subsets of GF(2^m) avoiding {0, alpha} whose XOR-sum is alpha."""
    return _shifted_sum_blocks("I", m, k, alpha, budget)


def sum_to_zero_blocks(m: int, k: int, alpha: int, budget: int = DEFAULT_NODE_BUDGET) -> BlockFamily:
    """k-subsets of GF(2^m) avoiding {0, alpha} whose XOR-sum is zero."""
    return _shifted_sum_blocks("J", m, k, alpha, budget)


def shift_invariant_blocks(m: int, k: int, alpha: int, budget: int = DEFAULT_NODE_BUDGET) -> BlockFamily:
    """k-subsets of the nonzero elements fixed setwise by XOR with alpha.

    Such a block is a union of k/2 whole cosets {x, x + alpha}, none of
    which may be the one containing 0; for odd k the family is empty by
    parity, not an error.
    """
    check_exponent(m)
    check_shift(alpha, m)
    _check_k(k, 2, (1 << m) - 2, f"shift-invariant family in GF(2^{m})")
    lanes = bytearray()
    if k % 2 == 0:
        bud = _Budget(budget, f"shift-invariant blocks (m={m}, k={k}, alpha={alpha})")
        free = cosets_of(alpha, m)[1:]  # all but the subgroup (0, alpha)
        bud.spend(comb(len(free), k // 2) * k)  # one node per point written
        for c in combinations(free, k // 2):  # packed a block at a time
            lanes += _pack(sorted(chain.from_iterable(c)), _lane_size(m))
    lanes = bytes(lanes)  # the bytearray is freed before the check
    return _enumerated(BlockFamily._from_lanes, "L", m, k, lanes, alpha=alpha)


def gdd_chunks(ambient_exp: int, k: int, alpha: int, budget: int = DEFAULT_NODE_BUDGET) -> Iterator[_Columns]:
    """The blocks of `gdd_blocks`, as the checked chunks of columns that
    `lift_chunks` yields, in the order they are made.

    The lifted design in GF(2^ambient_exp) is the lift of the zero-sum
    family one exponent down. The budget is charged one node per node of
    that family's search plus one per lifted block, each part before the
    blocks it counts.
    """
    check_exponent(ambient_exp, lo=MIN_EXPONENT + 1, hi=MAX_AMBIENT_EXPONENT)
    check_shift(alpha, ambient_exp)
    m = ambient_exp - 1
    _check_k(k, 3, (1 << m) - 4, f"lifted family in GF(2^{ambient_exp})")
    bud = _Budget(budget, f"lifted blocks (exp={ambient_exp}, k={k}, alpha={alpha})")
    lanes = _xor_subsets(tuple(nonzero_elements(m)), k, 0, bud, _lane_size(m))
    base = _enumerated(BlockFamily._from_lanes, "W", m, k, lanes)
    return lift_chunks(base, alpha, budget)


def gdd_blocks(ambient_exp: int, k: int, alpha: int, budget: int = DEFAULT_NODE_BUDGET) -> BlockFamily:
    """Blocks of the lifted design in GF(2^ambient_exp), sorted.

    k-subsets of the field minus {0, alpha} that XOR to alpha and touch
    each coset {x, x + alpha} at most once (equivalently, the block and
    its shift by alpha are disjoint): `gdd_chunks` merged (see `_merged`).
    """
    return _merged(gdd_chunks(ambient_exp, k, alpha, budget), ambient_exp, k, alpha)


def lift_blocks(base: BlockFamily, alpha: int, budget: int = DEFAULT_NODE_BUDGET) -> BlockFamily:
    """The blocks of the lifted design over `base`, sorted: `lift_chunks`
    merged (see `_merged`)."""
    return _merged(lift_chunks(base, alpha, budget), base.m + 1, base.k, alpha)


class _Columns:
    """n blocks of k points held as k column ints, as `_columns` makes
    them (block 0 in the top lane), read as the verifier reads a family:
    `k`, len() and `column(j)`; `points` only to name a bad block."""

    __slots__ = ("cols", "k", "n", "size")

    def __init__(self, cols: list[int], n: int, size: int):
        self.cols, self.k, self.n, self.size = cols, len(cols), n, size

    def __len__(self) -> int:
        return self.n

    def column(self, j: int):
        """Point j of every block in turn, as `BlockFamily.column` gives it."""
        return _unpack(self.cols[j].to_bytes(self.n * self.size, "big"), self.size)

    @property
    def points(self):
        return _unpack(_interleave(self.cols, self.n, self.size), self.size)


def lift_chunks(base: BlockFamily, alpha: int, budget: int = DEFAULT_NODE_BUDGET) -> Iterator[_Columns]:
    """The blocks of the lifted design in GF(2^(m+1)) over `base`, zero-sum
    blocks of GF(2^m) (all of them if `base` is the zero-sum family), as
    chunks of at most `_CHUNK` blocks, each checked against the U rule.

    The quotient map by {0, alpha} sends a lifted block onto a zero-sum
    k-block; an additive section of that map (`field.section`) sends each
    zero-sum block back to k points that XOR to 0, one per coset. Shifting
    an odd number of them by alpha gives the 2^(k-1) blocks over it. Those
    are every choice of one point per coset that XORs to alpha, so the
    blocks do not depend on which section is used. A fresh budget, named
    as in `gdd_blocks`, is charged the search for `base` in closed form
    plus one node per lifted block, now, before any chunk is made.

    The lift runs on lanes, `_CHUNK` bases at a time: the sections of the
    bases' lanes (one `bytes.translate` while both lanes are a byte)
    become k column ints. The 2^(k-1) choices of shifts are taken as many
    at a time as fit a chunk: each column of a chunk is that column of the
    bases once per choice, XORed with alpha where the choice shifts it
    (the last by parity), so a chunk is choice-major, and a sorting network
    sorts every block's points across the columns (`_sort_lanes`). Each
    chunk is then checked on its columns (`_Rule.first_bad`), and a bad
    block raises ConsistencyError.
    """
    k, ambient_exp = base.k, base.m + 1
    bud = _Budget(budget, f"lifted blocks (exp={ambient_exp}, k={k}, alpha={alpha})")
    bud.spend(_search_nodes((1 << base.m) - 1, k) + (len(base) << (k - 1)))
    return _lift(base, alpha)


def _lift(base: BlockFamily, alpha: int) -> Iterator[_Columns]:
    """The body of `lift_chunks`, run as its chunks are asked for."""
    k, ambient_exp = base.k, base.m + 1
    table = section(alpha, ambient_exp)
    size, choices = _lane_size(ambient_exp), 1 << (k - 1)
    width, rule, pairs = 8 * size, _Rule("U", ambient_exp, k, alpha, None), _sorting_network(k)
    lifted = (base.lanes.translate(bytes(table).ljust(256, b"\0")) if size == 1
              else _pack(map(table.__getitem__, base.points), size))
    del base  # the caller's to keep or to drop
    step = k * size
    for start in range(0, len(lifted), _CHUNK * step):
        n = min(_CHUNK, len(lifted) // step - start // step)
        shift = _ones(n, width) * alpha
        # Each column's lanes as they are and shifted by alpha.
        both = [(c.to_bytes(n * size, "big"), (c ^ shift).to_bytes(n * size, "big"))
                for c in _columns(lifted[start : start + n * step], k, size)]
        per = max(1, _CHUNK // n)
        for first in range(0, choices, per):
            group = range(first, min(choices, first + per))
            # Shift the points of the set bits of a choice, and the last
            # point iff that leaves an even number shifted.
            cols = [int.from_bytes(b"".join([lanes[c >> j & 1] for c in group]), "big")
                    for j, lanes in enumerate(both[:-1])]
            cols.append(int.from_bytes(b"".join([both[-1][1 ^ c.bit_count() & 1] for c in group]), "big"))
            count = n * len(group)
            _sort_lanes(cols, pairs, count, width)
            bad = rule.first_bad(cols, count)
            if bad is not None:
                low = (count - 1 - bad) * width
                block = tuple(c >> low & (1 << width) - 1 for c in cols)
                raise ConsistencyError(f"enumerated {_block_error(block, 'U')}")
            yield _Columns(cols, count, size)


def _merged(chunks, ambient_exp: int, k: int, alpha: int) -> BlockFamily:
    """The family U of the blocks of `chunks`, sorted.

    Each chunk is packed, cut into its blocks' bytes keys by one
    `struct.Struct` unpack, in C, and sorted into a run. The runs are
    merged a first point at a time: the blocks that start with p form a
    slice of each run, so the merge holds the runs, the merged lanes and
    one such bucket's keys, not a key object per block. A lift of at most
    `_CHUNK` blocks is one run, so no bucket of it is re-sorted.
    """
    size = _lane_size(ambient_exp)
    step, runs, cuts = k * size, [], {}
    for chunk in chunks:
        n = len(chunk)
        cut = cuts.get(n) or cuts.setdefault(n, Struct(f"{step}s" * n))  # n keys of a buffer, cut in C
        runs.append(b"".join(sorted(cut.unpack(_interleave(chunk.cols, n, size)))))
    del cuts
    # Each run's blocks that start with p are one slice, found by
    # bisection on its first points.
    firsts = [run[::step] if size == 1 else _unpack(run, size)[::k] for run in runs]
    ends, laid = [0] * len(runs), bytearray()
    for p in range(1, 1 << ambient_exp):
        parts = []
        for r, run in enumerate(runs):
            lo, hi = ends[r], bisect_right(firsts[r], p, ends[r])
            if hi > lo:
                parts.append(run[lo * step : hi * step])
                ends[r] = hi
        if len(parts) > 1:  # timsort merges the sorted slices
            bucket = b"".join(parts)
            parts = sorted(Struct(f"{step}s" * (len(bucket) // step)).unpack(bucket))
        laid += b"".join(parts)
    del runs, firsts
    # Every block passed the rule in its chunk, and the merge moves whole
    # blocks, so the family is not checked again.
    family = BlockFamily.__new__(BlockFamily)
    family._fill("U", ambient_exp, k, bytes(laid), alpha, None, len(laid) // step)
    return family


def gdd_groups(ambient_exp: int, alpha: int) -> BlockFamily:
    """The groups of the lifted design: all pairs {x, x + alpha} with x
    outside {0, alpha}. Exactly 2^(ambient_exp - 1) - 1 disjoint pairs
    covering the point set."""
    check_exponent(ambient_exp, lo=MIN_EXPONENT + 1, hi=MAX_AMBIENT_EXPONENT)
    check_shift(alpha, ambient_exp)
    pairs = cosets_of(alpha, ambient_exp)[1:]
    return _enumerated(BlockFamily, "U", ambient_exp, 2, tuple(pairs), alpha=alpha)
