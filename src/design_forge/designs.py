"""Design verification by one pair sweep over per-point incidence.

Verification is literal: count, for every unordered pair of points, how
many blocks contain it, then inspect the histogram. The sweep takes each
point a in order with the coverage of every pair (a, c), c > a. A point's
blocks are held in whichever form takes less memory: while v <= 32 k, a
Python-int bitset over the b blocks, so a pair's coverage is one AND and
one popcount (O(v^2 * b/64) word operations on v * b bits); above that,
an array of its blocks' indices, so its row is a count of those blocks'
points (O(b * k^2) counts on b * k 32-bit entries). Groups are always
bitsets; a pair is same-group iff its two group bitsets meet, so the
grouped check is the plain sweep plus that mask. Both forms are built
from columns of point indices (see `_indices`): a packed collection (a
BlockFamily, or the cli's ingest of an exported file) gives one column of
points at a time, so bitsets are built a column at a time, by bit planes
(see `_bitset_incidence`), and the index form keeps only its k index
columns; any other iterable of items, such as tuples, is chained.
Blocks may also come as an iterable of packed chunks, such as the lift
a chunk at a time, and both forms' state is a sum over the chunks (see
`_block_incidence`): the bitset form holds one chunk's bitsets and the
summed pair counts, not the blocks. Each form flags the first item with
a repeated or outside point, and that item is re-read and checked here
for its size, a repeated point and a point outside the point set.
Reports keep the full histograms so near-misses stay diagnosable, and
the first counterexample is deterministic (smallest failing pair in
lexicographic order).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, repeat
from operator import add, or_

from .errors import (
    ConsistencyError,
    ContainmentError,
    PartitionError,
    ShapeError,
    StateError,
)

# Points hold their blocks as bitsets while v <= 32 k, where v * b bits
# are no more than the b * k 32-bit indices of the other form; timed
# sweeps of random blocks broke even near the same ratio.
_BITSET_MAX_V_PER_K = 32


@dataclass(frozen=True)
class DesignReport:
    """Outcome of a pair-balance sweep over one block collection.

    r_histogram maps per-point occurrence counts to how many points have
    that count; lambda_histogram maps per-pair coverage counts to how many
    pairs have that coverage. A passing design has exactly one key in each.
    """

    v: int
    k: int
    b: int
    r_histogram: dict[int, int]
    lambda_histogram: dict[int, int]
    passed: bool
    counterexample: tuple[int, int] | None


@dataclass(frozen=True)
class GddReport(DesignReport):
    """Grouped verdict: lambda_histogram covers the cross-group pairs only,
    within_group_coverage is the worst same-group pair (must be 0)."""

    group_count: int
    partition_ok: bool
    within_group_coverage: int
    cross_group_lambda: int | None


def _check_item(item, size: int, index: dict, noun: str, repeat_error) -> None:
    """Raise for the first defect of one item, checked in this order:
    another size, a repeated point, a point outside the point set."""
    if len(item) != size:
        raise ShapeError(f"expected uniform {noun} size {size}, found {len(item)}")
    if len(set(item)) != size:
        raise repeat_error(f"{noun} {tuple(item)} repeats a point")
    for x in item:
        if x not in index:
            raise ContainmentError(
                f"{noun} {tuple(item)} uses point {x} outside the point set"
            )


def _indices(collection, index: dict, noun: str, repeat_error, empty: str, small=None):
    """(column, item count, item size, fail(j)) of a collection of blocks
    or groups: column(c) gives the index of point c of every item in turn,
    len(index) for a point outside the point set, and fail(j) raises the
    first defect of item j.

    A packed collection (a family, or the cli's ingest) gives its `k` and
    `column(c)`, translated when asked for; fail re-reads its `points`.
    Anything else is made a sequence;
    if its items do not all have the first one's size, or one holds an
    unhashable point, they are checked in order and the first defective
    one raises. No item raises ShapeError(empty), and items of fewer than
    two points raise ShapeError(small) if it is given.
    """
    family = hasattr(collection, "column")
    items = collection if family or isinstance(collection, (list, tuple)) else list(collection)
    if not len(items):
        raise ShapeError(empty)
    size = items.k if family else len(items[0])
    if small and size < 2:
        raise ShapeError(small)
    v = len(index)
    table = bytes(map(index.get, range(256), repeat(v))) if v < 256 else None

    def translate(points):
        if table and isinstance(points, bytes):
            return points.translate(table)
        idx = map(index.get, points, repeat(v))
        return bytes(idx) if table else array("I", idx)

    def fail(j: int):
        item = tuple(items.points[j * size : j * size + size]) if family else items[j]
        _check_item(item, size, index, noun, repeat_error)
        raise AssertionError(f"{noun} {j} is flagged but shows no defect")

    if family:
        return (lambda c: translate(items.column(c))), len(items), size, fail
    try:
        if set(map(len, items)) == {size}:
            idx = translate(chain.from_iterable(items))
            return [idx[c::size] for c in range(size)].__getitem__, len(items), size, fail
    except TypeError:
        pass
    for it in items:
        _check_item(it, size, index, noun, repeat_error)
    raise AssertionError("a defect that no item shows")


def _planes(col, bits: int) -> list[int]:
    """Bit t of every lane of `col` (bytes, or 32-bit lanes), t < bits, as
    one int per t holding lane i's bit at bit i.

    Lane i = 8g + r of byte q is element g of the slice that starts at
    byte q of lane r and steps 8 lanes; bit t of that slice's bytes,
    shifted up by r, lands at bit i.
    """
    step = 1 if isinstance(col, bytes) else 4
    if step == 4 and sys.byteorder == "big":
        col = array("I", col)
        col.byteswap()
    raw = bytes(col)
    ones = int.from_bytes(b"\x01" * -(-len(raw) // (8 * step)), "little")
    planes = []
    for q in range(-(-bits // 8)):
        parts = [int.from_bytes(raw[q + step * r :: 8 * step], "little") for r in range(8)]
        for t in range(min(8, bits - 8 * q)):
            planes.append(reduce(or_, ((p >> t & ones) << r for r, p in enumerate(parts))))
    return planes


def _split(planes: list[int], lanes: int):
    """Every value held in some lane with the set of lanes holding it, by
    an AND-trie over the value's bit planes from the top bit down."""
    stack = [(lanes, len(planes), 0)]
    while stack:
        held, t, x = stack.pop()
        if not t:
            yield x, held
            continue
        t -= 1
        high = held & planes[t]
        if high:
            stack.append((high, t, x | 1 << t))
        if high != held:
            stack.append((held ^ high, t, x))


def _bitset_incidence(column, size: int, v: int, fail) -> list[int]:
    """rows, rows[i] the int whose bit j is set iff item j holds index i,
    from the index columns `column(c)` of items of `size` points each.

    Each column in turn splits into its bit planes, and the AND-trie over
    them gives every index's items in that column; OR-ing the columns
    gives the rows. An item whose index shows up in two columns repeats a
    point, and index v is a point outside the point set. The first such
    item, named by the lowest failing lane, fails.
    """
    rows, bad = [0] * (v + 1), 0
    for c in range(size):
        col = column(c)
        for x, held in _split(_planes(col, v.bit_length()), (1 << len(col)) - 1):
            bad |= rows[x] & held
            rows[x] |= held
    bad |= rows.pop()
    if bad:
        fail((bad & -bad).bit_length() - 1)
    return rows


def _index_incidence(rows: list, cols: list, start: int, fail) -> None:
    """Append to rows[i], an array per index and one for index v, the
    items of the index columns `cols` that hold index i, numbered from
    `start`. The first of those items that holds index v, or one index
    twice (it shows up twice in that index's row), fails."""
    marks = list(map(len, rows))
    for col in cols:
        for j, x in enumerate(col, start):
            rows[x].append(j)
    added = (row[mark:] if mark else row for row, mark in zip(rows[:-1], marks))
    bad = [*rows[-1], *(min(j for j, n in Counter(new).items() if n > 1)
                        for new in added if len(set(new)) < len(new))]
    if bad:
        fail(min(bad) - start)


def _chunks(blocks):
    """The collections that `blocks` is read as, in turn: itself if it is
    packed or a list or tuple of items, the nonempty chunks it yields if
    its first item is packed, else a list of its items. Packed means
    having `k`, len() and `column(j)`, as a family has."""
    if hasattr(blocks, "column"):
        return [blocks]
    items = iter(blocks)
    first = next(items, items)  # items itself if there is none
    if hasattr(first, "column"):
        return filter(len, chain([first], items))
    if isinstance(blocks, (list, tuple)):
        return [blocks]
    return [[] if first is items else [first, *items]]


def _block_incidence(blocks, index: dict):
    """Returns (b, k, r histogram, coverage rows) after the block checks.

    The blocks are read a collection at a time (see `_chunks`), and each
    form's state is summed over them. In the bitset form a chunk's v
    bitsets give its r counts and its C(v, 2) pair counts, added into one
    flat list, so the state does not grow with b. The index form gathers
    every chunk's index columns and rows. Row a of the coverage rows, made
    when the sweep reaches it, lists the coverage of the pairs (a, c) for
    c > a in order.
    """
    empty = "cannot verify an empty block collection"
    v, b, k = len(index), 0, None
    for chunk in _chunks(blocks):
        column, n, size, fail = _indices(chunk, index, "block", ShapeError, empty,
                                         "blocks must have at least two points")
        if k is None:
            k, r, pairs, cols = size, None, None, None
            packed = v <= _BITSET_MAX_V_PER_K * k
            rows = None if packed else [array("I") for _ in range(v + 1)]
        elif size != k:
            raise ShapeError(f"expected uniform block size {k}, found {size}")
        if packed:
            inc = _bitset_incidence(column, k, v, fail)
            counts = [(row & other).bit_count() for a, row in enumerate(inc) for other in inc[a + 1 :]]
            pairs = counts if pairs is None else list(map(add, pairs, counts))
            counts = list(map(int.bit_count, inc))
            r = counts if r is None else list(map(add, r, counts))
            inc = counts = None
        else:
            new = [column(c) for c in range(k)]
            _index_incidence(rows, new, b, fail)
            if cols is None:
                cols = new
            else:  # bytes while v < 256, else array("I"): both take +=
                cols = [bytearray(col) if type(col) is bytes else col for col in cols]
                for col, more in zip(cols, new):
                    col += more
        b += n
        chunk = column = fail = None  # dropped before the next chunk is made
    if not b:
        raise ShapeError(empty)
    if packed:
        flat = iter(pairs)
        rows = (islice(flat, v - 1 - a) for a in range(v))
    else:
        rows.pop()
        r = map(len, rows)
        # Row a: how often each later index turns up in the blocks of a.
        rows = (
            map(Counter(chain.from_iterable(map(col.__getitem__, row) for col in cols)).get,
                range(a + 1, v), repeat(0))
            for a, row in enumerate(rows)
        )
    return b, k, dict(sorted(Counter(r).items())), rows


def _sweep(pts: list, rows, ginc: list[int]):
    """One pass over the pairs a < c, split by the same-group mask.

    Returns (cross-pair coverage histogram, worst same-group coverage,
    first covered same-group pair, first cross pair whose coverage differs
    from the first cross pair's).
    """
    hist: Counter = Counter()
    reference = None
    within = 0
    within_example = cross_example = None
    for a, covs in enumerate(rows):
        group_row = ginc[a]
        for c, cov in enumerate(covs, a + 1):
            if group_row & ginc[c]:
                within = max(within, cov)
                if cov and within_example is None:
                    within_example = (pts[a], pts[c])
            else:
                hist[cov] += 1
                if reference is None:
                    reference = cov
                elif cov != reference and cross_example is None:
                    cross_example = (pts[a], pts[c])
    return dict(sorted(hist.items())), within, within_example, cross_example


def verify_bibd(points, blocks) -> DesignReport:
    """Sweep every pair of points and require constant coverage.

    Accepts a BlockFamily, any iterable of blocks, or an iterable of
    packed chunks of blocks (see `_chunks`). Nonuniform block sizes
    raise ShapeError and stray points raise ContainmentError; balance
    failures do not raise, they come back as a failing report whose
    counterexample is the smallest pair disagreeing with the first pair's
    coverage.
    """
    pts = sorted(set(points))
    index = {p: i for i, p in enumerate(pts)}
    b, k, r_hist, rows = _block_incidence(blocks, index)
    hist, _, _, counterexample = _sweep(pts, rows, [0] * len(pts))
    passed = len(hist) == 1
    return DesignReport(
        v=len(pts),
        k=k,
        b=b,
        r_histogram=r_hist,
        lambda_histogram=hist,
        passed=passed,
        counterexample=None if passed else counterexample,
    )


def verify_gdd(points, groups, blocks) -> GddReport:
    """Check the grouped balance property.

    Passes iff the groups partition the points (with more than one group),
    no block covers a same-group pair, and every cross-group pair is
    covered the same number of times. Partition defects are reported, not
    raised; a group that repeats a point raises PartitionError and shape
    or containment defects raise as in verify_bibd.
    """
    pts = sorted(set(points))
    index = {p: i for i, p in enumerate(pts)}
    column, group_count, size, fail = _indices(groups, index, "group", PartitionError,
                                               "cannot verify with an empty group collection")
    ginc = _bitset_incidence(column, size, len(pts), fail)
    partition_ok = group_count > 1 and all(
        row.bit_count() == 1 for row in ginc
    )
    b, k, r_hist, rows = _block_incidence(blocks, index)
    hist, within, within_example, cross_example = _sweep(pts, rows, ginc)
    cross_ok = len(hist) == 1
    passed = partition_ok and within == 0 and cross_ok
    return GddReport(
        v=len(pts),
        k=k,
        b=b,
        r_histogram=r_hist,
        lambda_histogram=hist,
        passed=passed,
        counterexample=None if passed else within_example or cross_example,
        group_count=group_count,
        partition_ok=partition_ok,
        within_group_coverage=within,
        cross_group_lambda=next(iter(hist)) if cross_ok else None,
    )


def observed_params(report: DesignReport) -> tuple[int, int, int, int]:
    """The (v, b, r, lambda) of a passing pair-balance report.

    Re-asserts the double-counting identities r (k-1) = lambda (v-1) and
    b k = v r before returning; those cannot fail for a genuinely balanced
    design, so a failure is an implementation bug. Grouped reports obey a
    different identity and are rejected.
    """
    if isinstance(report, GddReport):
        raise StateError("grouped reports have their own parameter identities")
    if not report.passed:
        raise StateError("report did not pass; parameters are not single-valued")
    (r,) = report.r_histogram
    (lam,) = report.lambda_histogram
    v, k, b = report.v, report.k, report.b
    if r * (k - 1) != lam * (v - 1) or b * k != v * r:
        raise ConsistencyError(
            f"double-counting identities failed for v={v}, k={k}, b={b}, "
            f"r={r}, lambda={lam}"
        )
    return v, b, r, lam
