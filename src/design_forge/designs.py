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
grouped check is the plain sweep plus that mask. Reports keep the full
histograms so near-misses stay diagnosable, and the first counterexample
is deterministic (smallest failing pair in lexicographic order).
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

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


def _items(collection):
    """The blocks of a BlockFamily, or any collection as a sequence."""
    items = getattr(collection, "blocks", collection)
    return items if isinstance(items, (list, tuple)) else list(items)


def _incidence(items, index: dict, noun: str, repeat_error, packed: bool):
    """Check uniform size, no repeated point and containment, item by item.

    Returns (item size, rows) where rows[i] holds the items that contain
    the point with index i: packed, an int whose bit j is set iff item j
    does; otherwise an array of those j.
    """
    size = len(items[0])
    nbytes = (len(items) + 7) >> 3
    rows = [bytearray(nbytes) if packed else array("I") for _ in index]
    for j, item in enumerate(items):
        if len(item) != size:
            raise ShapeError(
                f"expected uniform {noun} size {size}, found {len(item)}"
            )
        if len(set(item)) != size:
            raise repeat_error(f"{noun} {tuple(item)} repeats a point")
        byte, bit = j >> 3, 1 << (j & 7)
        try:
            for x in item:
                if packed:
                    rows[index[x]][byte] |= bit
                else:
                    rows[index[x]].append(j)
        except KeyError as exc:
            raise ContainmentError(
                f"{noun} {tuple(item)} uses point {exc.args[0]} "
                "outside the point set"
            ) from None
    if packed:
        for i, row in enumerate(rows):
            rows[i] = int.from_bytes(row, "little")
    return size, rows


def _block_incidence(blocks, pts: list, index: dict):
    """Returns (b, k, r histogram, coverage rows) after the block checks.

    Row a of the coverage rows, made when the sweep reaches it, lists
    the coverage of the pairs (a, c) for c > a in order.
    """
    items = _items(blocks)
    if not items:
        raise ShapeError("cannot verify an empty block collection")
    if len(items[0]) < 2:
        raise ShapeError("blocks must have at least two points")
    packed = len(pts) <= _BITSET_MAX_V_PER_K * len(items[0])
    k, inc = _incidence(items, index, "block", ShapeError, packed)
    r_counts = Counter(map(int.bit_count if packed else len, inc))
    if packed:
        rows = (
            [(row & other).bit_count() for other in inc[a + 1:]]
            for a, row in enumerate(inc)
        )
    else:
        # Row a: how often each later point turns up in the blocks of a.
        rows = (
            map(Counter(chain.from_iterable(map(items.__getitem__, row))).get,
                pts[a + 1:], repeat(0))
            for a, row in enumerate(inc)
        )
    return len(items), k, dict(sorted(r_counts.items())), rows


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

    Accepts a BlockFamily or any iterable of blocks. Nonuniform block sizes
    raise ShapeError and stray points raise ContainmentError; balance
    failures do not raise, they come back as a failing report whose
    counterexample is the smallest pair disagreeing with the first pair's
    coverage.
    """
    pts = sorted(set(points))
    index = {p: i for i, p in enumerate(pts)}
    b, k, r_hist, rows = _block_incidence(blocks, pts, index)
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
    group_items = _items(groups)
    if not group_items:
        raise ShapeError("cannot verify with an empty group collection")
    _, ginc = _incidence(group_items, index, "group", PartitionError, True)
    partition_ok = len(group_items) > 1 and all(
        row.bit_count() == 1 for row in ginc
    )
    b, k, r_hist, rows = _block_incidence(blocks, pts, index)
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
        group_count=len(group_items),
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
