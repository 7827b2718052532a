"""Exact integer recurrences for all design parameters.

Everything in this module is computed without enumerating a single block:
block counts come from the weight-distribution recursion of the length
2^m - 1 Hamming code; per-point counts, pair-coverage counts and the
lifted (grouped) coverage counts are stepped with them in one pass over k
by `parameter_rows`, and the lifted counts are asserted equal to their
second route, the scaling identity.

The library's values are plain Python ints, so nothing overflows.
`parameter_rows` can also step exact decimals, which `params` formats in
linear time where `str(int)` is quadratic in the digit count. Every
division of a recurrence is preceded by an exact-remainder check; a
nonzero remainder can only come from a transcription bug and raises
ConsistencyError. The binomials carried from one step to the next divide
exactly by identity.
"""
from __future__ import annotations

from itertools import islice
from math import factorial

from .errors import ConsistencyError, RangeError
from .field import check_exponent

def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ConsistencyError(f"{what}: {num} is not divisible by {den}")
    return q


def hamming_weight_counts(m: int, k_max: int) -> list[int]:
    """Counts b_k of zero-XOR-sum k-subsets of the nonzero elements of GF(2^m).

    Entry k is also the number of weight-k codewords of the binary Hamming
    code of length v = 2^m - 1. Computed by the recursion

        (k+1) b_{k+1} + b_k + (v-k+1) b_{k-1} = C(v, k),   b_0 = 1,

    which forces b_1 = b_2 = 0 and stays exact at every step. C(v, k) is
    carried from one step to the next. Entries 2 .. 2^m - 3 are the b_k of
    `parameter_rows`; the last two, b_{v-1} = 0 and b_v = 1, are where the
    recursion ends, which `parameter_rows` asserts after its last row.
    """
    check_exponent(m)
    v = (1 << m) - 1
    if not 0 <= k_max <= v:
        raise RangeError(f"k_max must be in 0..{v}, got {k_max}")
    rows = parameter_rows(m)
    if k_max < v - 1:  # the rows past k_max are never made
        rows = islice(rows, max(k_max - 1, 0))
    return [1, 0, *(b for _, b, _, _, _ in rows), 0, 1][: k_max + 1]


def closed_form_balance(m: int, k: int) -> int:
    """Closed-form lambda_k for k = 3..7 (rows k >= 5 need m >= 4)."""
    check_exponent(m)
    if k not in (3, 4, 5, 6, 7):
        raise RangeError(f"closed forms cover k = 3..7 only, got {k}")
    if k >= 5 and m < 4:
        raise RangeError(f"closed forms for k >= 5 need m >= 4, got m={m}")
    q = 1 << m
    if k == 3:
        return 1
    if k == 4:
        return _exact_div(q - 4, 2, "closed form k=4")
    if k == 5:
        return _exact_div((q - 4) * (q - 8), 6, "closed form k=5")
    if k == 6:
        return _exact_div((q - 4) * (q - 6) * (q - 8), 24, "closed form k=6")
    return _exact_div(
        (q - 4) * (q - 6) * (q * q - 15 * q + 71), 120, "closed form k=7"
    )


def reference_gdd_balance(m: int, k: int) -> int:
    """Balance of the earlier grouped construction over GF(2^m), for comparison.

    prod_{i=3}^{k-1} (2^m - 2^i) / (k-2)!. Emitted verbatim as a reference
    column only: for small m the product collapses to zero and no design
    validity is claimed.
    """
    check_exponent(m)
    if k < 3:
        raise RangeError(f"reference balance needs k >= 3, got {k}")
    num = 1
    for i in range(3, k):
        num *= (1 << m) - (1 << i)
    return _exact_div(num, factorial(k - 2), "reference balance")


def _weight_step(k: int, v: int, prev, b, c):
    """One step of the weight recursion: from b_{k-1}, b_k and C(v, k) to
    b_k, b_{k+1} and C(v, k+1). C(v, k) * (v - k) divides by k + 1 exactly."""
    nxt = _exact_div(c - b - (v - k + 1) * prev, k + 1, "weight-count recursion")
    return b, nxt, c * (v - k) // (k + 1)


def parameter_rows(m: int, unit=1):
    """Yield (k, b_k, r_k, lambda_k, lambda'_k) for k = 2 .. 2^m - 3, one
    pass over k without any enumeration.

    b_k is stepped by the weight recursion of `hamming_weight_counts`. The
    other three columns are stepped with it, from r_3 = (2^m - 2) / 2 and
    lambda_3 = lambda'_3 = 1 (the pair {i, j} lies in exactly one 3-subset,
    {i, j, i+j}):

        r_{k+1}       = b_k - r_k + s C(h, k/2)
        lambda_{k+1}  = (2^m - k - 1) / (k - 1) * lambda_k + s C(h-1, k/2 - 1)
        lambda'_{k+1} = (2^(m+1) - 2k - 2) / (k - 1) * lambda'_k
                        + s 2^(k-2) C(h-1, k/2 - 1)

    with h = 2^(m-1) - 1 and one sign s: +1 at k = 2 (mod 4), -1 at
    k = 0 (mod 4), 0 at odd k. Both binomials and 2^(k-2) are carried from
    one step to the next. The rational factors always divide evenly; this
    is asserted. lambda'_k is the lifted (grouped) coverage in GF(2^(m+1)),
    and every row is asserted equal to its second route, the scaling
    identity lambda'_k = 2^(k-3) * lambda_k. Row k = 2 is zero, and the
    top row k = 2^m - 3 is pinned to zero by definition (those families
    are empty); the r step reproduces the same zero, which the test suite
    checks. After the top row the weight recursion is stepped to its end,
    which must be b_{v-1} = 0 and b_v = 1.

    Every value is built from `unit` and the small ints k, m and h, so
    the values are of unit's type: ints by default, or exact integers in
    any number type with +, -, *, // and divmod. Rows are made as they are
    taken, so a consumer that stops early never pays for the rest.
    """
    check_exponent(m)
    size = 1 << m
    v, top = size - 1, size - 3
    h = (1 << (m - 1)) - 1
    zero = 0 * unit
    prev, b, c = _weight_step(1, v, *_weight_step(0, v, zero, unit, unit))
    yield 2, b, zero, zero, zero
    r, lam, lp = h * unit, unit, unit  # the k = 3 row; r_3 = (2^m - 2) / 2 = h
    c_h = h * unit  # C(h, k // 2)
    p2 = 2 * unit  # 2^(k - 2)
    for k in range(3, top - 1):
        prev, b, c = _weight_step(k - 1, v, prev, b, c)
        yield k, b, r, lam, lp
        r = b - r
        lam = _exact_div((size - k - 1) * lam, k - 1, "balance recurrence")
        lp = _exact_div((2 * size - 2 * k - 2) * lp, k - 1, "lifted balance recurrence")
        if k % 2 == 0:
            half = k // 2
            c_h = c_h * (h - half + 1) // half
            c_h1 = c_h * half // h  # C(h - 1, k/2 - 1)
            s = 1 if k % 4 == 2 else -1
            r += s * c_h
            lam += s * c_h1
            lp += s * c_h1 * p2
        if lp != lam * p2:
            raise ConsistencyError(
                f"lifted balance routes disagree at k={k + 1}: "
                f"recurrence {lp}, scaled {lam * p2}"
            )
        p2 += p2
    prev, b, c = _weight_step(top - 2, v, prev, b, c)
    yield top - 1, b, r, lam, lp
    prev, b, c = _weight_step(top - 1, v, prev, b, c)
    yield top, b, zero, zero, zero  # pinned
    prev, b, c = _weight_step(v - 1, v, *_weight_step(top, v, prev, b, c))
    if prev != 0 or b != unit:
        raise ConsistencyError(f"weight recursion ends at b_{v - 1} = {prev}, b_{v} = {b}")


# Column views of parameter_rows, kept because perfbench/traced.py wraps these names.
def replication_numbers(m: int) -> dict[int, int]:
    """Per-point block counts r_k, k = 2 .. 2^m - 3."""
    return {k: r for k, _, r, _, _ in parameter_rows(m)}


def balance_parameters(m: int) -> dict[int, int]:
    """Pair-coverage counts lambda_k, k = 2 .. 2^m - 3."""
    return {k: lam for k, _, _, lam, _ in parameter_rows(m)}


def gdd_balance_parameters(m: int) -> dict[int, int]:
    """Cross-group coverage counts lambda'_k of the lifted designs, k = 2 .. 2^m - 3."""
    return {k: lp for k, _, _, _, lp in parameter_rows(m)}
