"""Exact integer recurrences for all design parameters.

Everything in this module is computed without enumerating a single block:
block counts come from the weight-distribution recursion of the length
2^m - 1 Hamming code, per-point counts and pair-coverage counts from their
own recurrences, and the lifted (grouped) coverage counts both from a
dedicated recurrence and from the scaling identity, which are asserted
equal.

All values are plain Python ints, so nothing overflows. Every division is
preceded by an exact-remainder check; a nonzero remainder can only come
from a transcription bug and raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

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

    which forces b_1 = b_2 = 0 and stays exact at every step.
    """
    check_exponent(m)
    v = (1 << m) - 1
    if not 0 <= k_max <= v:
        raise RangeError(f"k_max must be in 0..{v}, got {k_max}")
    b = [0] * (k_max + 1)
    b[0] = 1
    prev = 0  # b_{k-1}
    for k in range(k_max):
        rhs = comb(v, k) - b[k] - (v - k + 1) * prev
        b[k + 1] = _exact_div(rhs, k + 1, "weight-count recursion")
        prev = b[k]
    return b


def replication_numbers(m: int) -> dict[int, int]:
    """Per-point block counts r_k of the zero-sum designs, k = 2 .. 2^m - 3.

    Seeded by r_2 = 0 and r_3 = (2^m - 2) / 2, then stepped by

        r_{k+1} = b_k - r_k  [ + C(2^(m-1)-1, k/2) if k = 2 (mod 4),
                               - C(2^(m-1)-1, k/2) if k = 0 (mod 4) ].

    The top row k = 2^m - 3 is pinned to zero by definition (that family
    is empty); the recurrence reproduces the same zero, which the test
    suite checks.
    """
    check_exponent(m)
    top = (1 << m) - 3
    b = hamming_weight_counts(m, top)
    r = {2: 0, 3: ((1 << m) - 2) // 2}
    half = (1 << (m - 1)) - 1
    for k in range(3, top - 1):
        nxt = b[k] - r[k]
        if k % 4 == 2:
            nxt += comb(half, k // 2)
        elif k % 4 == 0:
            nxt -= comb(half, k // 2)
        r[k + 1] = nxt
    r[top] = 0
    return r


def balance_parameters(m: int) -> dict[int, int]:
    """Pair-coverage counts lambda_k of the zero-sum designs, k = 2 .. 2^m - 3.

    lambda_2 = 0, lambda_3 = 1 (the pair {i, j} lies in exactly one
    3-subset, {i, j, i+j}), then the three-case step

        lambda_{k+1} = (2^m - k - 1) / (k - 1) * lambda_k
                       [ +/- C(2^(m-1)-2, k/2 - 1) for even k ].

    The rational factor always divides evenly; this is asserted. The top
    row k = 2^m - 3 is pinned to zero.
    """
    check_exponent(m)
    top = (1 << m) - 3
    size = 1 << m
    lam = {2: 0, 3: 1}
    for k in range(3, top - 1):
        base = _exact_div((size - k - 1) * lam[k], k - 1, "balance recurrence")
        if k % 4 == 2:
            base += comb((1 << (m - 1)) - 2, k // 2 - 1)
        elif k % 4 == 0:
            base -= comb((1 << (m - 1)) - 2, k // 2 - 1)
        lam[k + 1] = base
    lam[top] = 0
    return lam


def gdd_balance_parameters(m: int) -> dict[int, int]:
    """Cross-group coverage counts lambda'_k of the lifted designs in GF(2^(m+1)).

    Computed along two independent routes and asserted equal entry by
    entry: the dedicated recurrence

        lambda'_{k+1} = (2^(m+1) - 2k - 2) / (k - 1) * lambda'_k
                        [ +/- 2^(k-2) C(2^(m-1)-2, k/2 - 1) for even k ]

    seeded by lambda'_3 = 1, and the scaling identity
    lambda'_k = 2^(k-3) * lambda_k.
    """
    check_exponent(m)
    top = (1 << m) - 3
    lam = balance_parameters(m)
    q = 1 << (m + 1)
    lp = {2: 0, 3: 1}
    for k in range(3, top - 1):
        base = _exact_div((q - 2 * k - 2) * lp[k], k - 1, "lifted balance recurrence")
        corr = (1 << (k - 2)) * comb((1 << (m - 1)) - 2, k // 2 - 1)
        if k % 4 == 2:
            base += corr
        elif k % 4 == 0:
            base -= corr
        lp[k + 1] = base
    lp[top] = 0
    for k in range(3, top + 1):
        scaled = (1 << (k - 3)) * lam[k]
        if scaled != lp[k]:
            raise ConsistencyError(
                f"lifted balance routes disagree at k={k}: "
                f"recurrence {lp[k]}, scaled {scaled}"
            )
    return lp


def _check_closed_form_range(m: int, k: int) -> None:
    check_exponent(m)
    if k not in (3, 4, 5, 6, 7):
        raise RangeError(f"closed forms cover k = 3..7 only, got {k}")
    if k >= 5 and m < 4:
        raise RangeError(f"closed forms for k >= 5 need m >= 4, got m={m}")


def closed_form_balance(m: int, k: int) -> int:
    """Closed-form lambda_k for k = 3..7 (rows k >= 5 need m >= 4)."""
    _check_closed_form_range(m, k)
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


def closed_form_gdd_balance(m: int, k: int) -> int:
    """Closed-form lambda'_k for k = 3..7, in terms of the ambient size 2^(m+1)."""
    _check_closed_form_range(m, k)
    q = 1 << (m + 1)
    if k == 3:
        return 1
    if k == 4:
        return _exact_div(q - 8, 2, "lifted closed form k=4")
    if k == 5:
        return _exact_div((q - 8) * (q - 16), 6, "lifted closed form k=5")
    if k == 6:
        return _exact_div((q - 8) * (q - 12) * (q - 16), 24, "lifted closed form k=6")
    return _exact_div(
        (q - 8) * (q - 12) * (q * q - 30 * q + 284), 120, "lifted closed form k=7"
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


def closed_forms(m: int) -> dict[int, tuple[int, int]]:
    """Both closed-form columns (lambda_k, lambda'_k) for k = 3..7.

    At m = 3 only the k = 3, 4 rows exist (the larger k fall outside the
    design range entirely), so only those are returned.
    """
    check_exponent(m)
    hi = 7 if m >= 4 else 4
    return {
        k: (closed_form_balance(m, k), closed_form_gdd_balance(m, k))
        for k in range(3, hi + 1)
    }


@dataclass(frozen=True)
class ParamRow:
    """One row of the parameter table: counts for a single block size."""

    blocks: int       # b_k, number of blocks
    replication: int  # r_k, blocks through a fixed point
    balance: int      # lambda_k, blocks through a fixed pair
    gdd_balance: int  # lambda'_k for the lifted design in GF(2^(m+1))


@dataclass(frozen=True)
class ParamTable:
    """All parameter rows for GF(2^m), k = 2 .. 2^m - 3, recurrence only."""

    m: int
    rows: dict[int, ParamRow]


def param_table(m: int) -> ParamTable:
    """Assemble the full table for GF(2^m) without any enumeration."""
    top = (1 << m) - 3
    b = hamming_weight_counts(m, top)
    r = replication_numbers(m)
    lam = balance_parameters(m)
    lp = gdd_balance_parameters(m)
    rows = {k: ParamRow(b[k], r[k], lam[k], lp[k]) for k in range(2, top + 1)}
    return ParamTable(m, rows)
