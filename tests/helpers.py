"""Shared brute-force oracles and a subprocess CLI runner.

The oracles enumerate with itertools.combinations and direct predicate
checks, deliberately sharing no code with the package's search path, so
every production count gets cross-examined by a second route.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import reduce
from itertools import combinations
from math import comb
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def xor_sum(items) -> int:
    return reduce(lambda a, b: a ^ b, items, 0)


def made_blocks(chunks) -> list[tuple[int, ...]]:
    """The blocks of a stream of packed chunks (`blocks.lift_chunks`), in
    the order they are made, read a column at a time as the verifier reads
    them."""
    return [b for c in chunks for b in zip(*map(c.column, range(c.k)))]


def brute_xor_subsets(ground, k: int, target: int) -> list[tuple[int, ...]]:
    """Every k-subset of `ground`, sorted ascending, whose XOR is `target`,
    as tuples in lexicographic order."""
    return [b for b in combinations(ground, k) if xor_sum(b) == target]


def brute_zero_sum(m: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of the nonzero elements of GF(2^m) with XOR-sum 0."""
    return [b for b in combinations(range(1, 2**m), k) if xor_sum(b) == 0]


def brute_zero_sum_containing(m: int, k: int, i: int, j: int) -> list[tuple[int, ...]]:
    return [b for b in brute_zero_sum(m, k) if i in b and j in b]


def brute_sum_to_shift(m: int, k: int, alpha: int) -> list[tuple[int, ...]]:
    ground = [x for x in range(1, 2**m) if x != alpha]
    return [b for b in combinations(ground, k) if xor_sum(b) == alpha]


def brute_sum_to_zero(m: int, k: int, alpha: int) -> list[tuple[int, ...]]:
    ground = [x for x in range(1, 2**m) if x != alpha]
    return [b for b in combinations(ground, k) if xor_sum(b) == 0]


def brute_shift_invariant(m: int, k: int, alpha: int) -> list[tuple[int, ...]]:
    nz = range(1, 2**m)
    return [b for b in combinations(nz, k) if set(b) == {x ^ alpha for x in b}]


def brute_gdd_blocks(ambient_exp: int, k: int, alpha: int) -> list[tuple[int, ...]]:
    ground = [x for x in range(1, 2**ambient_exp) if x != alpha]
    out = []
    for b in combinations(ground, k):
        if xor_sum(b) != alpha:
            continue
        if set(b) & {x ^ alpha for x in b}:
            continue
        out.append(b)
    return out


def brute_gdd_groups(ambient_exp: int, alpha: int) -> list[tuple[int, ...]]:
    """The pairs {x, x ^ alpha} with x outside {0, alpha}: family U at k = 2."""
    ground = [x for x in range(1, 2**ambient_exp) if x != alpha]
    return sorted({tuple(sorted((x, x ^ alpha))) for x in ground})


def hamming_weight_enumerator(m: int) -> list[int]:
    """Weight distribution of the binary Hamming code of length n = 2^m - 1.

    The closed form A(x) = [(1+x)^n + n(1-x)(1-x^2)^((n-1)/2)] / (n+1)
    (MacWilliams & Sloane, ch. 6), expanded coefficient by coefficient.
    """
    return [hamming_weight_count(m, k) for k in range(2**m)]


def hamming_weight_count(m: int, k: int) -> int:
    """Coefficient k of `hamming_weight_enumerator(m)`: the zero-sum
    k-subsets of the nonzero elements of GF(2^m)."""
    n = 2**m - 1
    t = (n - 1) // 2
    # Coefficient of x^k in (1-x)(1-x^2)^t; the -x factor flips odd k.
    tail = (-1) ** (k // 2 + k % 2) * comb(t, k // 2)
    count, rem = divmod(comb(n, k) + n * tail, n + 1)
    assert rem == 0, (m, k)
    return count


def closed_form_gdd_balance(m: int, k: int) -> int:
    """Closed-form lambda'_k of the lifted design for k = 3..7, in terms of
    the ambient size q = 2^(m+1). Rows k >= 5 hold for m >= 4."""
    q = 2 ** (m + 1)
    num, den = {
        3: (1, 1),
        4: (q - 8, 2),
        5: ((q - 8) * (q - 16), 6),
        6: ((q - 8) * (q - 12) * (q - 16), 24),
        7: ((q - 8) * (q - 12) * (q * q - 30 * q + 284), 120),
    }[k]
    value, rem = divmod(num, den)
    assert rem == 0, (m, k)
    return value


def pair_coverage(points, blocks) -> dict[tuple[int, int], int]:
    """Coverage count for every unordered pair of points."""
    cov = {pr: 0 for pr in combinations(sorted(points), 2)}
    for b in blocks:
        for pr in combinations(sorted(b), 2):
            cov[pr] += 1
    return cov


def run_python(args, env_extra=None) -> subprocess.CompletedProcess:
    """Run the interpreter in a subprocess, importing straight from the src tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


def run_cli(args, env_extra=None) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess, importable straight from the src tree."""
    return run_python(["-m", "design_forge.cli", *args], env_extra)
