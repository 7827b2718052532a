"""Fixed pure-Python reference work, timed beside every op by run.py.

Usage: python3 perfbench/refkernel.py

Independent of design_forge, so no change to the program moves it. It does
the same kind of work the program does (an XOR-subset depth-first search
over GF(2^7)* that keeps its 4-blocks, then a pair count over a dict), so a
host that runs the program slowly for a while runs this slowly too. run.py
divides op times by the mean time of these runs to get the *_ref metrics.
"""

from __future__ import annotations

import sys

GROUND = tuple(range(1, 128))
K = 4
REPEAT = 3
# Zero-XOR-sum 4-subsets of GF(2^7)* and the distinct pairs they cover.
EXPECTED = (82677, 8001)


def kernel() -> tuple[int, int]:
    gset = set(GROUND)
    n = len(GROUND)
    blocks = []
    chosen = []

    def walk(lo: int, acc: int) -> None:
        if len(chosen) == K - 1:
            if acc in gset and acc > chosen[-1]:
                blocks.append((*chosen, acc))
            return
        for idx in range(lo, n - (K - 1 - len(chosen))):
            chosen.append(GROUND[idx])
            walk(idx + 1, acc ^ GROUND[idx])
            chosen.pop()

    walk(0, 0)
    counts: dict[tuple[int, int], int] = {}
    for b in blocks:
        for i in range(K):
            for j in range(i + 1, K):
                key = (b[i], b[j])
                counts[key] = counts.get(key, 0) + 1
    return len(blocks), len(counts)


if __name__ == "__main__":
    sys.exit(0 if all(kernel() == EXPECTED for _ in range(REPEAT)) else 1)
