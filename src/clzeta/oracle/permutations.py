"""Counting commuting tuples of permutations, by direct group arithmetic."""

from __future__ import annotations

import itertools
import math


def _compose(f, g):
    return tuple(map(f.__getitem__, g))


def commuting_perm_count(n: int, r: int) -> int:
    """Number of r-tuples of pairwise commuting permutations of n letters.

    r = 1 is n!.  r = 2 sums, over every g, the size of its centralizer found
    by filtering.  r = 3 filters a third element against each commuting pair.
    Bounds: n <= 6 for r = 2 and n <= 5 for r = 3 keep the scan exhaustive
    but cheap.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if r == 1:
        return math.factorial(n)
    perms = list(itertools.permutations(range(n)))
    if r == 2:
        if n > 6:
            raise ValueError("r=2 supports n <= 6")
        return sum(
            1
            for g in perms
            for h in perms
            if _compose(g, h) == _compose(h, g)
        )
    if r == 3:
        if n > 5:
            raise ValueError("r=3 supports n <= 5")
        pairs = [
            (g, h)
            for g in perms
            for h in perms
            if _compose(g, h) == _compose(h, g)
        ]
        total = 0
        for g, h in pairs:
            for k in perms:
                if _compose(g, k) == _compose(k, g) and _compose(h, k) == _compose(k, h):
                    total += 1
        return total
    raise ValueError("r must be 1, 2 or 3")
