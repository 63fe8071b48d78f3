"""Reference results computed without the code under test.

Recurrence verdicts here come from a comparison sort (np.sort) and a
binary-search k-vector, where the library counts.  Stable-configuration
counts and spanning-tree counts use closed forms.
"""
from __future__ import annotations

from itertools import combinations_with_replacement, product
from math import comb

import numpy as np


def recurrence(top, bottom) -> tuple:
    """(asm verdict, ssm verdict) for a stable configuration.

    k_j counts top entries below j; asm needs the j-th smallest bottom
    entry to reach k_j for every j, ssm only every prefix sum.
    """
    top = np.sort(np.asarray(top, dtype=np.int64))
    bottom = np.sort(np.asarray(bottom, dtype=np.int64))
    k = np.searchsorted(top, np.arange(1, len(bottom) + 1), side="left")
    asm = bool(np.all(bottom >= k))
    ssm = bool(np.all(np.cumsum(bottom) >= np.cumsum(k)))
    return asm, ssm


def level(top, bottom) -> int:
    return sum(top) + sum(bottom) - len(top) * len(bottom)


def is_stable(top, bottom) -> bool:
    m, n = len(top), len(bottom)
    return all(0 <= t < n for t in top) and all(0 <= b <= m for b in bottom)


def stable_count(m: int, n: int, sorted_only: bool) -> int:
    """Stable configurations of K0_{m,n}; for sorted ones, multisets."""
    if sorted_only:
        return comb(n + m - 1, m) * comb(m + 1 + n - 1, n)
    return n**m * (m + 1) ** n


def spanning_trees(m: int, n: int) -> int:
    """Spanning trees of K_{m+1,n}: (m+1)^(n-1) * n^m."""
    return (m + 1) ** (n - 1) * n**m


def sorted_recurrent(m: int, n: int, model: str = "asm") -> list:
    """Every sorted recurrent configuration of K0_{m,n} under `model`, as
    tuple pairs in lexicographic order."""
    side = model == "ssm"
    return [
        (top, bottom)
        for top in combinations_with_replacement(range(n), m)
        for bottom in combinations_with_replacement(range(m + 1), n)
        if recurrence(top, bottom)[side]
    ]


def asm_recurrent(m: int, n: int) -> list:
    """Every asm-recurrent configuration of K0_{m,n}, sorted or not.
    Recurrence does not change when a side is permuted, so a configuration
    is recurrent exactly when its sorted form is."""
    rec = set(sorted_recurrent(m, n))
    bottoms = [(b, tuple(sorted(b))) for b in product(range(m + 1), repeat=n)]
    return [
        (top, bottom)
        for top in product(range(n), repeat=m)
        for bottom, sb in bottoms
        if (tuple(sorted(top)), sb) in rec
    ]


def k_vector(top, n: int) -> tuple:
    return tuple(sum(1 for t in top if t < j) for j in range(1, n + 1))
