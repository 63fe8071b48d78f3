"""Recurrence checks for both sandpile models, in O(m+n) time.

A stable configuration is recurrent exactly when the sorted bottom side
dominates the k-vector of the top side: prefixwise for the stochastic
model, rowwise for the deterministic one.  The k-vector entry k_j counts
the top vertices holding fewer than j grains; it is computed by a counting
pass.  From _NP_MIN entries on, the bottom side is sorted by counting too,
so both checks stay linear; below that size a comparison sort is faster.
Exhaustive forbidden-pair searches over vertex subsets are provided as
independent oracles for desk-scale cross-validation.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import ge
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import GuardError
from .model import BipartiteShape, Configuration, _check_model

# From this many entries on (m+n) numpy beats pure Python, tuple-to-array
# conversion included; the two paths tie at about 160 (CHANGES.md has the table).
_NP_MIN = 192


def _require_stable(c: Configuration, op: str) -> None:
    if not c.is_stable:
        raise ValueError(f"{op} is defined on stable configurations only")


def counts_below(values: Sequence[int], bound: int) -> tuple:
    """The k-vector: entry j (1-based) counts values strictly below j.

    Entries must lie in [0, bound); the result has length bound, is weakly
    increasing, and its last entry is len(values).  Computed by one
    counting pass over the input.
    """
    vals = tuple(values)
    if vals and (min(vals) < 0 or max(vals) >= bound):
        raise ValueError(f"values must lie in [0, {bound})")
    hist = [0] * (bound + 1)
    for v in vals:
        hist[v] += 1
    k = []
    run = 0
    for j in range(1, bound + 1):
        run += hist[j - 1]
        k.append(run)
    return tuple(k)


def _check(c: Configuration, rowwise: bool) -> bool:
    """Dominance of the sorted bottom side over the k-vector: rowwise for
    asm, prefixwise for ssm.  numpy from _NP_MIN entries on, pure Python below."""
    m, n = c.shape.m, c.shape.n
    if m + n >= _NP_MIN:
        top = np.asarray(c.top, dtype=np.int64)
        bottom = np.asarray(c.bottom, dtype=np.int64)
        k = np.cumsum(np.bincount(top, minlength=n)[:n]) if m else np.zeros(n, dtype=np.int64)
        hist_b = np.bincount(bottom, minlength=m + 1)[: m + 1]
        sorted_b = np.repeat(np.arange(m + 1, dtype=np.int64), hist_b)
        if rowwise:
            return bool(np.all(sorted_b >= k))
        return bool(np.all(np.cumsum(sorted_b) >= np.cumsum(k)))
    k = counts_below(c.top, n)
    sorted_b = sorted(c.bottom)
    if rowwise:
        return all(map(ge, sorted_b, k))
    return all(map(ge, accumulate(sorted_b), accumulate(k)))


def is_stochastically_recurrent(c: Configuration) -> bool:
    """Burning check for the stochastic model.

    True iff every prefix sum of the sorted bottom side is at least the
    matching prefix sum of the k-vector.  O(m+n).
    """
    _require_stable(c, "is_stochastically_recurrent")
    return _check(c, rowwise=False)


def is_deterministically_recurrent(c: Configuration) -> bool:
    """Burning check for the deterministic model.

    True iff the j-th smallest bottom entry is at least k_j for every j.
    O(m+n); implies the stochastic check.
    """
    _require_stable(c, "is_deterministically_recurrent")
    return _check(c, rowwise=True)


def is_recurrent(c: Configuration, model: str) -> bool:
    """Recurrence under the named model ('asm' or 'ssm')."""
    if model == "asm":
        return is_deterministically_recurrent(c)
    if model == "ssm":
        return is_stochastically_recurrent(c)
    _check_model(model)  # neither name: raises


def level(c: Configuration) -> int:
    """Total grains minus m*n.

    Defined for any configuration; on recurrent ones it ranges over
    [0, m(n-1)].  On stable input it also equals sum(bottom) - sum(k),
    the area between the two Ferrers diagrams of c.
    """
    return c.total - c.shape.m * c.shape.n


@dataclass(frozen=True)
class ForbiddenWitness:
    """Vertex subsets certifying non-recurrence under the given model.

    For 'ssm' the witness satisfies sum of grains over both sets
    < |top_indices| * |bottom_indices|; for 'asm' the configuration
    restricted to the induced subgraph is stable.
    """

    model: str
    top_indices: tuple
    bottom_indices: tuple


def _lex_subsets(k: int) -> Iterator[tuple]:
    """Nonempty subsets of [k] as sorted tuples, in lexicographic order."""

    def rec(prefix: list, start: int) -> Iterator[tuple]:
        for x in range(start, k + 1):
            prefix.append(x)
            yield tuple(prefix)
            yield from rec(prefix, x + 1)
            prefix.pop()

    return rec([], 1)


def _subset_tables(values: Sequence[int]):
    """All-subset sums, maxima, and sizes, indexed by bitmask."""
    sums = np.zeros(1, dtype=np.int64)
    maxs = np.full(1, -1, dtype=np.int64)
    sizes = np.zeros(1, dtype=np.int64)
    for v in values:
        sums = np.concatenate([sums, sums + v])
        maxs = np.concatenate([maxs, np.maximum(maxs, v)])
        sizes = np.concatenate([sizes, sizes + 1])
    return sums, maxs, sizes


def _witness_guard(c: Configuration, guard: int) -> None:
    _require_stable(c, "forbidden witness search")
    m, n = c.shape.m, c.shape.n
    if m + n > guard:
        raise GuardError(
            f"witness search over 2^(m+n) subsets needs m+n <= {guard}, got {m + n}"
        )


def _mask(indices: tuple) -> int:
    """Bitmask of 1-based vertex indices, as _subset_tables indexes subsets."""
    return sum(1 << (i - 1) for i in indices)


def _first_witness(c: Configuration, guard: int, model: str) -> Optional[ForbiddenWitness]:
    """The first pair (A, B) in (|B|, B, A) order that the model's grid marks.

    grid[A, B] over all subset bitmasks holds the model's witness condition.
    Neither condition holds when A or B is empty, since grain counts are
    non-negative, so every marked pair is a pair of nonempty sets.
    """
    _witness_guard(c, guard)
    sums_t, maxs_t, sizes_t = _subset_tables(c.top)
    sums_b, maxs_b, sizes_b = _subset_tables(c.bottom)
    if model == "ssm":
        grid = sums_t[:, None] + sums_b[None, :] < sizes_t[:, None] * sizes_b[None, :]
    else:
        grid = (maxs_t[:, None] < sizes_b[None, :]) & (maxs_b[None, :] < sizes_t[:, None])
    hit = grid.any(axis=0)  # hit[B]: some A completes a witness
    if not hit.any():
        return None
    m, n = c.shape.m, c.shape.n
    for bsize in range(1, n + 1):
        for b in combinations(range(1, n + 1), bsize):
            if hit[_mask(b)]:
                column = grid[:, _mask(b)]
                a = next(s for s in _lex_subsets(m) if column[_mask(s)])
                return ForbiddenWitness(model, a, b)


def forbidden_witness_ssm(
    c: Configuration, guard: int = 24
) -> Optional[ForbiddenWitness]:
    """First vertex-subset pair violating the stochastic grain inequality.

    Scans pairs in lexicographic order of (|B|, B, A) over nonempty
    subsets A of the top side and B of the bottom side; returns None when
    no pair has grain total below |A|*|B|.  Exhaustive by construction,
    hence the size guard.
    """
    return _first_witness(c, guard, "ssm")


def forbidden_witness_asm(
    c: Configuration, guard: int = 24
) -> Optional[ForbiddenWitness]:
    """First vertex-subset pair whose induced subgraph is stable.

    A pair (A, B) of nonempty subsets qualifies when every top entry in A
    is below |B| and every bottom entry in B is below |A|.  Same scan
    order and guard as the stochastic search.
    """
    return _first_witness(c, guard, "asm")


def sort_config(c: Configuration) -> Configuration:
    """The weakly increasing representative of c: each side sorted.

    A comparison sort, so an unstable entry costs nothing beyond its
    place in the order.
    """
    return Configuration(c.shape, tuple(sorted(c.top)), tuple(sorted(c.bottom)))
