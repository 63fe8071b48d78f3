"""Recurrence checks for both sandpile models, in O(m+n) time on the numpy path.

A stable configuration is recurrent exactly when the sorted bottom side
dominates the k-vector of the top side: prefixwise for the stochastic
model, rowwise for the deterministic one.  The k-vector entry k_j counts
the top vertices holding fewer than j grains; it is computed by a counting
pass.  The numpy path, where the gate model._numpy lets numpy run, sorts
the bottom side by counting too, so both checks stay linear; the other
checks use a comparison sort, O(m + n log n).  A numpy check records both
models' verdicts on the configuration, so the second is a lookup.
Ferrers compatibility (ferrers.is_compatible, is_strongly_compatible) is
the same dominance test, run on the rows of a diagram pair.  The first
forbidden vertex-subset pair, which certifies non-recurrence, is found by
a greedy scan in polynomial time and O(m+n) memory.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate
from operator import ge

from ._record import record
from .model import BipartiteShape, Configuration, _check_int, _check_model, _numpy

# _numpy's pair for a check of m+n entries: from _NP_MIN on a loaded numpy
# beats pure Python, conversion included; only from _NP_IMPORT on does a check
# repay numpy's import (0.12-0.16 s in a fresh process).  CHANGES.md has both tables.
_NP_MIN = 192
_NP_IMPORT = 400_000


def _require_stable(stable: bool, op: str) -> None:
    if not stable:
        raise ValueError(f"{op} is defined on stable configurations only")


def counts_below(values: Sequence[int], bound: int) -> tuple:
    """The k-vector: entry j (1-based) counts values strictly below j.

    bound must be an int and entries integers in [0, bound), bools
    excluded (ValueError otherwise); the result has length bound, is weakly
    increasing, and its last entry is len(values).  Computed by one
    counting pass over the input, which checks each value as it counts it;
    a non-integer entry fails the comparison or the list index.
    """
    _check_int("bound", bound)
    try:
        hist = [0] * bound
        for v in values:
            if not 0 <= v < bound or v is True or v is False:
                raise ValueError(f"values must lie in [0, {bound})")
            hist[v] += 1
    except TypeError:
        raise ValueError(f"values must be integers in [0, {bound})") from None
    except (OverflowError, MemoryError):  # no list of bound entries fits
        raise ValueError(f"bound {bound} is too large") from None
    return tuple(accumulate(hist))


def _dominates(lower: Sequence[int], upper: Sequence[int], rowwise: bool) -> bool:
    """True iff upper dominates lower: entry by entry when rowwise, else in
    every prefix sum."""
    if rowwise:
        return all(map(ge, upper, lower))
    return all(map(ge, accumulate(upper), accumulate(lower)))


def _check(c: Configuration, rowwise: bool, op: str) -> bool:
    """Dominance of the sorted bottom side over the k-vector: rowwise for
    asm, prefixwise for ssm; ValueError unless c is stable.  In numpy where
    the gate _numpy says so, recording both verdicts on c; else in Python."""
    m, n = c.shape.m, c.shape.n
    k = _numpy(m + n, _NP_MIN, _NP_IMPORT)
    if k is None:
        _require_stable(c.is_stable, op)
        return _dominates(counts_below(c.top, n), sorted(c.bottom), rowwise)
    if c._rowwise is None:
        pair = k.verdicts(c.top, c.bottom, m, n)
        _require_stable(pair is not None, op)
        object.__setattr__(c, "_rowwise", pair[0])
        object.__setattr__(c, "_prefixwise", pair[1])
    return c._rowwise if rowwise else c._prefixwise


def is_stochastically_recurrent(c: Configuration) -> bool:
    """Burning check for the stochastic model.

    True iff every prefix sum of the sorted bottom side is at least the
    matching prefix sum of the k-vector.  O(m+n) on the numpy path, else
    O(m + n log n), where sorted() sorts the bottom side.
    """
    return _check(c, False, "is_stochastically_recurrent")


def is_deterministically_recurrent(c: Configuration) -> bool:
    """Burning check for the deterministic model.

    True iff the j-th smallest bottom entry is at least k_j for every j.
    O(m+n) on the numpy path, else O(m + n log n); implies the stochastic
    check.
    """
    return _check(c, True, "is_deterministically_recurrent")


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


@record
class ForbiddenWitness:
    """Vertex subsets certifying non-recurrence under the given model.

    For 'ssm' the witness satisfies sum of grains over both sets
    < |top_indices| * |bottom_indices|; for 'asm' the configuration
    restricted to the induced subgraph is stable.
    """

    model: str
    top_indices: tuple
    bottom_indices: tuple


def forbidden_witness_ssm(c: Configuration) -> ForbiddenWitness | None:
    """First vertex-subset pair violating the stochastic grain inequality.

    Scans pairs in lexicographic order of (|B|, B, A) over nonempty
    subsets A of the top side and B of the bottom side, as sorted tuples
    (so a set comes before its extensions); returns None when no pair has
    grain total below |A|*|B|.  For each b = |B| that total is below
    |A|*|B| when S_B + (sum of w over A) < 0, with w_i = t_i - b.  The
    cheapest nonempty A sums the negative w, or takes min w when none is
    negative.  B, then A, is built index by index, each index the smallest
    whose cheapest completion still fits: O(n(m+n)) time, O(m+n) memory.
    ValueError unless c is stable.
    """
    _require_stable(c.is_stable, "forbidden witness search")
    top, bottom = c.top, c.bottom
    lightest = list(accumulate(sorted(bottom)))  # lightest[b-1]: least S_B with |B| = b
    for b in range(1, len(bottom) + 1):
        w = [t - b for t in top]
        neg = sum(v for v in w if v < 0)
        # with no top vertex the bound is 0, which no S_B >= 0 stays below
        bound = -neg if neg < 0 else -min(w, default=0)
        if lightest[b - 1] >= bound:
            continue
        b_set, s_b, rest = [], 0, sorted(bottom)  # rest: the entries after j
        for j, u in enumerate(bottom, 1):
            del rest[bisect_left(rest, u)]
            if len(b_set) < b and s_b + u + sum(rest[: b - len(b_set) - 1]) < bound:
                b_set.append(j)
                s_b += u
        a_set, s_a = [], 0
        for x, v in enumerate(w, 1):
            neg -= min(v, 0)  # now the negative w after x
            if s_a + v + neg + s_b < 0:
                a_set.append(x)
                s_a += v
                if s_a + s_b < 0:
                    return ForbiddenWitness("ssm", tuple(a_set), tuple(b_set))
    return None


def forbidden_witness_asm(c: Configuration) -> ForbiddenWitness | None:
    """First vertex-subset pair whose induced subgraph is stable.

    A pair (A, B) of nonempty subsets qualifies when every top entry in A
    is below |B| and every bottom entry in B is below |A|.  Same scan
    order and stability check as the stochastic search.  For each b = |B|, A lies in
    S = {i : t_i < b}, so B takes the first b bottom entries below |S| and
    A the shortest prefix of S longer than every entry of B: O(n(m+n)) time.
    """
    _require_stable(c.is_stable, "forbidden witness search")
    for b in range(1, c.shape.n + 1):
        s = [i for i, t in enumerate(c.top, 1) if t < b]
        b_set = [j for j, u in enumerate(c.bottom, 1) if u < len(s)][:b]
        if len(b_set) == b:
            a_len = max(c.bottom[j - 1] for j in b_set) + 1
            return ForbiddenWitness("asm", tuple(s[:a_len]), tuple(b_set))
    return None


def sort_config(c: Configuration) -> Configuration:
    """The weakly increasing representative of c: each side sorted.

    A comparison sort, so an unstable entry costs nothing beyond its
    place in the order.
    """
    return Configuration._trusted(c.shape, tuple(sorted(c.top)), tuple(sorted(c.bottom)))
