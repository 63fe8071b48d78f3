"""Exhaustive generators and counting harnesses at desk scale.

Guarded brute force gives stable-configuration streams in lexicographic
order, recurrent censuses with level histograms, and the empirical support
of simulated chains.  The spanning-tree count, a closed form, is an
independent count of deterministic-model recurrent states.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb
from typing import Iterator

from .errors import GuardError
from .model import BipartiteShape, Configuration, trajectory
from .recurrence import is_recurrent, level

CSV_HEADER = "m,n,model,sorted,count,level_poly"


def _stable_count(shape: BipartiteShape, sorted_only: bool) -> int:
    m, n = shape.m, shape.n
    if sorted_only:
        return comb(n - 1 + m, m) * comb(m + n, n)
    return n**m * (m + 1) ** n


def enumerate_stable(
    shape: BipartiteShape, sorted_only: bool = False, limit: int = 10**8
) -> Iterator[Configuration]:
    """Yield every stable configuration exactly once, in lexicographic order.

    With sorted_only, only weakly increasing representatives appear.  The
    stream size is computed up front and must not exceed limit.
    """
    m, n = shape.m, shape.n
    count = _stable_count(shape, sorted_only)
    if count > limit:
        raise GuardError(
            f"enumeration of {count} stable configurations exceeds the limit {limit}"
        )
    if sorted_only:
        tops = combinations_with_replacement(range(n), m)
        bottoms = list(combinations_with_replacement(range(m + 1), n))
    else:
        tops = product(range(n), repeat=m)
        bottoms = list(product(range(m + 1), repeat=n))
    for top in tops:
        for bottom in bottoms:
            yield Configuration(shape, top, bottom)


def enumerate_recurrent(
    shape: BipartiteShape,
    model: str,
    sorted_only: bool = False,
    limit: int = 10**8,
) -> Iterator[Configuration]:
    """The recurrent members of enumerate_stable, same order and guard."""
    for c in enumerate_stable(shape, sorted_only, limit):
        if is_recurrent(c, model):
            yield c


@dataclass(frozen=True)
class CensusRow:
    """Recurrent-configuration counts for one shape, split by level."""

    m: int
    n: int
    model: str
    sorted_only: bool
    total: int
    level_counts: tuple

    def level_poly(self) -> str:
        """The level histogram as polynomial text, lowest degree first."""
        terms = []
        for i, coeff in enumerate(self.level_counts):
            if i == 0:
                terms.append(str(coeff))
            elif i == 1:
                terms.append(f"{coeff}*q")
            else:
                terms.append(f"{coeff}*q^{i}")
        return "+".join(terms)

    def to_csv(self) -> str:
        flag = "true" if self.sorted_only else "false"
        return f"{self.m},{self.n},{self.model},{flag},{self.total},{self.level_poly()}"


def census(
    shape: BipartiteShape,
    model: str,
    sorted_only: bool = False,
    limit: int = 10**8,
) -> CensusRow:
    """Count recurrent configurations by level over the full stable stream."""
    m, n = shape.m, shape.n
    counts = [0] * (m * (n - 1) + 1)
    for c in enumerate_recurrent(shape, model, sorted_only, limit):
        counts[level(c)] += 1
    return CensusRow(m, n, model, sorted_only, sum(counts), tuple(counts))


def spanning_tree_count(shape: BipartiteShape) -> int:
    """Spanning trees of the complete bipartite graph on (m+1) + n vertices.

    The closed form (m+1)^(n-1) * n^m of Scoins (1962) for K_{m+1,n}.
    Equals the number of unsorted recurrent configurations of the
    deterministic model.
    """
    m, n = shape.m, shape.n
    return (m + 1) ** (n - 1) * n**m


def empirical_support(
    model: str,
    shape: BipartiteShape,
    steps: int,
    seed: int,
    p: float = 0.5,
    burn_in: int = 0,
) -> frozenset:
    """States the simulated chain visits at times burn_in < t <= steps."""
    return frozenset(
        state
        for t, state in enumerate(trajectory(model, shape, steps, seed, p))
        if t > burn_in
    )
