"""Exhaustive generators and counting harnesses at desk scale.

Guarded brute force gives stable-configuration streams in lexicographic
order and the empirical support of simulated chains.  The census counts
recurrent configurations by level with a dynamic program over the sorted
picture, listing none of them.  The spanning-tree count, a closed form,
is an independent count of deterministic-model recurrent states.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations_with_replacement, product
from math import comb

# Loads the bijection modules, which this module does not use: motzkin imports
# polyomino and ferrers.  bench/tracing.py's Tracer.install() imports only
# enumeration, model and recurrence before it looks up every module it traces
# in sys.modules.  Of the commands, only census and enumerate pay for this.
from . import motzkin  # noqa: F401
from ._record import record
from .errors import GuardError
from .model import BipartiteShape, Configuration, _check_int, _check_model, _check_shape, trajectory
from .recurrence import is_recurrent

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
    stream size is computed at the call, which raises GuardError when it
    exceeds limit, before the first configuration is drawn.
    """
    _check_shape(shape)
    _check_int("limit", limit, 0)
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
    return (Configuration._trusted(shape, top, bottom) for top in tops for bottom in bottoms)


def enumerate_recurrent(
    shape: BipartiteShape,
    model: str,
    sorted_only: bool = False,
    limit: int = 10**8,
) -> Iterator[Configuration]:
    """The recurrent members of enumerate_stable, same order and guard; the
    model and the guard are checked at the call."""
    _check_model(model)
    return (c for c in enumerate_stable(shape, sorted_only, limit) if is_recurrent(c, model))


@record
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


def _dp_work(m: int, n: int) -> int:
    """An upper bound on the census DP's inner steps, from (m, n) alone.

    For each of the m+1 run values and each run start j0 and length r with
    j0 + r <= n: at most (m+1)(j0*m + 1) states (k, D) times at most
    (m+1)(r*m + 1) walk ends (k_end, sum of k).  The sums over (j0, r) are
    binomial closed forms.
    """
    pairs = m * m * comb(n + 2, 4) + m * (comb(n + 1, 3) + comb(n + 2, 3)) + comb(n + 1, 2)
    return (m + 1) ** 3 * pairs


def _k_walks(m: int, steps: int, k: int, sorted_only: bool) -> list:
    """Row r (1..steps): the weakly increasing r-step walks from k that stay
    <= m, merged as (k_end, sum of the r values, weight) and sorted by k_end.
    The last row holds only the walks that end at m: census reads it only
    for a run that ends the sequence, where k_n = m.

    A step from k to k2 weighs C(m-k, k2-k), the ways to choose the top
    vertices that enter, or 1 when sorted_only.
    """
    rows, cur = [[]], {(k, 0): 1}
    for r in range(1, steps + 1):
        nxt = {}
        for (ke, s), w in cur.items():
            for k2 in range(ke if r < steps else m, m + 1):
                key = (k2, s + k2)
                nxt[key] = nxt.get(key, 0) + (w if sorted_only else w * comb(m - ke, k2 - ke))
        cur = nxt
        rows.append(sorted((ke, s, w) for (ke, s), w in cur.items()))
    return rows


def census(
    shape: BipartiteShape,
    model: str,
    sorted_only: bool = False,
    limit: int = 10**8,
) -> CensusRow:
    """Count recurrent configurations by level, listing none of them.

    A stable configuration is recurrent iff its sorted bottom side
    b_(1) <= ... <= b_(n) dominates its k-vector: b_(j) >= k_j for asm, and
    D_j = sum over i <= j of (b_(i) - k_i) >= 0 for ssm; its level is D_n.
    So an exact integer DP walks j = 1..n in maximal runs of equal b_(j),
    carrying (k_j, D_j).  k rises along a run of fixed value, so b - k
    falls and D is concave there: both checks need only the run's end.
    The count needs k_n = m.  Unsorted counts weigh each sorted pair by its
    orbit size: C(m - k, k' - k) per step of k and C(n - j0, r) per run of
    length r after position j0; sorted weights are 1.

    The asm level polynomial is the Tutte polynomial T(1, q) of K_{m+1,n}
    (Merino López 1997), and the sorted asm totals are the Narayana
    numbers N(m+n, m+1) (Dukes, Le Borgne 2013).  limit bounds an upper
    bound on the DP's inner steps, computed from (m, n) before anything
    is built; GuardError names both when the bound exceeds limit.
    """
    _check_model(model)
    _check_shape(shape)
    _check_int("limit", limit, 0)
    m, n = shape.m, shape.n
    work = _dp_work(m, n)
    if work > limit:
        raise GuardError(f"census of K{m},{n} needs up to {work} DP steps, above the limit {limit}")
    asm = model == "asm"
    walks = {}
    # at[j][k_j][D_j]: weight of the sorted prefixes of length j whose last
    # run is below the value v being placed; at[0] is the empty prefix.
    at = [{} for _ in range(n + 1)]
    at[0] = {0: {0: 1}}
    for v in range(m + 1):
        # j0 descends, so a run of value v lands at j0 + r, which this v
        # has already passed: no run of v follows another.
        for j0 in range(n - 1, -1, -1):
            for k, levels in at[j0].items():
                if not levels:  # ssm: no run into k kept D >= 0
                    continue
                if k not in walks:
                    # k > 0 sits at j0 >= 1, so its runs take at most n - 1 steps
                    walks[k] = _k_walks(m, n - (k > 0), k, sorted_only)
                items = levels.items()
                # nothing follows a run of the top value m, so it must reach n
                for r in range(1 if v < m else n - j0, n - j0 + 1):
                    run_w = 1 if sorted_only else comb(n - j0, r)
                    dst = at[j0 + r]
                    for ke, s, w in walks[k][r]:
                        if asm and ke > v:
                            break
                        if ke < m and j0 + r == n:  # the count needs k_n = m
                            continue
                        off, mult = r * v - s, run_w * w
                        out = dst.setdefault(ke, {})
                        get = out.get
                        for d, x in items:
                            d2 = d + off
                            if d2 >= 0:
                                out[d2] = get(d2, 0) + x * mult
    counts = [0] * (m * (n - 1) + 1)
    for d, x in at[n].get(m, {}).items():
        counts[d] = x
    return CensusRow(m, n, model, sorted_only, sum(counts), tuple(counts))


def spanning_tree_count(shape: BipartiteShape) -> int:
    """Spanning trees of the complete bipartite graph on (m+1) + n vertices.

    The closed form (m+1)^(n-1) * n^m of Scoins (1962) for K_{m+1,n}.
    Equals the number of unsorted recurrent configurations of the
    deterministic model.
    """
    _check_shape(shape)
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
    """States the simulated chain visits at times burn_in < t <= steps.

    Each ssm step runs under trajectory's default firing budget; for a
    bounded run, build the set from trajectory(..., max_firings=N).
    """
    _check_int("burn_in", burn_in)
    return frozenset(
        state
        for t, state in enumerate(trajectory(model, shape, steps, seed, p))
        if t > burn_in
    )
