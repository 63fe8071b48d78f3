"""Sandpile dynamics on the complete bipartite graph K0_{m,n}.

The graph has m top vertices v^t_1..v^t_m, one extra top vertex acting as
the sink, and n bottom vertices v^b_1..v^b_n.  Every top vertex is joined
to every bottom vertex, so a top vertex has degree n and a bottom vertex
degree m+1 (the sink counts, but grains sent to it vanish).

Two toppling rules are supported: deterministic (asm), where an unstable
vertex sends one grain to each neighbour, and stochastic (ssm), where each
neighbour receives a grain with probability p, independently.  Stochastic
runs are reproducible because every coin flip is a committed bit: a pure
function of (seed, p, vertex, firing index, neighbour).  So neither rule
has a toppling order to choose: the stable result is unique.

asm solves for the firing totals directly, by one kernel (the least-action
odometer), and so does ssm at p = 1, every bit 1, under its firing budget:
a stock ToppleOracle's pile and every step of a p = 1 chain.  Below p = 1,
where the gate _numpy hands over the numpy kernels (bipsand._kernels), a
stock oracle's pile sweeps the two sides in turn there.  Other piles and
other oracles fire from one stack, one firing at a time: the one firing
loop, which single topplings of either rule also run.  The grain-addition
chain keeps one grain list for a whole run, settling each step by that
stack or the odometer: bit for bit markov_step's.  Where _numpy hands over
the kernels, the stack reads the bits of a step's first firings from
their table.
"""
from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from itertools import compress, repeat
from operator import index

from ._prf import DOMAIN_BIT, DOMAIN_CHOICE, DOMAIN_STEP, bits_below, fold, prf64, spread
from ._record import record
from .errors import TopplingStallError

MODELS = ("asm", "ssm")
_POLICIES = ("fifo", "lifo", "min-index")
_MAX_FIRINGS = 10**9  # default stochastic firing budget: hours of toppling

# ssm stabilization with a stock ToppleOracle sweeps the sides in numpy
# (see _kernels.sweeps).  _numpy gates a pile by its first-round firings:
# with numpy loaded, sweeps do not repay their fixed cost below _SWEEP_MIN,
# and loading numpy costs a fresh process about 0.19 s, more than sweeps
# save below _SWEEP_IMPORT.  CHANGES.md has the timings.
_SWEEP_MIN = 16
_SWEEP_IMPORT = 1000

# The ssm chain draws the bits of each slot's first _FIRST firings for a block
# of steps at once (see _kernels.table_bits).  _numpy gates a run by its step
# count: with numpy loaded, a run below _BLOCK_MIN steps does not repay a
# block's fixed cost, and loading numpy costs a fresh process more than a run
# below _BLOCK_IMPORT steps saves.  A block holds at most _BLOCK_BITS bits, so
# its arrays stay in cache, and a shape whose one step's bits do not fit in a
# block keeps the stack.  CHANGES.md has the timings.
_FIRST = 2
_BLOCK_BITS = 1 << 15
_BLOCK_MIN = 32
_BLOCK_IMPORT = 15000


def _numpy(work: int, pays: int, loads: int):
    """bipsand._kernels for a call of this much work, or None: the one policy
    of the three numpy kernels.  From pays on, they run if numpy is already
    loaded; from loads on, they are imported.  Each passes its measured pair."""
    if work >= loads or work >= pays and "numpy" in sys.modules:
        from . import _kernels
        return _kernels
    return None


def _check_int(name: str, value, low: int | None = None) -> None:
    """Raise ValueError unless value is an int (bool excluded) and >= low."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")


def _check_model(model: str) -> None:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")


@record
class BipartiteShape:
    """Vertex counts (m top, n bottom) of K0_{m,n}; the sink is implicit."""

    m: int
    n: int

    def __post_init__(self):
        _check_int("m", self.m, 0)
        _check_int("n", self.n, 1)

    @property
    def top_degree(self) -> int:
        return self.n

    @property
    def bottom_degree(self) -> int:
        return self.m + 1


def _check_shape(shape) -> None:
    """Raise ValueError unless shape is a BipartiteShape: the one rule for
    every call that takes a shape."""
    if type(shape) is not BipartiteShape:
        raise ValueError(f"shape must be a BipartiteShape, got {shape!r}")


@record
class Vertex:
    """A vertex address: side 'top', 'bottom', or 'sink', with a 1-based index."""

    side: str
    index: int = 0

    def __post_init__(self):
        if self.side not in ("top", "bottom", "sink"):
            raise ValueError(f"unknown side {self.side!r}")
        _check_int("vertex index", self.index)
        if self.side != "sink" and self.index < 1:
            raise ValueError("vertex index is 1-based")


def _grain(x) -> int:
    """x as an int, for a grain count of another integer type (numpy's);
    ValueError for bool and for any non-integer."""
    if type(x) is not bool:
        try:
            return index(x)
        except TypeError:
            pass
    raise ValueError(f"grain counts must be integers, got {x!r}")


def _grains(side) -> tuple:
    """side as a tuple of ints >= 0, in one type pass and one min pass;
    ValueError if it is not iterable or holds anything else."""
    try:
        side = tuple(side)
    except TypeError:
        raise ValueError(f"grain counts must be an iterable of integers, got {side!r}") from None
    if not set(map(type, side)) <= {int}:
        side = tuple(map(_grain, side))
    if side and min(side) < 0:
        raise ValueError("grain counts must be non-negative")
    return side


@record
class Configuration:
    """Grain counts on the non-sink vertices; immutable and hashable.

    Every grain count must be an int >= 0 (bool excluded); other integer
    types, numpy's included, become int, and anything else raises
    ValueError.  The recurrence check of a large configuration records
    its two verdicts on the instance, outside equality, hash and repr.
    """

    shape: BipartiteShape
    top: tuple
    bottom: tuple

    # both recurrence verdicts, set by the first large check of this instance
    _rowwise = _prefixwise = None

    def __post_init__(self):
        _check_shape(self.shape)
        top, bottom = _grains(self.top), _grains(self.bottom)
        if len(top) != self.shape.m or len(bottom) != self.shape.n:
            raise ValueError("grain vectors do not match the shape")
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)

    @classmethod
    def _trusted(cls, shape: BipartiteShape, top: tuple, bottom: tuple) -> "Configuration":
        """Build without checks, for an output valid by construction: tuples
        of ints >= 0 whose lengths match shape."""
        c = object.__new__(cls)
        # attribute by attribute, in field order, so instances keep sharing
        # one key table as __init__'s do (dict.update would not: 2.4x the bytes)
        object.__setattr__(c, "shape", shape)
        object.__setattr__(c, "top", top)
        object.__setattr__(c, "bottom", bottom)
        return c

    @classmethod
    def from_vectors(cls, top, bottom) -> "Configuration":
        """Build a configuration, inferring the shape from the vector lengths."""
        top, bottom = _grains(top), _grains(bottom)
        return cls._trusted(BipartiteShape(len(top), len(bottom)), top, bottom)

    @classmethod
    def zero(cls, shape: BipartiteShape) -> "Configuration":
        _check_shape(shape)
        return cls._trusted(shape, (0,) * shape.m, (0,) * shape.n)

    @classmethod
    def from_text(cls, text: str) -> "Configuration":
        """Parse 'TOP;BOTTOM' with comma-separated entries, e.g. '2,1;0,2'.

        An empty top side (m = 0) is written with nothing before the
        semicolon, e.g. ';2'.
        """
        if text.count(";") != 1:
            raise ValueError(f"expected one ';' in configuration text {text!r}")
        top_s, bottom_s = text.split(";")
        try:
            top = tuple(int(x) for x in top_s.split(",")) if top_s.strip() else ()
            bottom = tuple(int(x) for x in bottom_s.split(","))
        except ValueError:
            raise ValueError(f"malformed configuration text {text!r}") from None
        return cls.from_vectors(top, bottom)

    def to_text(self) -> str:
        return "{};{}".format(
            ",".join(map(str, self.top)), ",".join(map(str, self.bottom))
        )

    @classmethod
    def from_json_dict(cls, obj) -> "Configuration":
        if not isinstance(obj, dict) or set(obj) - {"top", "bottom"}:
            raise ValueError("expected an object with 'top' and 'bottom' lists")
        try:
            top = tuple(obj.get("top", []))
            bottom = tuple(obj["bottom"])
        except (TypeError, KeyError):
            raise ValueError("malformed configuration object") from None
        return cls.from_vectors(top, bottom)

    def to_json_dict(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}

    @property
    def is_stable(self) -> bool:
        n, degb = self.shape.n, self.shape.m + 1
        return (not self.top or max(self.top) < n) and max(self.bottom) < degb

    @property
    def is_sorted(self) -> bool:
        t, b = self.top, self.bottom
        return all(t[i] <= t[i + 1] for i in range(len(t) - 1)) and all(
            b[j] <= b[j + 1] for j in range(len(b) - 1)
        )

    @property
    def total(self) -> int:
        return sum(self.top) + sum(self.bottom)


def is_stable(c: Configuration) -> bool:
    """True iff every top entry is < n and every bottom entry is < m+1."""
    return c.is_stable


def _bit_threshold(p) -> int:
    """Check a bit probability p; return p * 2^64, the bound a bit's hash
    must fall below.  Raises ValueError unless 2^-64 <= p <= 1."""
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise ValueError(f"p must be an int or a float, got {p!r}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    # p scales exactly by 2^64 in binary floating point
    threshold = int(p * 2.0**64)
    if threshold == 0:
        # every bit would be 0 and no firing would ever move a grain
        raise ValueError(f"p must be at least 2^-64, got {p}")
    return threshold


@record
class ToppleOracle:
    """Committed Bernoulli(p) bits keyed by (vertex, firing index, neighbour).

    The bit for a key is a pure function of (seed mod 2^64, p, key), so
    re-querying a key always gives the same answer.  This makes stochastic
    stabilization a deterministic function of (configuration, oracle) and,
    in particular, independent of the toppling order.  The bit is 1 when a
    64-bit hash of the key falls below p * 2^64, so p must be at least 2^-64.
    """

    seed: int
    p: float = 0.5

    def __post_init__(self):
        _check_int("seed", self.seed)
        object.__setattr__(self, "_threshold", _bit_threshold(self.p))
        # every bit key starts with these two words, so fold them once
        object.__setattr__(self, "_prefix", prf64(self.seed, DOMAIN_BIT))

    def bit(self, vertex_code: int, firing: int, neighbor_code: int) -> int:
        x = prf64(self.seed, DOMAIN_BIT, vertex_code, firing, neighbor_code)
        return 1 if x < self._threshold else 0


def _slot(c: Configuration, v: Vertex) -> int:
    """The engine slot of the non-sink vertex v, once its index is checked
    against c: top i sits at slot i-1, bottom j at m+j-1 (the sink at m+n)."""
    m = c.shape.m
    if v.side == "top":
        if v.index > m:
            raise ValueError(f"top index {v.index} out of range for m={m}")
        return v.index - 1
    if v.index > c.shape.n:
        raise ValueError(f"bottom index {v.index} out of range for n={c.shape.n}")
    return m + v.index - 1


def _topple_slot(c: Configuration, v: Vertex) -> int:
    """The slot of v, once v is checked to be a vertex of c that can topple."""
    if v.side == "sink":
        raise ValueError("the sink never topples")
    s = _slot(c, v)
    m = c.shape.m
    if (c.top[s] < c.shape.n) if s < m else (c.bottom[s - m] < m + 1):
        raise ValueError(f"vertex {v} is stable and cannot topple")
    return s


@lru_cache(maxsize=64)
def _table(m: int, n: int) -> tuple:
    """K_{m,n}'s firing table: the neighbour slots of a top and of a bottom
    vertex, in oracle key order (the sink first for a bottom vertex, then
    neighbours by ascending index); the oracle key codes by slot (sink 0,
    top i -> 2i, bottom j -> 2j+1); the spread last key words of a top and
    of a bottom firing's bits."""
    nbs = tuple(range(m, m + n)), (m + n, *range(m))
    codes = (*range(2, 2 * m + 1, 2), *range(3, 2 * n + 2, 2), 0)
    return *nbs, codes, *(tuple(spread(codes[t]) for t in side) for side in nbs)


def _check_oracle(oracle) -> None:
    """Raise ValueError unless oracle has a callable bit, as every oracle
    the stochastic rule draws from must."""
    if not callable(getattr(oracle, "bit", None)):
        raise ValueError(f"oracle must have a callable bit method, got {oracle!r}")


def _stock(oracle) -> bool:
    """True when oracle's bits are ToppleOracle.bit's, which may be drawn in batches."""
    return getattr(type(oracle), "bit", None) is ToppleOracle.bit


def _firing_bits(oracle: ToppleOracle, m: int, n: int):
    """Return draw(s, firing): the committed bits of that firing of slot s.

    The bits follow _table(m, n)'s neighbour order for the side of s.  A stock
    ToppleOracle's bits are drawn together from its cached key prefix;
    any other oracle's bit method is called once per bit, in key order.
    """
    if _stock(oracle):
        return _stock_bits(oracle._prefix, oracle._threshold, m, n)
    top_nb, bottom_nb, codes = _table(m, n)[:3]
    obit = oracle.bit
    top_codes = [codes[t] for t in top_nb]
    bottom_codes = [codes[t] for t in bottom_nb]

    def draw(s, firing):
        v = codes[s]
        return [obit(v, firing, u) for u in (top_codes if s < m else bottom_codes)]

    return draw


def _stock_bits(prefix: int, threshold: int, m: int, n: int):
    """draw(s, firing) of a stock ToppleOracle with this _prefix and _threshold."""
    codes, top_words, bottom_words = _table(m, n)[2:]

    def draw(s, firing):
        return bits_below(prefix, codes[s], firing,
                          top_words if s < m else bottom_words, threshold)

    return draw


def _topple(c: Configuration, s: int, draw, firing: int) -> Configuration:
    """Fire slot s once, as its firing-th firing: _settle with a budget of one."""
    m, n = c.shape.m, c.shape.n
    grains = [*c.top, *c.bottom, n + 1]  # the sink's entry above n (see _settle)
    fires = [0] * (m + n)
    fires[s] = firing
    _settle(grains, fires, [s], m, n, draw, 1)
    return Configuration._trusted(c.shape, tuple(grains[:m]), tuple(grains[m:-1]))


def topple_deterministic(c: Configuration, v: Vertex) -> Configuration:
    """Topple one unstable vertex: one grain to each neighbour, sink grains vanish."""
    return _topple(c, _topple_slot(c, v), lambda s, firing: repeat(1), 0)


def topple_stochastic(
    c: Configuration, v: Vertex, oracle: ToppleOracle, firing_index: int
) -> Configuration:
    """Topple one unstable vertex stochastically using committed oracle bits.

    For each neighbour a bit decides whether one grain moves there; the
    vertex keeps the grains whose bits are 0.  Bits are queried sink first
    (for bottom vertices), then neighbours in ascending index order.
    firing_index, an int >= 0, keys the bits, and oracle must have a
    callable bit (ValueError otherwise, at the call).
    """
    _check_int("firing_index", firing_index, 0)
    _check_oracle(oracle)
    s = _topple_slot(c, v)
    return _topple(c, s, _firing_bits(oracle, c.shape.m, c.shape.n), firing_index)


def _check_policy(policy: str) -> None:
    if policy not in _POLICIES:
        raise ValueError(f"unknown toppling policy {policy!r}")


def stabilize_deterministic(
    c: Configuration, policy: str = "fifo"
) -> tuple[Configuration, tuple[tuple, tuple]]:
    """Topple until stable; returns (stable configuration, firing counts).

    policy orders nothing; a name outside _POLICIES raises ValueError.  A
    stable c is returned itself, with zero firings.  The firing totals
    (T, B) are the least fixed point of T = sum_i floor((t_i + B)/n) and
    B = sum_j floor((b_j + T)/(m+1)).  With t_i = n*q_i + r_i and
    B = n*a + s, the first sum is sum(q) + m*a + #{i : r_i >= n - s}, one
    bisection in the sorted residues.  Both sums rise with their argument,
    so alternating them from a lower bound of B climbs to the least fixed
    point (see _odometer).
    """
    _check_policy(policy)
    m, n = c.shape.m, c.shape.n
    if c.is_stable:
        return c, ((0,) * m, (0,) * n)
    sides, fires = _odometer(c.top, c.bottom, m, n)
    return Configuration._trusted(c.shape, *sides), fires


def _odometer(top: tuple, bottom: tuple, m: int, n: int) -> tuple:
    """asm's kernel: ((stable top, stable bottom), (top firings, bottom
    firings)) of the grain sides top and bottom of K0_{m,n}, from the firing
    totals that stabilize_deterministic's docstring describes.

    The climb starts at B = max(0, S - m(2n - 1)), S the grain total, so
    its length does not grow with S.  Let T = F(B) be the first sum and
    G(T) the second.  With R1 = sum((t_i + B) mod n), at most m(n - 1),
    and R2 = sum((b_j + T) mod (m + 1)), at most mn,
    G(F(B)) - B = (S - B - R1 - R2)/(m + 1).  Below the bound that is > 0,
    so no fixed point lies there, and the climb from the bound still ends
    at the least fixed point.
    """
    degb = m + 1
    rt = sorted([t % n for t in top])
    rb = sorted([b % degb for b in bottom])
    st, sb = sum(top), sum(bottom)
    qt, qb = (st - sum(rt)) // n, (sb - sum(rb)) // degb
    fired_b = max(0, st + sb - m * (2 * n - 1))
    while True:
        a, s = divmod(fired_b, n)
        fired_t = qt + m * (a + 1) - bisect_left(rt, n - s)
        a, s = divmod(fired_t, degb)
        b_next = qb + n * (a + 1) - bisect_left(rb, degb - s)
        if b_next == fired_b:
            break
        fired_b = b_next
    top = [t + fired_b for t in top]
    bottom = [b + fired_t for b in bottom]
    return ((tuple([t % n for t in top]), tuple([b % degb for b in bottom])),
            (tuple([t // n for t in top]), tuple([b // degb for b in bottom])))


def _unstable(grains: list, m: int, n: int) -> list:
    """The unstable slots of the engine's grain list (the sink's entry last)."""
    return [s for s in range(m + n) if grains[s] >= (n if s < m else m + 1)]


def _stall(grains: list, m: int, n: int, p, max_firings: int) -> TopplingStallError:
    """The error for a run at bit probability p past max_firings firings."""
    return TopplingStallError(
        f"no stable state after {max_firings} firings on "
        f"K0_{{{m},{n}}} (p={p}); "
        f"{len(_unstable(grains, m, n))} vertices still unstable"
    )


def stabilize_stochastic(
    c: Configuration,
    oracle: ToppleOracle,
    policy: str = "fifo",
    max_firings: int = _MAX_FIRINGS,
) -> tuple[Configuration, tuple[tuple, tuple]]:
    """Stochastically topple until stable; returns (configuration, firing counts).

    A firing may move zero grains (all bits 0); it still takes the vertex's
    next firing index, so each firing consumes fresh bits.  policy orders
    nothing; a name outside _POLICIES raises ValueError.  A stock
    ToppleOracle at p = 1 fires as asm does (see _odometer); below p = 1 its
    sides take turns in numpy, each vertex firing until it is stable, with
    its bits drawn in windows of many firings (see _kernels.sweeps).  A
    pile _numpy keeps in Python, and any other oracle, fire from one stack
    of the unstable vertices, one firing at a time (see _settle).
    oracle must have a callable bit (ValueError at the call otherwise).
    To avoid hanging on adversarial oracles, more than max_firings total
    firings raises TopplingStallError; max_firings must be an int >= 0
    (ValueError otherwise, before any bit is drawn).  Termination is
    almost sure for any p > 0.
    """
    _check_int("max_firings", max_firings, 0)
    _check_policy(policy)
    _check_oracle(oracle)
    m, n = c.shape.m, c.shape.n
    grains = [*c.top, *c.bottom, n + 1]  # the sink's entry above n (see _settle)
    stack = _unstable(grains, m, n)
    if not stack:
        return c, ((0,) * m, (0,) * n)
    p = getattr(oracle, "p", "?")
    # the firings a first round would take are all part of the odometer
    first = sum(grains[s] // (n if s < m else m + 1) for s in stack)
    if first > max_firings:
        raise _stall(grains, m, n, p, max_firings)
    stock = _stock(oracle)
    if stock and oracle._threshold >> 64:  # p = 1: every bit is 1
        sides, fired = _odometer(c.top, c.bottom, m, n)
        if sum(fired[0]) + sum(fired[1]) > max_firings:
            raise _stall(grains, m, n, p, max_firings)
        return Configuration._trusted(c.shape, *sides), fired
    k = _numpy(first, _SWEEP_MIN, _SWEEP_IMPORT) if stock else None
    # int64 holds every count of the sweeps when it holds the sum of all grains
    if k is not None and sum(grains) < 1 << 63:
        fires = k.sweeps(grains, m, n, oracle._prefix, oracle._threshold, p, max_firings)
    else:
        fires = [0] * (m + n)
        if not _settle(grains, fires, stack, m, n, _firing_bits(oracle, m, n), max_firings):
            raise _stall(grains, m, n, p, max_firings)
    stable = Configuration._trusted(c.shape, tuple(grains[:m]), tuple(grains[m:-1]))
    return stable, (tuple(fires[:m]), tuple(fires[m:]))


def _settle(grains: list, fires: list, stack: list, m: int, n: int, draw, left: int) -> bool:
    """Fire stack's slots one firing at a time, from fires' indices with draw's
    bits, until all are stable (True) or left firings are spent (False).  A
    slot is pushed when an arrival makes it unstable, so never twice; the
    sink's entry grains[m + n] stays above n."""
    degb = m + 1
    top_nb, bottom_nb = _table(m, n)[:2]
    while stack:
        s = stack.pop()
        # every neighbour of s sits on the other side, so shares one degree
        if s < m:
            nbs, deg, nb_deg = top_nb, n, degb
        else:
            nbs, deg, nb_deg = bottom_nb, degb, n
        g, firing = grains[s], fires[s]
        while g >= deg and left:
            left -= 1
            got = list(compress(nbs, draw(s, firing)))
            firing += 1
            for t in got:
                grains[t] += 1
                if grains[t] == nb_deg:
                    stack.append(t)
            g -= len(got)
        grains[s], fires[s] = g, firing
        if g >= deg:
            return False
    return True


def add_grain(c: Configuration, v: Vertex) -> Configuration:
    """Return c with one extra grain at the non-sink vertex v."""
    if v.side == "sink":
        raise ValueError("grains are only added at non-sink vertices")
    s = _slot(c, v)
    m = c.shape.m
    if s < m:
        top = list(c.top)
        top[s] += 1
        return Configuration._trusted(c.shape, tuple(top), c.bottom)
    bottom = list(c.bottom)
    bottom[s - m] += 1
    return Configuration._trusted(c.shape, c.top, tuple(bottom))


def markov_step(
    model: str,
    c: Configuration,
    v: Vertex,
    oracle: ToppleOracle | None = None,
    max_firings: int = _MAX_FIRINGS,
) -> Configuration:
    """One step of the grain-addition chain: add a grain at v, then stabilize.

    max_firings is the ssm firing budget (see stabilize_stochastic); asm
    needs none, but it is checked for both models.
    """
    _check_model(model)
    _check_int("max_firings", max_firings, 0)
    if not c.is_stable:
        raise ValueError("markov_step starts from a stable configuration")
    bumped = add_grain(c, v)
    if model == "asm":
        return stabilize_deterministic(bumped)[0]
    if oracle is None:
        raise ValueError("ssm steps need a ToppleOracle")
    return stabilize_stochastic(bumped, oracle, max_firings=max_firings)[0]


def _check_chain(model: str, shape, steps: int, seed: int, p, max_firings: int) -> int | None:
    """Check the arguments of trajectory and simulate, before any step; return
    the bit threshold of p for ssm, None for asm."""
    _check_model(model)
    _check_shape(shape)
    _check_int("steps", steps, 0)
    _check_int("seed", seed)
    threshold = _bit_threshold(p) if model == "ssm" else None
    _check_int("max_firings", max_firings, 0)
    return threshold


def trajectory(
    model: str,
    shape: BipartiteShape,
    steps: int,
    seed: int,
    p: float = 0.5,
    max_firings: int = _MAX_FIRINGS,
) -> Iterator[Configuration]:
    """Yield the chain's stable state at times 0..steps, starting from all zeros.

    The grain-landing vertex at each step is drawn from the seed via a key
    domain disjoint from the oracle bits, and each ssm step stabilizes with
    a fresh child oracle derived from (seed, step), so the whole run is a
    pure function of the arguments, the seed read mod 2^64: bit for bit the
    states of chaining markov_step, on one grain list.  max_firings bounds
    each ssm step's stabilization, which raises TopplingStallError past it.
    The arguments are checked at the call, before the first state is drawn.
    """
    threshold = _check_chain(model, shape, steps, seed, p, max_firings)
    return (Configuration._trusted(shape, *g)
            for g in _chain(shape, steps, seed, p, threshold, max_firings))


def _chain(shape: BipartiteShape, steps: int, seed: int, p, threshold: int | None,
           max_firings: int) -> Iterator[tuple]:
    """trajectory's states as (top, bottom) grain tuples.  Step t adds
    a grain at slot prf64(seed, DOMAIN_CHOICE, t) % (m + n), then topples by
    the odometer (asm, threshold None) or with the bits of
    ToppleOracle(prf64(seed, DOMAIN_STEP, t), p), whose threshold is given.
    At p = 1 (threshold 2^64) every bit is 1, so an ssm step topples by the
    odometer too, stalling past max_firings, and asks _numpy nothing.  prf64
    is a left fold, so both keys extend a prefix folded once a run.  Below
    p = 1, on a shape whose one step's bits fit in _BLOCK_BITS, where _numpy
    gives the kernels, from the start or once the steps run reach
    _BLOCK_IMPORT, an ssm step's first firings read their bits from a table
    drawn for a block of steps at once (see _kernels.table_bits)."""
    m, n = shape.m, shape.n
    size = m + n
    grains = [0] * size + [n + 1]  # the sink's entry above n (see _settle)
    choice, step = prf64(seed, DOMAIN_CHOICE), prf64(seed, DOMAIN_STEP)
    top, bottom = (0,) * m, (0,) * n
    yield top, bottom
    odometer = threshold is None or threshold >> 64
    k = switch = None
    if not odometer and _FIRST * size * max(n, m + 1) <= _BLOCK_BITS:
        # the table from the start if numpy is loaded (a load threshold past
        # the run imports nothing), else from the step that reaches _BLOCK_IMPORT
        k = _numpy(steps, _BLOCK_MIN, steps + 1)
        switch = 1 if k else max(1, _BLOCK_IMPORT)

    def bits_at(t):
        return _stock_bits(prf64(fold(step, t), DOMAIN_BIT), threshold, m, n)

    for t in range(1, steps + 1):
        if t == switch:
            k = k or _numpy(t, _BLOCK_MIN, _BLOCK_IMPORT)
            bits_at = k.table_bits(step, steps, m, n, threshold)
        s = fold(choice, t) % size
        grains[s] += 1
        # the other side keeps its tuple: states share it, as add_grain's do
        if s < m:
            top = tuple(grains[:m])
        else:
            bottom = tuple(grains[m:size])
        if grains[s] == (n if s < m else m + 1):
            if odometer:
                (top, bottom), fired = _odometer(top, bottom, m, n)
                if threshold is not None and sum(fired[0]) + sum(fired[1]) > max_firings:
                    raise _stall(grains, m, n, p, max_firings)
                grains[:size] = top + bottom
            else:
                if not _settle(grains, [0] * size, [s], m, n, bits_at(t), max_firings):
                    raise _stall(grains, m, n, p, max_firings)
                top, bottom = tuple(grains[:m]), tuple(grains[m:size])
        yield top, bottom


def simulate(
    model: str,
    shape: BipartiteShape,
    steps: int,
    seed: int,
    p: float = 0.5,
    max_firings: int = _MAX_FIRINGS,
) -> Counter:
    """Run the grain-addition chain; returns visit counts over stable states.

    The initial all-zero state at time 0 is included, so counts sum to
    steps + 1, in first-visit order; each distinct state is built once.
    max_firings is each ssm step's firing budget.
    """
    threshold = _check_chain(model, shape, steps, seed, p, max_firings)
    visits = Counter(_chain(shape, steps, seed, p, threshold, max_firings))
    return Counter({Configuration._trusted(shape, *g): k for g, k in visits.items()})
