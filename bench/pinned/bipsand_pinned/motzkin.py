"""Labelled Motzkin paths and their two routes to recurrent configurations.

A word over {U, D, HN, HE} is a labelled Motzkin path when its running
height (U up, D down, H flat) never dips below zero and ends at zero.  For
the shape (m, n) the word has length m+n-1, with exactly m steps in
{D, HE} and n-1 steps in {D, HN}.

Pairing the interior steps of a polyomino's two paths (first and last step
of each dropped) gives the word: (N,E) -> U, (N,N) -> HN, (E,E) -> HE,
(E,N) -> D; the word is the diagonal-distance profile of the polyomino.
Direct single-pass conversions to and from sorted deterministically
recurrent configurations avoid building the polyomino at all, and the
half-integer area under the word equals the level of the configuration.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import BipartiteShape, Configuration
from .recurrence import is_deterministically_recurrent
from .polyomino import ParallelogramPolyomino

_TO_CHAR = {"U": "U", "D": "D", "HN": "n", "HE": "e"}
_FROM_CHAR = {v: k for k, v in _TO_CHAR.items()}
_PAIR_TO_STEP = {("N", "E"): "U", ("N", "N"): "HN", ("E", "E"): "HE", ("E", "N"): "D"}
_STEP_TO_PAIR = {v: k for k, v in _PAIR_TO_STEP.items()}


@dataclass(frozen=True)
class MotzkinWord:
    """Step sequence over {U, D, HN, HE} staying on or above the axis."""

    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        h = 0
        for s in self.steps:
            if s not in _TO_CHAR:
                raise ValueError(f"unknown step {s!r}")
            if s == "U":
                h += 1
            elif s == "D":
                h -= 1
                if h < 0:
                    raise ValueError("path dips below the axis")
        if h != 0:
            raise ValueError("path must end on the axis")

    @property
    def m(self) -> int:
        return self.steps.count("D") + self.steps.count("HE")

    @property
    def n(self) -> int:
        return self.steps.count("D") + self.steps.count("HN") + 1

    def area(self) -> Fraction:
        """Area between the path and the axis, in exact halves per step."""
        half = Fraction(1, 2)
        h = 0
        total = Fraction(0)
        for s in self.steps:
            if s == "U":
                total += h + half
                h += 1
            elif s == "D":
                total += h - half
                h -= 1
            else:
                total += h
        return total

    @classmethod
    def from_text(cls, text: str) -> "MotzkinWord":
        try:
            return cls(tuple(_FROM_CHAR[ch] for ch in text))
        except KeyError as exc:
            raise ValueError(f"unknown step character {exc.args[0]!r}") from None

    def to_text(self) -> str:
        return "".join(_TO_CHAR[s] for s in self.steps)


def polyomino_to_motzkin(p: ParallelogramPolyomino) -> MotzkinWord:
    """Pair the interior steps of the two paths into a Motzkin word."""
    upper_mid = p.upper[1:-1]
    lower_mid = p.lower[1:-1]
    return MotzkinWord(
        tuple(_PAIR_TO_STEP[(u, l)] for u, l in zip(upper_mid, lower_mid))
    )


def motzkin_to_polyomino(w: MotzkinWord) -> ParallelogramPolyomino:
    """Invert polyomino_to_motzkin; each step fixes one interior step pair."""
    upper = ["N"]
    lower = ["E"]
    for s in w.steps:
        u, l = _STEP_TO_PAIR[s]
        upper.append(u)
        lower.append(l)
    upper.append("E")
    lower.append("N")
    return ParallelogramPolyomino("".join(upper), "".join(lower))


def motzkin_to_config(w: MotzkinWord) -> Configuration:
    """Build the sorted recurrent configuration of a word in one pass.

    Two counters track how many {U, HN} and {U, HE} steps have been seen;
    each D or H step freezes a counter value into the top or bottom side.
    The last bottom entry is always m.
    """
    tval = bval = 0
    top = []
    bottom = []
    for s in w.steps:
        if s == "U":
            tval += 1
            bval += 1
        elif s == "HE":
            top.append(tval)
            bval += 1
        elif s == "HN":
            bottom.append(bval)
            tval += 1
        else:
            top.append(tval)
            bottom.append(bval)
    m = len(top)
    bottom.append(m)
    c = Configuration(BipartiteShape(m, len(bottom)), tuple(top), tuple(bottom))
    assert c.is_sorted and is_deterministically_recurrent(c)
    return c


def config_to_motzkin(c: Configuration) -> MotzkinWord:
    """Build the word of a sorted deterministically recurrent configuration.

    Both sides act as sorted stacks, the top side extended by a sentinel
    n-1.  While both heads are positive, U steps drain them in lockstep;
    a zero head pops as HE (top), HN (bottom), or D (both), decrementing
    the other stack for the H steps.  The trailing D is dropped.  The
    "decrease all entries" bookkeeping is a lazy per-stack offset, so the
    whole pass is O(m+n).
    """
    if not c.is_sorted:
        raise ValueError("configuration must be sorted")
    if not c.is_stable:
        raise ValueError("configuration must be stable")
    if not is_deterministically_recurrent(c):
        raise ValueError("configuration is not deterministically recurrent")
    m, n = c.shape.m, c.shape.n
    ts = list(c.top) + [n - 1]
    bs = list(c.bottom)
    it = ib = 0
    off_t = off_b = 0
    steps = []
    while it <= m and ib < n:
        head_t = ts[it] - off_t
        head_b = bs[ib] - off_b
        drain = min(head_t, head_b)
        if drain > 0:
            steps.extend(["U"] * drain)
            off_t += drain
            off_b += drain
            continue
        if head_t == 0 and head_b > 0:
            it += 1
            off_b += 1
            steps.append("HE")
        elif head_b == 0 and head_t > 0:
            ib += 1
            off_t += 1
            steps.append("HN")
        else:
            it += 1
            ib += 1
            steps.append("D")
    assert it == m + 1 and ib == n, "stacks must empty together on recurrent input"
    assert steps and steps[-1] == "D"
    return MotzkinWord(tuple(steps[:-1]))
