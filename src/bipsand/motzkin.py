"""Labelled Motzkin paths and their bijection with recurrent configurations.

A word over {U, D, HN, HE} is a labelled Motzkin path when its running
height (U up, D down, H flat) never dips below zero and ends at zero.  For
the shape (m, n) the word has length m+n-1, with exactly m steps in
{D, HE} and n-1 steps in {D, HN}.

Pairing the interior steps of a polyomino's two paths (first and last step
of each dropped) gives the word: (N,E) -> U, (N,N) -> HN, (E,E) -> HE,
(E,N) -> D; the word is the diagonal-distance profile of the polyomino.
The maps to and from sorted deterministically recurrent configurations go
through the polyomino, so the triangle of bijections commutes by
construction.  The area under the word equals the level of the
configuration.
"""
from __future__ import annotations

from itertools import accumulate

from ._record import record
from .model import Configuration
from .polyomino import ParallelogramPolyomino, config_to_polyomino, polyomino_to_config

_TO_CHAR = {"U": "U", "D": "D", "HN": "n", "HE": "e"}
_FROM_CHAR = {v: k for k, v in _TO_CHAR.items()}
_PAIR_TO_STEP = {("N", "E"): "U", ("N", "N"): "HN", ("E", "E"): "HE", ("E", "N"): "D"}
_STEP_TO_PAIR = {v: k for k, v in _PAIR_TO_STEP.items()}
_RISE = {"U": 1, "D": -1, "HN": 0, "HE": 0}


@record
class MotzkinWord:
    """Step sequence over {U, D, HN, HE} staying on or above the axis."""

    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        h = 0
        for s in self.steps:
            rise = _RISE.get(s)
            if rise is None:
                raise ValueError(f"unknown step {s!r}")
            h += rise
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

    def area(self) -> int:
        """Area between the path and the axis: the sum of the step heights.

        A step starting at height h encloses h, plus 1/2 for U and minus 1/2
        for D.  The word ends on the axis, so its U and D steps pair up, the
        halves cancel, and the area is the sum of the starting heights, an
        integer.
        """
        return sum(accumulate(map(_RISE.get, self.steps), initial=0))

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
    """The sorted recurrent configuration of a word, via its polyomino."""
    return polyomino_to_config(motzkin_to_polyomino(w))


def config_to_motzkin(c: Configuration) -> MotzkinWord:
    """The word of a sorted deterministically recurrent configuration, via its polyomino."""
    return polyomino_to_motzkin(config_to_polyomino(c))
