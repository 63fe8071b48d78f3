"""Parallelogram polyominoes: cells between two non-crossing lattice paths.

Both paths run from (0,0) to (m+1, n) in N and E unit steps and share no
lattice point except the endpoints, the upper path staying above.  A
sorted configuration c that is recurrent for the deterministic model maps
to the polyomino whose upper-path E steps sit at heights
(1+c^t_1, .., 1+c^t_m, n) and whose lower-path N steps sit at x-positions
(1+c^b_1, .., 1+c^b_n); the enclosed cell count exceeds the level of c by
exactly m+n.

The same polyomino arises from the diagram pair of c by a cell-set
difference: pad the first diagram with an empty bottom row and one extra
cell on its top row, pad the second with one cell per row and a full new
top row, and subtract.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import BipartiteShape, Configuration
from .recurrence import is_deterministically_recurrent
from .ferrers import FerrersPair, is_strongly_compatible


def _walk(steps: str) -> list:
    """Lattice points visited by a step string, starting at (0,0)."""
    x = y = 0
    pts = [(0, 0)]
    for s in steps:
        if s == "E":
            x += 1
        else:
            y += 1
        pts.append((x, y))
    return pts


def _e_heights(steps: str) -> list:
    """Height of the path at each of its E steps, left to right."""
    y = 0
    out = []
    for s in steps:
        if s == "N":
            y += 1
        else:
            out.append(y)
    return out


def _n_positions(steps: str) -> list:
    """X-position of the path at each of its N steps, bottom to top."""
    x = 0
    out = []
    for s in steps:
        if s == "E":
            x += 1
        else:
            out.append(x)
    return out


def _path_with_e_heights(heights, total_height: int) -> str:
    """The NE path whose E steps occur at the given weakly increasing heights."""
    cur = 0
    parts = []
    for h in heights:
        parts.append("N" * (h - cur))
        parts.append("E")
        cur = h
    parts.append("N" * (total_height - cur))
    return "".join(parts)


def _path_with_n_positions(positions, total_width: int) -> str:
    """The NE path whose N steps occur at the given weakly increasing x-positions."""
    cur = 0
    parts = []
    for x in positions:
        parts.append("E" * (x - cur))
        parts.append("N")
        cur = x
    parts.append("E" * (total_width - cur))
    return "".join(parts)


@dataclass(frozen=True)
class ParallelogramPolyomino:
    """Upper and lower step strings over {N, E} from (0,0) to (box width, box height)."""

    upper: str
    lower: str

    def __post_init__(self):
        up, lo = self.upper, self.lower
        if not up or not lo:
            raise ValueError("paths must be nonempty")
        if set(up) | set(lo) > {"N", "E"}:
            raise ValueError("paths use steps N and E only")
        if up.count("E") != lo.count("E") or up.count("N") != lo.count("N"):
            raise ValueError("paths must share their endpoint")
        if up[0] != "N" or up[-1] != "E":
            raise ValueError("upper path must start with N and end with E")
        if lo[0] != "E" or lo[-1] != "N":
            raise ValueError("lower path must start with E and end with N")
        endpoints = {(0, 0), (up.count("E"), up.count("N"))}
        if set(_walk(up)) & set(_walk(lo)) != endpoints:
            raise ValueError("paths may only meet at their endpoints")

    @property
    def box_width(self) -> int:
        return self.upper.count("E")

    @property
    def box_height(self) -> int:
        return self.upper.count("N")

    def area(self) -> int:
        """Number of enclosed cells: columnwise gap between the two paths."""
        upper_h = _e_heights(self.upper)
        lower_h = _e_heights(self.lower)
        return sum(u - l for u, l in zip(upper_h, lower_h))

    @classmethod
    def from_text(cls, text: str) -> "ParallelogramPolyomino":
        try:
            upart, lpart = text.split(";")
            upper = upart.removeprefix("upper=")
            lower = lpart.removeprefix("lower=")
            if upart == upper or lpart == lower:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"expected 'upper=STEPS;lower=STEPS', got {text!r}"
            ) from None
        return cls(upper, lower)

    def to_text(self) -> str:
        return f"upper={self.upper};lower={self.lower}"


def config_to_polyomino(c: Configuration) -> ParallelogramPolyomino:
    """Map a sorted deterministically recurrent configuration to its polyomino.

    The paths are built first and validity is what rejects bad input; the
    recurrence check is asserted to agree, so every call cross-validates
    the two characterizations.
    """
    if not c.is_sorted:
        raise ValueError("configuration must be sorted")
    if not c.is_stable:
        raise ValueError("configuration must be stable")
    m, n = c.shape.m, c.shape.n
    upper = _path_with_e_heights([t + 1 for t in c.top] + [n], n)
    lower = _path_with_n_positions([b + 1 for b in c.bottom], m + 1)
    try:
        poly = ParallelogramPolyomino(upper, lower)
    except ValueError:
        assert not is_deterministically_recurrent(c)
        raise ValueError(
            "configuration is not deterministically recurrent"
        ) from None
    assert is_deterministically_recurrent(c)
    return poly


def polyomino_to_config(p: ParallelogramPolyomino) -> Configuration:
    """Invert config_to_polyomino: read the grain counts off the two paths."""
    m = p.box_width - 1
    n = p.box_height
    heights = _e_heights(p.upper)
    positions = _n_positions(p.lower)
    c = Configuration(
        BipartiteShape(m, n),
        tuple(h - 1 for h in heights[:m]),
        tuple(x - 1 for x in positions),
    )
    assert is_deterministically_recurrent(c)
    return c


def _cells(rows) -> set:
    return {(col, r + 1) for r, length in enumerate(rows) for col in range(1, length + 1)}


def pair_to_polyomino(pair: FerrersPair) -> ParallelogramPolyomino:
    """Cell-set difference of the padded diagram pair, as a polyomino.

    Requires a strongly compatible pair whose first diagram fixes m by its
    column count.  Equals config_to_polyomino of the configuration the
    pair stands for.
    """
    first, second = pair.first, pair.second
    m = first.columns
    n = first.n_rows
    if second.columns > m:
        raise ValueError(
            f"second diagram has {second.columns} columns but the first fixes m={m}"
        )
    if not is_strongly_compatible(first, second):
        raise ValueError("pair is not strongly compatible")
    padded_first = (0,) + first.rows[:-1] + (first.rows[-1] + 1,)
    padded_second = tuple(r + 1 for r in second.rows) + (m + 1,)
    assert all(f <= s for f, s in zip(padded_first, padded_second))
    diff = _cells(padded_second) - _cells(padded_first)
    left = []
    right = []
    for r in range(1, n + 1):
        cols = sorted(col for col, row in diff if row == r)
        assert cols and cols == list(range(cols[0], cols[-1] + 1))
        left.append(cols[0] - 1)
        right.append(cols[-1])
    assert not any(row == n + 1 for _, row in diff)
    upper = _path_with_n_positions(left, m + 1)
    lower = _path_with_n_positions(right, m + 1)
    return ParallelogramPolyomino(upper, lower)
