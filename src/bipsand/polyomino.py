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

from ._record import record
from .model import BipartiteShape, Configuration
from .ferrers import FerrersPair, pair_to_config


def _positions(steps: str, mark: str) -> list:
    """For each `mark` step, left to right, how many other steps precede it.

    With mark "E" these are the path's heights at its E steps; with mark
    "N", its x-positions at its N steps.
    """
    seen = 0
    out = []
    for s in steps:
        if s == mark:
            out.append(seen)
        else:
            seen += 1
    return out


def _path(positions, total: int, mark: str) -> str:
    """The NE path whose `mark` steps occur at the given weakly increasing positions.

    Inverts _positions; `total` is the number of steps of the other kind.
    """
    other = "N" if mark == "E" else "E"
    cur = 0
    parts = []
    for x in positions:
        parts.append(other * (x - cur))
        parts.append(mark)
        cur = x
    parts.append(other * (total - cur))
    return "".join(parts)


@record
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
        # After k steps both paths lie on the diagonal x + y = k, so they
        # meet there exactly when they have taken equally many N steps.
        gap = 0
        for u, l in zip(up[:-1], lo):
            gap += (u == "N") - (l == "N")
            if not gap:
                raise ValueError("paths may only meet at their endpoints")

    @property
    def box_width(self) -> int:
        return self.upper.count("E")

    @property
    def box_height(self) -> int:
        return self.upper.count("N")

    def area(self) -> int:
        """Number of enclosed cells: columnwise gap between the two paths."""
        upper_h = _positions(self.upper, "E")
        lower_h = _positions(self.lower, "E")
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

    The paths are built first and their validity is the recurrence check:
    they bound a polyomino exactly when c is deterministically recurrent.
    """
    if not c.is_sorted:
        raise ValueError("configuration must be sorted")
    if not c.is_stable:
        raise ValueError("configuration must be stable")
    m, n = c.shape.m, c.shape.n
    upper = _path([t + 1 for t in c.top] + [n], n, "E")
    lower = _path([b + 1 for b in c.bottom], m + 1, "N")
    try:
        return ParallelogramPolyomino(upper, lower)
    except ValueError:
        raise ValueError(
            "configuration is not deterministically recurrent"
        ) from None


def polyomino_to_config(p: ParallelogramPolyomino) -> Configuration:
    """Invert config_to_polyomino: read the grain counts off the two paths."""
    m = p.box_width - 1
    n = p.box_height
    heights = _positions(p.upper, "E")
    positions = _positions(p.lower, "N")
    return Configuration._trusted(
        BipartiteShape(m, n),
        tuple(h - 1 for h in heights[:m]),
        tuple(x - 1 for x in positions),
    )


def pair_to_polyomino(pair: FerrersPair) -> ParallelogramPolyomino:
    """The polyomino of a strongly compatible pair, via its configuration.

    This is config_to_polyomino(pair_to_config("asm", pair)); the first
    diagram fixes m by its column count.  The result equals the cell-set
    difference of the padded pair described above; the tests check that
    identity against an independent construction.
    """
    return config_to_polyomino(pair_to_config("asm", pair))
