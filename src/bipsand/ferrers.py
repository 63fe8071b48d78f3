"""Ferrers diagrams and their pairing with recurrent configurations.

A diagram is stored as its row-length vector, bottom to top, weakly
increasing.  Two cell moves generate everything here: shift (move one cell
to a lower row, area preserved) and add (append one cell to a row, area
plus one); a move is legal when the result is still a Ferrers diagram.

A sorted recurrent configuration c maps to the pair (F(k), F(bottom)),
where k is the k-vector of the top side.  The second diagram is reachable
from the first by legal shifts and adds exactly when the configuration is
recurrent for the stochastic model (prefix dominance), and by adds alone
exactly for the deterministic model (rowwise dominance); both tests are
the recurrence check's dominance test run on the pair's rows.  The
reachability graph over all diagrams of a given shape is a bipolar DAG
whose blue edges are shifts and red edges are adds.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import GuardError
from .model import BipartiteShape, Configuration, _check_int, _check_model, _check_shape
from .recurrence import _dominates, counts_below, is_recurrent

_DAG_MAX_CELLS = 36  # build_dag's bound on m*n: 0.02 s at 6x6 (905 diagrams)


@dataclass(frozen=True)
class FerrersDiagram:
    """Row lengths bottom to top: integers, weakly increasing, non-negative."""

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("a diagram needs at least one row")
        for x in self.rows:
            _check_int("row length", x)
        if min(self.rows) < 0:
            raise ValueError("row lengths must be non-negative")
        for r in range(len(self.rows) - 1):
            if self.rows[r] > self.rows[r + 1]:
                raise ValueError(
                    f"rows must weakly increase bottom to top; "
                    f"rows {r + 1},{r + 2} hold {self.rows[r]},{self.rows[r + 1]}"
                )

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def area(self) -> int:
        return sum(self.rows)

    @property
    def columns(self) -> int:
        return self.rows[-1]

    @classmethod
    def from_text(cls, text: str) -> "FerrersDiagram":
        try:
            rows = tuple(int(x) for x in text.split(","))
        except ValueError:
            raise ValueError(f"malformed diagram text {text!r}") from None
        return cls(rows)

    def to_text(self) -> str:
        return ",".join(map(str, self.rows))


def shift(diagram: FerrersDiagram, from_row: int, to_row: int) -> FerrersDiagram:
    """Move one cell from from_row to the lower to_row (1-based, bottom up)."""
    n = diagram.n_rows
    if not (1 <= to_row < from_row <= n):
        raise ValueError(
            f"shift needs 1 <= to_row < from_row <= {n}, got {from_row} -> {to_row}"
        )
    rows = list(diagram.rows)
    rows[from_row - 1] -= 1
    rows[to_row - 1] += 1
    return FerrersDiagram(tuple(rows))


def add(diagram: FerrersDiagram, row: int) -> FerrersDiagram:
    """Append one cell to the given row (1-based, bottom up)."""
    n = diagram.n_rows
    if not (1 <= row <= n):
        raise ValueError(f"add needs 1 <= row <= {n}, got {row}")
    rows = list(diagram.rows)
    rows[row - 1] += 1
    return FerrersDiagram(tuple(rows))


def legal_shifts(diagram: FerrersDiagram) -> Iterator[tuple]:
    """All (from_row, to_row) pairs whose shift keeps the diagram valid."""
    rows = diagram.rows
    for p in range(2, len(rows) + 1):
        if rows[p - 1] > rows[p - 2]:  # row p can give a cell
            for q in range(1, p - 1):
                if rows[q - 1] < rows[q]:  # row q can take one
                    yield (p, q)
            if rows[p - 1] - rows[p - 2] >= 2:  # between adjacent rows the gap closes from both ends
                yield (p, p - 1)


def legal_adds(diagram: FerrersDiagram) -> Iterator[int]:
    """All rows whose add keeps the diagram valid."""
    rows = diagram.rows
    n = len(rows)
    for p in range(1, n + 1):
        if p == n or rows[p - 1] < rows[p]:
            yield p


def apply_sequence(diagram: FerrersDiagram, ops) -> FerrersDiagram:
    """Replay a list of ('shift', p, q) / ('add', p) operations."""
    for op in ops:
        if op[0] == "shift":
            diagram = shift(diagram, op[1], op[2])
        elif op[0] == "add":
            diagram = add(diagram, op[1])
        else:
            raise ValueError(f"unknown operation {op!r}")
    return diagram


def _compatible(first: FerrersDiagram, second: FerrersDiagram, rowwise: bool) -> bool:
    """The recurrence check's dominance test, second's rows over first's."""
    if first.n_rows != second.n_rows:
        raise ValueError("diagrams must have the same number of rows")
    return _dominates(first.rows, second.rows, rowwise)


def is_compatible(first: FerrersDiagram, second: FerrersDiagram) -> bool:
    """True iff second is reachable from first by legal shifts and adds.

    Decided in O(n) by the recurrence check's prefix dominance test on the
    rows, second over first; reachability in the diagram DAG agrees with
    this (exhaustively tested at small sizes) but is never searched here.
    """
    return _compatible(first, second, rowwise=False)


def is_strongly_compatible(first: FerrersDiagram, second: FerrersDiagram) -> bool:
    """True iff second is reachable from first by legal adds alone (rowwise dominance)."""
    return _compatible(first, second, rowwise=True)


@dataclass(frozen=True)
class FerrersPair:
    """Two diagrams with equal row counts; the image of a sorted recurrent configuration."""

    first: FerrersDiagram
    second: FerrersDiagram

    def __post_init__(self):
        if self.first.n_rows != self.second.n_rows:
            raise ValueError("paired diagrams must have the same number of rows")

    @classmethod
    def from_text(cls, text: str) -> "FerrersPair":
        if text.count("|") != 1:
            raise ValueError(f"expected 'ROWS|ROWS' with one '|', got {text!r}")
        a, b = text.split("|")
        return cls(FerrersDiagram.from_text(a), FerrersDiagram.from_text(b))

    def to_text(self) -> str:
        return f"{self.first.to_text()}|{self.second.to_text()}"


def _require_compatible(model: str, first: FerrersDiagram, second: FerrersDiagram) -> None:
    # asm pairs need rowwise dominance, ssm pairs prefix dominance
    if not _compatible(first, second, rowwise=model == "asm"):
        raise ValueError(f"pair is not {model}-compatible")


def config_to_pair(model: str, c: Configuration) -> FerrersPair:
    """Map a sorted recurrent configuration to its diagram pair (F(k), F(bottom)).

    The pair is compatible for ssm and strongly compatible for asm; the
    area difference of the two diagrams equals the level of c.
    """
    _check_model(model)
    if not c.is_sorted:
        raise ValueError("configuration must be sorted")
    if not is_recurrent(c, model):
        raise ValueError(f"configuration is not recurrent under {model}")
    k = counts_below(c.top, c.shape.n)
    return FerrersPair(FerrersDiagram(k), FerrersDiagram(c.bottom))


def pair_to_config(model: str, pair: FerrersPair) -> Configuration:
    """Invert config_to_pair; m is the first diagram's column count."""
    _check_model(model)
    first, second = pair.first, pair.second
    m = first.columns
    n = first.n_rows
    if second.columns > m:
        raise ValueError(
            f"second diagram has {second.columns} columns but the first fixes m={m}"
        )
    _require_compatible(model, first, second)
    # Sorted top side read off the first diagram's south-east border:
    # entry i counts the rows shorter than i.
    top = counts_below(first.rows, m + 1)[:m]
    return Configuration._trusted(BipartiteShape(m, n), top, second.rows)


@dataclass(frozen=True)
class LabelledFerrersPair:
    """A diagram pair plus the original vertex indices of its columns and rows.

    column_labels[i] is the top vertex whose grain count became the i-th
    column of the first diagram (left to right); row_labels[j] likewise for
    the j-th row of the second diagram (bottom to top).  Columns of equal
    height and rows of equal length carry increasing labels, which pins
    down the labelling of sorted ties.
    """

    pair: FerrersPair
    column_labels: tuple
    row_labels: tuple

    def __post_init__(self):
        m = self.pair.first.columns
        n = self.pair.second.n_rows
        for name, labels in (("column label", self.column_labels), ("row label", self.row_labels)):
            for label in labels:
                _check_int(name, label)
        if sorted(self.column_labels) != list(range(1, m + 1)):
            raise ValueError("column labels must be a permutation of 1..m")
        if sorted(self.row_labels) != list(range(1, n + 1)):
            raise ValueError("row labels must be a permutation of 1..n")


def _stable_order(values) -> list:
    # positions sorted by value; sorted() is stable, so ties keep their order
    return sorted(range(len(values)), key=values.__getitem__)


def _unsort(side: tuple, labels: tuple, message: str) -> tuple:
    # Entry i of the sorted side goes back to vertex labels[i]; the labels
    # are valid only if the tie rule of config_to_labelled_pair, _stable_order,
    # reproduces them from the result.
    values = [0] * len(side)
    for pos, label in enumerate(labels):
        values[label - 1] = side[pos]
    if _stable_order(values) != [label - 1 for label in labels]:
        raise ValueError(message)
    return tuple(values)


def config_to_labelled_pair(model: str, c: Configuration) -> LabelledFerrersPair:
    """Map any recurrent configuration (sorted or not) to a labelled pair."""
    _check_model(model)
    order_t = _stable_order(c.top)
    order_b = _stable_order(c.bottom)
    sc = Configuration._trusted(
        c.shape,
        tuple(c.top[i] for i in order_t),
        tuple(c.bottom[j] for j in order_b),
    )
    pair = config_to_pair(model, sc)
    return LabelledFerrersPair(
        pair,
        tuple(i + 1 for i in order_t),
        tuple(j + 1 for j in order_b),
    )


def labelled_pair_to_config(model: str, lp: LabelledFerrersPair) -> Configuration:
    """Invert config_to_labelled_pair, restoring the original vertex order."""
    sc = pair_to_config(model, lp.pair)
    top = _unsort(sc.top, lp.column_labels, "equal-height columns must carry increasing labels")
    bottom = _unsort(sc.bottom, lp.row_labels, "equal-length rows must carry increasing labels")
    return Configuration._trusted(sc.shape, top, bottom)


@dataclass(frozen=True)
class FerrersDag:
    """Reachability graph over diagrams: blue edges are shifts, red edges adds."""

    model: str
    shape: BipartiteShape
    vertices: tuple
    edges: tuple  # (from_diagram, to_diagram, color)

    def sources(self) -> list:
        with_in = {e[1] for e in self.edges}
        return [v for v in self.vertices if v not in with_in]

    def sinks(self) -> list:
        with_out = {e[0] for e in self.edges}
        return [v for v in self.vertices if v not in with_out]


def build_dag(model: str, shape: BipartiteShape) -> FerrersDag:
    """All diagrams for the shape plus every legal one-move edge between them.

    Vertices for ssm: at most m columns, n rows, area at least m.  For asm:
    exactly m columns (so only add edges appear).  The DAG is bipolar with
    source (0,..,0,m) and sink (m,..,m).  GuardError past _DAG_MAX_CELLS.
    """
    _check_model(model)
    _check_shape(shape)
    m, n = shape.m, shape.n
    if m * n > _DAG_MAX_CELLS:
        raise GuardError(f"diagram DAG needs m*n <= {_DAG_MAX_CELLS}, got {m * n}")
    keep = (lambda rows: sum(rows) >= m) if model == "ssm" else (lambda rows: rows[-1] == m)
    vertices = [
        FerrersDiagram(rows)
        for rows in combinations_with_replacement(range(m + 1), n)
        if keep(rows)
    ]
    vset = set(vertices)
    edges = []
    for F in vertices:
        if model == "ssm":
            for p, q in legal_shifts(F):
                G = shift(F, p, q)
                if G in vset:
                    edges.append((F, G, "blue"))
        for p in legal_adds(F):
            G = add(F, p)
            if G in vset:
                edges.append((F, G, "red"))
    return FerrersDag(model, shape, tuple(vertices), tuple(edges))


def dag_to_dot(dag: FerrersDag) -> str:
    """Render the DAG as a DOT digraph; vertex labels are row vectors."""
    lines = ["digraph ferrers {"]
    for v in dag.vertices:
        lines.append(f'  "{v.to_text()}";')
    for src, dst, color in dag.edges:
        lines.append(f'  "{src.to_text()}" -> "{dst.to_text()}" [color={color}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def witness_sequence(
    model: str, first: FerrersDiagram, second: FerrersDiagram
) -> list:
    """A legal operation sequence turning first into second.

    All shifts come before all adds; the asm variant uses adds only.  The
    shift phase repeatedly takes the lowest row where first still exceeds
    second and moves one cell down to the closest lower row with slack;
    the add phase fills rows top to bottom.  The number of adds always
    equals the area difference.
    """
    _check_model(model)
    _require_compatible(model, first, second)
    ops = []
    cur = first
    n = first.n_rows
    target = second.rows
    while True:
        p = next((r for r in range(n) if cur.rows[r] > target[r]), None)
        if p is None:
            break
        q = max(r for r in range(p) if cur.rows[r] < target[r])
        ops.append(("shift", p + 1, q + 1))
        cur = shift(cur, p + 1, q + 1)
    for r in range(n, 0, -1):
        for _ in range(target[r - 1] - cur.rows[r - 1]):
            ops.append(("add", r))
            cur = add(cur, r)
    return ops
