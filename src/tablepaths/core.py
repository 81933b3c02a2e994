"""Shared domain types for paths in a bounded table.

Conventions used everywhere in this package:

* A table has ``rows`` horizontal rows and ``cols`` columns.  Cells are
  addressed 1-based as ``(col, row)`` with the column advancing rightward.
* A step moves one column to the right and changes the row by +1
  (letter ``u``), 0 (letter ``r``) or -1 (letter ``d``).
* Counts are plain Python ``int`` values (arbitrary precision) and are
  never negative.

All values here are immutable after construction (``LatticeWord`` and
``CountMatrix`` by convention) and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Sequence

# Canonical letter order; also the enumeration order (u < r < d).
LETTERS = "urd"
STEP_RISE = {"u": 1, "r": 0, "d": -1}


@dataclass(frozen=True)
class TableDims:
    """Table geometry: ``rows`` horizontal rows by ``cols`` columns."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(
                f"table dimensions must be positive, got {self.rows}x{self.cols}"
            )

    def contains(self, cell: "Cell") -> bool:
        return 1 <= cell.col <= self.cols and 1 <= cell.row <= self.rows


@dataclass(frozen=True)
class Cell:
    """1-based (column, row) position.

    Rows 0 and rows+1 denote the virtual boundary rows used in leak-out
    arguments; they are never stored in a table.
    """

    col: int
    row: int


def check_pair(dims: TableDims, start: Cell, end: Cell) -> None:
    """Reject a cell pair unless both cells lie in the table and the
    start column is not right of the end column."""
    for cell in (start, end):
        if not dims.contains(cell):
            raise ValueError(
                f"cell ({cell.col},{cell.row}) outside "
                f"{dims.rows}x{dims.cols} table"
            )
    if start.col > end.col:
        raise ValueError(
            f"start column {start.col} right of end column {end.col}"
        )


@dataclass(unsafe_hash=True, slots=True)
class LatticeWord:
    """A word over the letters u, r, d together with its starting row.

    The induced row sequence is start_row, then one entry per letter,
    each shifted by that letter's rise; ``trace`` holds it comma-joined
    ("1,2,1").  Words compare and hash on (letters, start_row).
    """

    letters: str
    start_row: int = 1
    trace: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        bad = set(self.letters) - set(LETTERS)
        if bad:
            raise ValueError(f"letters must be from 'urd', got {sorted(bad)!r}")
        self.trace = ",".join(map(str, row_trace(self)))

    def __len__(self) -> int:
        return len(self.letters)


def row_trace(word: LatticeWord) -> tuple[int, ...]:
    """Visited rows r_0..r_k, one entry per column the word touches."""
    rows = [word.start_row]
    for ch in word.letters:
        rows.append(rows[-1] + STEP_RISE[ch])
    return tuple(rows)


class CountMatrix:
    """Immutable (col, row)-indexed matrix of nonnegative ``int`` counts.

    Indexing is 1-based: ``get(s, t)`` is the value at column s, row t.
    The matrix is fully populated over its declared rectangle.
    """

    __slots__ = ("dims", "_cols")

    def __init__(self, dims: TableDims, columns: Sequence[Sequence[int]]):
        # Each check is one pass in C.
        cols = tuple(map(tuple, columns))
        if len(cols) != dims.cols or set(map(len, cols)) != {dims.rows}:
            raise ValueError("column data does not match declared dims")
        if set(map(type, chain.from_iterable(cols))) != {int}:
            raise ValueError("counts must be ints")
        if min(map(min, cols)) < 0:
            raise ValueError("counts must be nonnegative")
        self.dims = dims
        self._cols = cols

    def get(self, col: int, row: int) -> int:
        if not (1 <= col <= self.dims.cols and 1 <= row <= self.dims.rows):
            raise ValueError(
                f"cell ({col},{row}) outside {self.dims.rows}x{self.dims.cols} table"
            )
        return self._cols[col - 1][row - 1]

    def column(self, col: int) -> tuple[int, ...]:
        """All row values of one column, bottom row first."""
        if not 1 <= col <= self.dims.cols:
            raise ValueError(f"column {col} outside table")
        return self._cols[col - 1]

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Every column, column 1 first; each one bottom row first."""
        return self._cols

    def entries(self) -> Iterator[tuple[int, int, int]]:
        """(col, row, value) triples in column-major order."""
        for s, col in enumerate(self._cols, start=1):
            for t, v in enumerate(col, start=1):
                yield s, t, v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountMatrix):
            return NotImplemented
        return self.dims == other.dims and self._cols == other._cols

    def __repr__(self) -> str:
        return f"CountMatrix({self.dims.rows}x{self.dims.cols})"
