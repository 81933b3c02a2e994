"""Shared domain types for paths in a bounded table.

Conventions used everywhere in this package:

* A table has ``rows`` horizontal rows and ``cols`` columns.  Cells are
  addressed 1-based as ``(col, row)`` with the column advancing rightward.
* A step moves one column to the right and changes the row by +1
  (letter ``u``), 0 (letter ``r``) or -1 (letter ``d``).
* Counts are plain Python ``int`` values (arbitrary precision) and are
  never negative.

Values are read-only ``_Value``s, the tables ``dp.cached`` shares too:
equal and hashed by fields within their class, copied and pickled by calling
the class again.  ``LatticeWord`` alone is read-only by convention only.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

# Canonical letter order; also the enumeration order (u < r < d).
LETTERS = "urd"
STEP_RISE = {"u": 1, "r": 0, "d": -1}


class _Value:
    """A slotted, read-only value: equal to, and hashed as, a value of its
    own class with equal ``_fields``; copied, deep-copied and pickled by
    calling its class on them again; shown as ``Name(field=value, ...)``.
    ``__init__`` sets the fields through ``_set``, or through the slots'
    own setters where construction is hot (``TableDims``, ``Cell``)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return self.__class__, self._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class TableDims(_Value):
    """Table geometry: ``rows`` horizontal rows by ``cols`` columns."""

    __slots__ = _fields = ("rows", "cols")

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError(f"table dimensions must be positive, got {rows}x{cols}")
        _set_rows(self, rows)
        _set_cols(self, cols)


class Cell(_Value):
    """1-based (column, row) position."""

    __slots__ = _fields = ("col", "row")

    def __init__(self, col: int, row: int) -> None:
        _set_col(self, col)
        _set_row(self, row)


# Each slot's own setter: one call per field, where ``_set`` loops.
_set_rows, _set_cols = TableDims.rows.__set__, TableDims.cols.__set__
_set_col, _set_row = Cell.col.__set__, Cell.row.__set__


def check_cell(dims: TableDims, col: int, row: int) -> None:
    """Reject the cell (col, row) unless it lies in the table."""
    if not (1 <= col <= dims.cols and 1 <= row <= dims.rows):
        raise ValueError(f"cell ({col},{row}) outside {dims.rows}x{dims.cols} table")


def check_pair(dims: TableDims, start: Cell, end: Cell) -> None:
    """Reject a cell pair unless both cells lie in the table and the
    start column is not right of the end column."""
    check_cell(dims, start.col, start.row)
    check_cell(dims, end.col, end.row)
    if start.col > end.col:
        raise ValueError(
            f"start column {start.col} right of end column {end.col}"
        )


class LatticeWord(_Value):
    """A word over the letters u, r, d together with its starting row.

    The induced row sequence is start_row, then one entry per letter,
    each shifted by that letter's rise; ``trace`` holds it comma-joined
    ("1,2,1").  Words compare and hash on (letters, start_row).
    """

    __slots__ = ("letters", "start_row", "trace")
    _fields = ("letters", "start_row")
    # Immutable by convention only: the oracle fills in the words it lists.
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, letters: str, start_row: int = 1) -> None:
        bad = set(letters) - set(LETTERS)
        if bad:
            raise ValueError(f"letters must be from 'urd', got {sorted(bad)!r}")
        self.letters, self.start_row = letters, start_row
        self.trace = ",".join(map(str, row_trace(self)))

    def __len__(self) -> int:
        return len(self.letters)


def row_trace(word: LatticeWord) -> tuple[int, ...]:
    """Visited rows r_0..r_k, one entry per column the word touches."""
    rows = [word.start_row]
    for ch in word.letters:
        rows.append(rows[-1] + STEP_RISE[ch])
    return tuple(rows)


class CountMatrix(_Value):
    """Read-only (col, row)-indexed matrix of nonnegative ``int`` counts.

    Indexing is 1-based: ``get(s, t)`` is the value at column s, row t.
    The matrix is fully populated over its declared rectangle.
    """

    __slots__ = _fields = ("dims", "_cols")

    def __init__(self, dims: TableDims, columns: Sequence[Sequence[int]]):
        # Each check is one pass in C.
        cols = tuple(map(tuple, columns))
        if len(cols) != dims.cols or set(map(len, cols)) != {dims.rows}:
            raise ValueError("column data does not match declared dims")
        if set(map(type, chain.from_iterable(cols))) != {int}:
            raise ValueError("counts must be ints")
        if min(map(min, cols)) < 0:
            raise ValueError("counts must be nonnegative")
        self._set(dims, cols)

    def get(self, col: int, row: int) -> int:
        check_cell(self.dims, col, row)
        return self._cols[col - 1][row - 1]

    def column(self, col: int) -> tuple[int, ...]:
        """All row values of one column, bottom row first."""
        if not 1 <= col <= self.dims.cols:
            raise ValueError(f"column {col} outside table")
        return self._cols[col - 1]

    def __repr__(self) -> str:
        return f"CountMatrix({self.dims.rows}x{self.dims.cols})"
