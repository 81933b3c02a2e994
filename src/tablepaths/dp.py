"""Column-marching engine: the ground truth for every counting family.

Every family obeys the same one-column recurrence: the count at (s, t)
is the sum of the counts at (s-1, t') over the rows t' that can step to
t.  The engine marches a dense row vector column by column and keeps
O(rows) state; full matrices are materialized only when a CountMatrix
is requested.

Confinement is enforced by clipping the stencil at the vector ends; the
virtual rows 0 and rows+1 are never stored.
"""

from __future__ import annotations

from itertools import accumulate

from .core import Cell, CountMatrix, TableDims


def _advance3(col: list[int]) -> list[int]:
    """One column step with the three-letter stencil, walls at both ends."""
    n = len(col)
    return [
        (col[t - 1] if t > 0 else 0) + col[t] + (col[t + 1] if t + 1 < n else 0)
        for t in range(n)
    ]


def _advance_ud(col: list[int]) -> list[int]:
    """One column step with the two-letter stencil (no flat step)."""
    n = len(col)
    return [
        (col[t - 1] if t > 0 else 0) + (col[t + 1] if t + 1 < n else 0)
        for t in range(n)
    ]


def _unit_column(rows: int, row: int) -> list[int]:
    col = [0] * rows
    col[row - 1] = 1
    return col


def di_table(dims: TableDims, start_row: int) -> CountMatrix:
    """Counts of confined paths from (1, start_row) to every cell."""
    if not 1 <= start_row <= dims.rows:
        raise ValueError(
            f"start row {start_row} outside [1, {dims.rows}]"
        )
    col = _unit_column(dims.rows, start_row)
    columns = [col]
    for _ in range(dims.cols - 1):
        col = _advance3(col)
        columns.append(col)
    return CountMatrix(dims, columns)


def d_table(dims: TableDims) -> CountMatrix:
    """Counts of confined paths from anywhere in column 1 to every cell."""
    col = [1] * dims.rows
    columns = [col]
    for _ in range(dims.cols - 1):
        col = _advance3(col)
        columns.append(col)
    return CountMatrix(dims, columns)


def a_table(n: int) -> CountMatrix:
    """Two-letter family: paths from (1, 1) with every prefix having at
    least as many u as d steps.

    The n-row window is exact, not an approximation: an entry needs
    t <= s <= n, so the top wall is never reached.
    """
    dims = TableDims(n, n)
    col = _unit_column(n, 1)
    columns = [col]
    for _ in range(n - 1):
        col = _advance_ud(col)
        columns.append(col)
    return CountMatrix(dims, columns)


def h_table(dims: TableDims) -> CountMatrix:
    """Prefix sums over rows of the start-row-1 family.

    Entry (s, t) counts paths from (1, 1) to column s ending in any row
    up to t; entry (s, rows) counts all paths from (1, 1) to column s.
    """
    return CountMatrix(dims, map(accumulate, di_table(dims, 1).columns()))


def hss_values(d1: CountMatrix) -> list[int]:
    """Diagonal footer H(s, min(s, rows)) for s = 1..cols, read from the
    start-row-1 table ``d1`` (as built by ``di_table(dims, 1)``).

    For s <= rows this is the true diagonal; beyond the top row the
    diagonal is capped at the table height, matching the tabulated
    footer convention.
    """
    rows = d1.dims.rows
    return [sum(col[:min(s, rows)]) for s, col in enumerate(d1.columns(), start=1)]


def bounded_pair_count(dims: TableDims, start: Cell, end: Cell) -> int:
    """Number of confined paths between two cells of the table."""
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
    col = _unit_column(dims.rows, start.row)
    for _ in range(end.col - start.col):
        col = _advance3(col)
    return col[end.row - 1]


def imn(dims: TableDims) -> int:
    """Number of paths crossing the whole table, any start and end row."""
    col = [1] * dims.rows
    for _ in range(dims.cols - 1):
        col = _advance3(col)
    return sum(col)


def imn_sequence(rows: int, max_cols: int) -> list[int]:
    """Whole-table counts for widths 1..max_cols at a fixed height."""
    if rows < 1 or max_cols < 1:
        raise ValueError("rows and max_cols must be positive")
    col = [1] * rows
    out = [sum(col)]
    for _ in range(max_cols - 1):
        col = _advance3(col)
        out.append(sum(col))
    return out


def d1_bottom_row(rows: int, max_cols: int) -> list[int]:
    """Bottom-row counts of the start-row-1 family for s = 1..max_cols."""
    if rows < 1 or max_cols < 1:
        raise ValueError("rows and max_cols must be positive")
    col = _unit_column(rows, 1)
    out = [col[0]]
    for _ in range(max_cols - 1):
        col = _advance3(col)
        out.append(col[0])
    return out


def free_count(net: int, steps: int) -> int:
    """Number of step words of the given length with a fixed net rise,
    with no walls.

    Runs the same confined advance routine over a window of rows
    [-steps, steps] around the start, which no walk of that length can
    leave, so its walls never bind.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if abs(net) > steps:
        return 0
    mid = steps
    col = [0] * (2 * steps + 1)
    col[mid] = 1
    for _ in range(steps):
        col = _advance3(col)
    return col[mid + net]
