"""Column-marching engine: the ground truth for every counting family.

Every family obeys the same one-column recurrence: the count at (s, t)
is the sum of the counts at (s-1, t') over the rows t' that can step to
t.  One generator, ``_march``, holds the only column loop: each family
starts it from its own first column (a unit column for D^i and A, all
ones for D and I_m(n)) and marches a row vector column by column with
O(rows) state; full matrices are materialized only when a CountMatrix
is requested.  A march from a unit column advances only its band: the
rows within s-1 of the start row, all that a path can reach by column
s, as every other row is zero.  Until the band reaches the top row its
columns are short: they stop one row above the band, and that last
entry stands for every row above it (0 for D^i and A, the column total
for H).  Each step is a kernel that adds whole shifted columns with
``map(add, ...)``, so its loop over rows runs in C.  ``columns`` is the
one switch from a family name to a first column and a step: the CLI's
``table`` streams its columns, ``sequence`` reduces each to a value, and
the four table builders pad them to full height into a CountMatrix.
``build`` names a builder by family, and ``cached``, the memo shared by
the verifier's engine side and the closed forms, wraps it.

Confinement is enforced by clipping the stencil at the vector ends; the
virtual rows 0 and rows+1 are never stored.

A pair count reflects instead: ``bounded_pair_count`` cuts the strip to
the rows its walk can reach (``pair_strip``), and reflection in the walls
makes its count a difference of two walk counts on the cycle Z/(2m + 2).
``_cycle_walks`` gets that difference from the column at the walk's middle,
squared up a ladder from a short march, and one contraction at the top.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, sub
from typing import Iterable, Iterator

from .core import Cell, CountMatrix, TableDims, check_pair


def _advance3(col: list[int]) -> list[int]:
    """One column step with the three-letter stencil, walls at both ends:
    each inner row adds its lower neighbour to the sum of itself and its
    upper one, and the ends are the sums of their pairs."""
    if len(col) < 2:
        return col[:]
    pairs = list(map(add, col, col[1:]))
    return [pairs[0], *map(add, col, pairs[1:]), pairs[-1]]


def _advance_ud(col: list[int]) -> list[int]:
    """One column step with the two-letter stencil (no flat step)."""
    return [col[1], *map(add, col, col[2:]), col[-2]]


def _advance_cycle(col: list[int]) -> list[int]:
    """One step on the cycle Z/n of a column symmetric about 0: entries 0..n/2."""
    return [
        a + b + c for a, b, c in zip(col[1:2] + col[:-1], col, col[1:] + col[-2:-1])
    ]


def _unit_column(rows: int, row: int, one=1) -> list[int]:
    col = [0] * rows
    col[row - 1] = one
    return col


def _march(col: list[int], cols: int, advance=_advance3,
           band: tuple[int, int] | None = None) -> Iterator[list[int]]:
    """The one column loop: yield ``col``, then the next ``cols - 1``
    columns, each one ``advance`` step from the one before.

    ``band`` (lo, hi) says only rows ``lo:hi`` of ``col`` may be nonzero.
    Each step can move a count one row, so the band widens by a row at
    each end until it meets the walls, and only the band is advanced: the
    rows outside it are zero, so the band, advanced with walls at its own
    ends, is exact.  Until the band reaches the top row, a column is
    short: its rows up to the band's top, then one 0 that stands for
    every row above it.  Once the band spans every row the loop is the
    plain ``advance(col)``."""
    yield col
    rows, left = len(col), cols - 1
    lo, hi = band or (0, rows)
    col = col[lo:hi]
    while left and (lo or hi < rows):
        below, above = lo > 0, hi < rows  # the band grows where it can
        col = advance([0] * below + col + [0] * above)
        lo, hi, left = lo - below, hi + above, left - 1
        yield [0] * lo + col + [0] * (hi < rows)
    for _ in range(left):
        col = advance(col)
        yield col


def _last(marched: Iterable[list[int]]) -> list[int]:
    """Run a march to its end, keeping only the last column."""
    return deque(marched, maxlen=1)[0]


_FAMILIES = ("di_table", "d_table", "h_table", "a_table")  # what ``build`` builds


def columns(family: str, rows: int, cols: int, *start: int, one=1) -> Iterator[list]:
    """The columns of ``family``'s ``rows`` x ``cols`` table, column 1 first,
    each a list, bottom row first, marched on columns whose unit is ``one``.
    A column may be short: its last entry then stands for every row above
    it (see ``_march``); ``d_table``'s columns are always full.

    The one switch from a family name (``di_table`` with its ``start``
    row, ``d_table``, ``h_table`` or ``a_table``) to a first column and a
    step.  Every check raises here, at the call, and the first column is
    made here too; the march after it is lazy.  It only adds, so a Decimal
    ``one`` in a context that cannot round gives the int values exactly,
    if the march is read to its end inside that context.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown table family {family!r}")
    TableDims(rows, cols)  # dims checked first
    if family == "d_table":
        return _march([one] * rows, cols)
    if family == "h_table":
        return map(list, map(accumulate, columns("di_table", rows, cols, 1, one=one)))
    if family == "a_table":
        if cols != rows:
            raise ValueError("kind 'a' is a square family; use --rows == --cols")
        row, advance = 1, _advance_ud
    else:
        (row,), advance = start, _advance3
        if not 1 <= row <= rows:
            raise ValueError(f"start row {row} outside [1, {rows}]")
    return _march(_unit_column(rows, row, one), cols, advance, (row - 1, row))


def _padded(marched: Iterable[list], rows: int) -> Iterator[list]:
    """Each of the ``marched`` columns as ``rows`` rows: a short column is
    padded with its last entry, which stands for every row above it.  Lazy,
    so a CountMatrix made from it holds one padded list at a time."""
    return (col + col[-1:] * (rows - len(col)) for col in marched)


def di_table(dims: TableDims, start_row: int) -> CountMatrix:
    """Counts of confined paths from (1, start_row) to every cell."""
    marched = columns("di_table", dims.rows, dims.cols, start_row)
    return CountMatrix(dims, _padded(marched, dims.rows))


def d_table(dims: TableDims) -> CountMatrix:
    """Counts of confined paths from anywhere in column 1 to every cell."""
    marched = columns("d_table", dims.rows, dims.cols)
    return CountMatrix(dims, _padded(marched, dims.rows))


def a_table(n: int) -> CountMatrix:
    """Two-letter family: paths from (1, 1) with every prefix having at
    least as many u as d steps.

    The n-row window is exact, not an approximation: an entry needs
    t <= s <= n, so the top wall is never reached.
    """
    return CountMatrix(TableDims(n, n), _padded(columns("a_table", n, n), n))


def h_table(dims: TableDims) -> CountMatrix:
    """Prefix sums over rows of the start-row-1 family.

    Entry (s, t) counts paths from (1, 1) to column s ending in any row
    up to t; entry (s, rows) counts all paths from (1, 1) to column s.
    """
    marched = columns("h_table", dims.rows, dims.cols)
    return CountMatrix(dims, _padded(marched, dims.rows))


def build(family: str, rows: int, cols: int, *start: int) -> CountMatrix:
    """A new ``rows`` x ``cols`` table of ``family``: ``di_table`` with its
    ``start`` row, ``d_table``, ``h_table``, or ``a_table`` (rows == cols).
    ``columns`` checks the request first; the builder is looked up at call
    time, so a patched one sees every build."""
    columns(family, rows, cols, *start)
    make = globals()[family]
    return make(rows) if family == "a_table" else make(TableDims(rows, cols), *start)


# The one memo, keyed on ``build``'s arguments: 128 tables hold an identity
# grid's working set.  The engine sides read about one width per column at
# each height; the closed forms read only power-of-two widths.
cached = lru_cache(maxsize=128)(build)


def hss_values(columns: Iterable) -> list:
    """Footer H(s, s) for s = 1..cols: the total of column s of the
    start-row-1 table, full or short (a short column ends in the zero that
    stands for every row above it).  D1(s, t) = 0 for t > s, so the total
    is H(s, s), and past the top row it is H(s, rows), all the paths."""
    return list(map(sum, columns))


def _squared_from(n: int) -> int:
    """The fewest steps whose column on Z/n is squared, not marched: about
    2n, until the n^2/8 products of a square outweigh the steps (measured)."""
    return n * (2 + n * n // 8192)


def _square_plan(n: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """Each pair a <= b of a half column's entries on Z/n, with the entries k
    of its circular square that its product feeds, each as many times as
    x = ±a and y = ±b meet at x + y = k, twice that if a < b."""
    def meets(a, b):
        return Counter((x + y) % n for x in {a, -a % n} for y in {b, -b % n})
    return [(a, b, [(k, c << (a < b)) for k, c in meets(a, b).items() if k <= n // 2])
            for b in range(n // 2 + 1) for a in range(b + 1)]


def _cycle_walks(n: int, steps: int, end: int, image: int) -> int:
    """Walks of ``steps`` steps from 0 to ``end`` on the cycle Z/n, n even,
    less those to ``image``.  A column keeps its entries 0..n/2, as walks to
    j and to -j are equal in number.  The column after h = steps // 2 steps
    is marched while short, else squared: the column after 2k (+1) steps is
    the circular square of the one after k (then one march step).  The top
    contracts it once with the rest of each walk, both ends in one weight."""
    h, half = steps // 2, n // 2
    levels = (h // _squared_from(n)).bit_length()
    col = _last(_march(_unit_column(half + 1, 1), (h >> levels) + 1, _advance_cycle))
    plan = _square_plan(n) if levels else []
    for level in reversed(range(levels)):
        square = [0] * len(col)
        for a, b, feeds in plan:  # each product is added where it feeds, then dropped
            p = col[a] * col[b]
            for k, c in feeds:
                square[k] += c * p
        col = _advance_cycle(square) if h >> level & 1 else square
    rest = _advance_cycle(col) if steps % 2 else col
    rest = rest + rest[-2:0:-1]  # all n entries; rest[e - i] walks from i to e
    weights = [*map(sub, *(rest[e::-1] + rest[:e:-1] for e in (end, image)))]
    folded = map(add, weights[:half + 1], [0, *weights[:half:-1], 0])  # i and -i
    return sum(map(mul, col, folded))


def pair_strip(dims: TableDims, start: Cell, end: Cell) -> tuple[int, int]:
    """The rows ``low..high`` that a path between two cells of the table can
    reach: those within its number of steps of the start row."""
    check_pair(dims, start, end)
    steps = end.col - start.col
    return max(1, start.row - steps), min(dims.rows, start.row + steps)


def bounded_pair_count(dims: TableDims, start: Cell, end: Cell) -> int:
    """Number of confined paths between two cells of the table."""
    low, high = pair_strip(dims, start, end)
    steps = end.col - start.col
    if not low <= end.row <= high:  # the strip is cut to the rows in reach
        return 0
    if low == high:  # one row: only flat steps fit
        return 1
    if high - low == 1:  # two rows: each step but the last has two choices
        return 1 << (steps - 1)
    r0, r1 = start.row - low + 1, end.row - low + 1
    return _cycle_walks(2 * (high - low + 2), steps, abs(r1 - r0), r1 + r0)


def imn(dims: TableDims) -> int:
    """Number of paths crossing the whole table, any start and end row."""
    return sum(_last(columns("d_table", dims.rows, dims.cols)))


def imn_sequence(rows: int, max_cols: int) -> list[int]:
    """Whole-table counts for widths 1..max_cols at a fixed height."""
    return list(map(sum, columns("d_table", rows, max_cols)))


def d1_bottom_row(rows: int, max_cols: int) -> list[int]:
    """Bottom-row counts of the start-row-1 family for s = 1..max_cols."""
    return [col[0] for col in columns("di_table", rows, max_cols, 1)]


def free_count(net: int, steps: int) -> int:
    """Number of step words of the given length with a fixed net rise,
    with no walls: walks on a cycle too long for them to wrap around."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if abs(net) > steps:
        return 0
    return _cycle_walks(2 * steps + 2, steps, abs(net), steps + 1)  # out of reach
