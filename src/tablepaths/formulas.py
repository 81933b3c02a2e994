"""Closed-form evaluators built from binomial arithmetic and
start-row-1 tables.

Each function evaluates one identity directly; the verifier module owns
the comparisons.  Three places read the engine, each through
``dp.cached``, the table memo the verifier's engine sides read too:
``_leaks``, the one wall-leak sum behind D-BOUNDARY (both variants),
H-SQUARE and S2, reads ``dp.di_table`` rows, and ``d1_split`` and
``i_inner`` are inner products of two ``dp.di_table`` and two
``dp.d_table`` columns.  H-SQUARE's D(n, n) comes from ``d1_closed``.
So those identities check relations among engine-table entries; the
brute-force oracle is the independent side.  Each read is free of the
width: it takes its height's table at the next power of two, whose
columns start with those of every narrower table.
Four private memos, each a bounded ``lru_cache``, answer repeated
points: ``_d_boundary_value`` keyed on (m, s, t, bottom start, top
start), which leaves out the width since D(s, t) does not depend on it;
``_s_free_sum`` keyed on (|x|, y, pinned), which the S-FREE pair and S2
share; and the two sequences a ``_leaks`` wall multiplies, ``_d1_rows``
and ``_frees``.  Every public call still runs its own argument checks
before reading them.

Rational forms divide exactly; a nonzero remainder would mean a
transcription bug, so it raises instead of rounding.

Two deliberately wrong variants are kept alongside their corrected
forms (``d_boundary_printed``, ``s_free_printed``) so the verifier can
confirm and document their failure with a concrete counterexample.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from . import dp
from .core import Cell, TableDims, check_cell, check_pair

# The value memos' bound: the doubled grid's D-BOUNDARY keys (3,744
# over both variants) fit, so a verify run computes each value once,
# and a wider grid cycles through a fixed number of entries.
_MEMO_SIZE = 4096


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient, 0 outside the Pascal triangle."""
    if n < 0 or k < 0:
        return 0
    return math.comb(n, k)


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"expected exact division, got {num}/{den}")
    return q


def a_closed(s: int, t: int) -> int:
    """Ballot-style closed form A(s,t) = (2t/(s+t)) * C(s-1, (s-t)/2).

    Zero when s and t have distinct parities; the division is exact.
    """
    if s < 1 or t < 1:
        raise ValueError("s and t must be positive")
    if t > s:
        raise ValueError(f"a_closed requires t <= s, got s={s}, t={t}")
    if (s - t) % 2:
        return 0
    return _exact_div(2 * t * binomial(s - 1, (s - t) // 2), s + t)


def d1_via_a(s: int, t: int) -> int:
    """Start-row-1 count via its two-letter reduction.

    D1(s,t) = sum_{i=0}^{(s-t)//2} C(s-1, s-t-2i) * A(t+2i, t) counts
    paths with no top wall, so it is the m-row D1(s,t) exactly when
    s + t <= 2m + 1: reaching row m + 1 and coming down to row t takes
    2m + 1 - t steps, and s - 1 are taken.
    """
    if s < 1 or t < 1:
        raise ValueError("s and t must be positive")
    return sum(
        binomial(s - 1, s - t - 2 * i) * a_closed(t + 2 * i, t)
        for i in range((s - t) // 2 + 1)
    )


def d1_closed(s: int, t: int) -> int:
    """Fully expanded form of :func:`d1_via_a`.

    D1(s,t) = sum_{i} (t/(t+i)) * C(s-1, s-t-2i) * C(t+2i-1, i); each
    term divides exactly.  Exact in an m-row table when s + t <= 2m + 1,
    as :func:`d1_via_a` is.
    """
    if s < 1 or t < 1:
        raise ValueError("s and t must be positive")
    total = 0
    for i in range((s - t) // 2 + 1):
        num = t * binomial(s - 1, s - t - 2 * i) * binomial(t + 2 * i - 1, i)
        total += _exact_div(num, t + i)
    return total


def _wide(width: int) -> int:
    # The power of two at or above ``width``: one table that wide serves
    # every narrower read, whose columns are a prefix of its own.
    return 1 << (width - 1).bit_length()


@lru_cache(maxsize=128)  # as many as ``dp.cached``, whose entries it shares
def _d1_rows(m: int, width: int) -> tuple:
    table = dp.cached("di_table", m, width, 1)
    return tuple(zip(*map(table.column, range(1, width + 1))))  # rows, bottom first


@lru_cache(maxsize=_MEMO_SIZE)
def _frees(free, x: int, width: int) -> tuple:
    return tuple(free(x, j) for j in range(width))


def _leaks(m: int, span: int, free, *walls: tuple[int, int, int]) -> int:
    # The wall-leak sum of the paper's argument, held once for every form
    # that subtracts one: the paths over ``span`` steps that leave the
    # m-row table, counted at the column i where they cross a wall.  Over
    # each wall (row, start, x) it sums D1(i, row) * free(x, span - i) for
    # i = start..span: D^1 counts the steps up to the crossing inside the
    # table and ``free`` the walks of the steps that remain (``pow`` with
    # x = 3 gives all 3^j words of j steps).  Each wall is one product of
    # two memoized sequences: D^1's row over columns start..span and the
    # free factors of span - start steps down to 0.  With no step to leave
    # by the sum is empty and no table is read.
    if span < 1:
        return 0
    width = _wide(span)
    rows = _d1_rows(m, width)
    return sum(sum(map(mul, rows[row - 1][start - 1 : span],
                       _frees(free, x, width)[span - start :: -1]))
               for row, start, x in walls)


def _h_square_value(n: int, m: int) -> int:
    # Unguarded evaluator for calibration past m <= n <= 2m.  D(n, n) =
    # H(n, n) totals D^1 column n of an n-row table: d1_closed is exact.
    # The result is H(n, m) exactly when n <= 2m + 1: the free tail after
    # a top leak needs m + 1 more steps to reach row 0, where the
    # bottom-walled D(n, n) no longer counts it.
    free = sum(d1_closed(n, t) for t in range(1, n + 1))
    return free - _leaks(m, n - 1, pow, (m, m, 3))


def h_via_square(n: int, m: int) -> int:
    """Across-the-table total from the square-table total minus top-leak
    corrections.

    H(n, m) = D(n, n) - sum_{i=m}^{n-1} 3^(n-i-1) * D1(i, m), with the
    D1 factors confined to the m-row table.  Declared domain m <= n <= 2m;
    the identity holds for every n <= 2m + 1.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not m <= n <= 2 * m:
        raise ValueError(
            f"h_via_square requires m <= n <= 2m, got n={n}, m={m}"
        )
    return _h_square_value(n, m)


def d1_split(n: int, m: int, s: int) -> int:
    """Crossing-column convolution for the top-right corner count.

    D1(n, m) = sum_{i=1}^{m} D1(s, i) * D1(n-s+1, m-i+1), independent of
    the split column s; all factors live in the m-row table.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if not 1 <= s <= n:
        raise ValueError(f"split column {s} outside [1, {n}]")
    table = dp.cached("di_table", m, _wide(n), 1)
    return sum(map(mul, table.column(s), reversed(table.column(n - s + 1))))


def _d_boundary(
    dims: TableDims, s: int, t: int, bottom_start: int, top_start: int
) -> int:
    check_cell(dims, s, t)
    return _d_boundary_value(dims.rows, s, t, bottom_start, top_start)


@lru_cache(maxsize=_MEMO_SIZE)
def _d_boundary_value(
    m: int, s: int, t: int, bottom_start: int, top_start: int
) -> int:
    # Free of the width: the table's columns only bound the cell check,
    # which also puts both starts at 1 or above.
    walls = (t, bottom_start, 3), (m + 1 - t, top_start, 3)
    return 3 ** (s - 1) - _leaks(m, s - 1, pow, *walls)


def d_boundary(dims: TableDims, s: int, t: int) -> int:
    """Start-anywhere count as the free total minus last-leak corrections.

    D(s, t) = 3^(s-1) - sum_{i=t}^{s-1} 3^(s-i-1) D1(i, t)
                      - sum_{i=m+1-t}^{s-1} 3^(s-i-1) D1(i, m+1-t).

    Each correction indexes the column where a leaking path is outside
    the table for the last time, so the bottom sum starts at i = t and
    the top sum at i = m+1-t; with those ranges the identity holds on
    the whole table with no side condition.
    """
    return _d_boundary(dims, s, t, bottom_start=t, top_start=dims.rows + 1 - t)


def d_boundary_printed(dims: TableDims, s: int, t: int) -> int:
    """Variant of :func:`d_boundary` with both correction sums started one
    index late (bottom at t+1, top at m+2-t).

    Misses the tightest leak in each direction and therefore over-counts;
    retained so the verifier can document the failure.
    """
    return _d_boundary(
        dims, s, t, bottom_start=t + 1, top_start=dims.rows + 2 - t
    )


def i_inner(dims: TableDims, a: int) -> int:
    """Whole-table count as the inner product of columns a and cols+1-a
    of the start-anywhere table."""
    if not 1 <= a <= dims.cols:
        raise ValueError(f"column {a} outside [1, {dims.cols}]")
    table = dp.cached("d_table", dims.rows, _wide(dims.cols))
    return sum(map(mul, table.column(a), table.column(dims.cols + 1 - a)))


def _s_free(x: int, y: int, pinned: bool) -> int:
    if y < 0:
        raise ValueError("y must be nonnegative")
    return _s_free_sum(abs(x), y, pinned)


@lru_cache(maxsize=_MEMO_SIZE)
def _s_free_sum(x: int, y: int, pinned: bool) -> int:
    return sum(
        binomial(y, x + (1 if pinned else i)) * binomial(y - x - i, i)
        for i in range((y - x) // 2 + 1)
    )


def s_free_closed(x: int, y: int) -> int:
    """Unbounded net-rise count: number of y-step words with net rise x.

    S(x, y) = sum_{i=0}^{(y-|x|)//2} C(y, |x|+i) * C(y-|x|-i, i), the
    multinomial split into |x|+i up steps, i down steps and the rest
    flat; symmetric in the sign of x.
    """
    return _s_free(x, y, pinned=False)


def s_free_printed(x: int, y: int) -> int:
    """Variant of :func:`s_free_closed` with the first factor pinned at
    C(y, |x|+1) in every term instead of C(y, |x|+i).

    Wrong whenever a term with i != 1 contributes; retained so the
    verifier can document the failure.
    """
    return _s_free(x, y, pinned=True)


def s2_closed(dims: TableDims, start: Cell, end: Cell) -> int:
    """Bounded pair count as a free count minus one first-leak
    convolution per wall.

    count = S(r1-r0, L) - sum_k D1(k, r0) * S(r1, L-k)
                        - sum_k D1(k, m+1-r0) * S(m+1-r1, L-k)

    where L is the column span, r0/r1 the start/end rows, the D1
    factors are confined to the m-row table and k indexes the column
    where a leaking path is outside for the first time.  Each leaking
    path is counted once, at its first exit, and any walk may follow
    it, so the split is exact for every span.
    """
    check_pair(dims, start, end)
    m, span = dims.rows, end.col - start.col
    walls = (start.row, 1, end.row), (m + 1 - start.row, 1, m + 1 - end.row)
    unbounded = s_free_closed(end.row - start.row, span)
    return unbounded - _leaks(m, span, s_free_closed, *walls)


def motzkin_number(k: int) -> int:
    """k-th Motzkin number via the convolution recurrence.

    M_0 = 1, M_k = M_{k-1} + sum_{i=0}^{k-2} M_i * M_{k-2-i}.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    vals = [1]
    for n in range(1, k + 1):
        nxt = vals[n - 1] + sum(vals[i] * vals[n - 2 - i] for i in range(n - 1))
        vals.append(nxt)
    return vals[k]


def catalan_number(k: int) -> int:
    """k-th Catalan number C(2k, k) / (k + 1), exact."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _exact_div(binomial(2 * k, k), k + 1)
