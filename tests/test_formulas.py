import math

import pytest

from tablepaths import dp, formulas
from tablepaths.core import Cell, TableDims, check_pair
from tablepaths.dp import bounded_pair_count, d_table, di_table, imn
from tablepaths.formulas import (
    a_closed,
    binomial,
    catalan_number,
    d1_closed,
    d1_split,
    d1_via_a,
    d_boundary,
    d_boundary_printed,
    h_via_square,
    i_inner,
    motzkin_number,
    s2_closed,
    s_free_closed,
    s_free_printed,
)
from tablepaths.oracle import brute_imn, brute_pair_count


class BinomialTable:
    """Dense Pascal triangle for rows 0..max_n.

    Built purely by the additive recurrence, so it serves as an
    independent cross-check of :func:`binomial`.
    """

    def __init__(self, max_n: int):
        if max_n < 0:
            raise ValueError("max_n must be nonnegative")
        rows: list[list[int]] = [[1]]
        for n in range(1, max_n + 1):
            prev = rows[-1]
            row = [1]
            for k in range(1, n):
                row.append(prev[k - 1] + prev[k])
            row.append(1)
            rows.append(row)
        self.max_n = max_n
        self._rows = tuple(tuple(r) for r in rows)

    def value(self, n: int, k: int) -> int:
        if n < 0 or n > self.max_n:
            raise ValueError(f"row {n} outside table (max {self.max_n})")
        if k < 0 or k > n:
            return 0
        return self._rows[n][k]


def test_binomial_examples():
    assert binomial(7, 4) == 35
    assert binomial(9, 0) == 1
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    assert binomial(-2, 0) == 0


def test_binomial_table_cross_checks_binomial():
    # Pure Pascal recurrence on one side, math.comb on the other.
    table = BinomialTable(40)
    for n in range(41):
        for k in range(-1, n + 2):
            assert table.value(n, k) == binomial(n, k)
    with pytest.raises(ValueError):
        table.value(41, 3)


def test_a_closed_examples():
    assert a_closed(7, 1) == 5
    assert a_closed(1, 1) == 1
    assert a_closed(8, 4) == 14
    assert a_closed(6, 1) == 0  # parity mismatch
    with pytest.raises(ValueError):
        a_closed(3, 5)


def test_d1_via_a_worked_decomposition():
    # 133 = 35*1 + 21*4 + 1*14
    terms = [
        (binomial(7, 4), a_closed(4, 4)),
        (binomial(7, 2), a_closed(6, 4)),
        (binomial(7, 0), a_closed(8, 4)),
    ]
    assert terms == [(35, 1), (21, 4), (1, 14)]
    assert d1_via_a(8, 4) == sum(b * a for b, a in terms) == 133


def test_d1_via_a_edges():
    for s in (1, 4, 9):
        assert d1_via_a(s, s) == 1
    assert d1_via_a(4, 2) == 5
    assert d1_via_a(3, 5) == 0  # unreachable, empty sum
    assert d1_closed(3, 5) == 0


def test_d1_closed_examples():
    assert d1_closed(8, 4) == 133
    assert d1_closed(1, 1) == 1
    assert d1_closed(4, 2) == 5


def test_d1_closed_equals_d1_via_a_up_to_16():
    for s in range(1, 17):
        for t in range(1, s + 1):
            assert d1_closed(s, t) == d1_via_a(s, t), (s, t)


def test_d1_formulas_are_wall_free_values():
    # The closed forms count with no ceiling; at (9,5) that is 230,
    # while the 5-row table holds 195 (the convolution route below).
    assert d1_closed(9, 5) == d1_via_a(9, 5) == 230
    assert di_table(TableDims(9, 9), 1).get(9, 5) == 230
    assert di_table(TableDims(5, 9), 1).get(9, 5) == 195


def test_h_via_square_worked_example():
    # 1931 = 2123 - (27*1 + 9*5 + 3*19 + 1*63)
    d1 = di_table(TableDims(5, 8), 1)
    assert [d1.get(i, 5) for i in range(5, 9)] == [1, 5, 19, 63]
    assert h_via_square(9, 5) == 2123 - (27 * 1 + 9 * 5 + 3 * 19 + 1 * 63)
    assert h_via_square(9, 5) == 1931


def test_h_via_square_edges():
    assert h_via_square(6, 5) == 95
    for m in (1, 3, 5):
        # Empty correction sum at n == m.
        from tablepaths.dp import h_table

        assert h_via_square(m, m) == h_table(TableDims(m, m)).get(m, m)
    # Calibration probes n < m too: with no correction term each point
    # is D(n, n).
    for m in (1, 3, 5):
        for n in range(1, m + 1):
            square = d_table(TableDims(n, n)).get(n, n)
            assert formulas._h_square_value(n, m) == square, (n, m)
            if n == m:
                assert h_via_square(n, m) == square


def test_h_via_square_domain_errors():
    with pytest.raises(ValueError):
        h_via_square(4, 5)  # n < m
    with pytest.raises(ValueError):
        h_via_square(11, 5)  # n > 2m


@pytest.mark.parametrize("call, message", [
    (lambda: a_closed(0, 1), "s and t must be positive"),
    (lambda: a_closed(3, 5), r"a_closed requires t <= s, got s=3, t=5"),
    (lambda: d1_via_a(0, 2), "s and t must be positive"),
    (lambda: d1_closed(0, 2), "s and t must be positive"),
    (lambda: h_via_square(0, 0), "m must be positive"),
    (lambda: d1_split(0, 5, 1), "m and n must be positive"),
    (lambda: d1_split(9, 0, 1), "m and n must be positive"),
    (lambda: d1_split(9, 5, 10), r"split column 10 outside \[1, 9\]"),
    (lambda: motzkin_number(-1), "k must be nonnegative"),
    (lambda: catalan_number(-1), "k must be nonnegative"),
], ids=["a-closed-zero", "a-closed-t-above-s", "d1-via-a-zero", "d1-closed-zero",
        "h-square-m-zero", "d1-split-n-zero", "d1-split-m-zero",
        "d1-split-column", "motzkin-negative", "catalan-negative"])
def test_domain_guards_refuse_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_d1_split_worked_example():
    # 195 = 9*1 + 12*4 + 9*9 + 4*12 + 1*9 inside the 5-row table.
    d1 = di_table(TableDims(5, 9), 1)
    assert [d1.get(5, i) for i in range(1, 6)] == [9, 12, 9, 4, 1]
    assert d1_split(9, 5, 5) == 195


def test_d1_split_edges():
    assert d1_split(9, 5, 1) == 195
    assert d1_split(9, 5, 9) == 195
    # With only 4 rows the ceiling bites: 106, not the 8-row value 133.
    assert d1_split(8, 4, 3) == 106
    assert di_table(TableDims(4, 8), 1).get(8, 4) == 106
    with pytest.raises(ValueError):
        d1_split(9, 5, 0)
    with pytest.raises(ValueError):
        d1_split(9, 5, 10)


def test_d_boundary_examples():
    assert d_boundary(TableDims(2, 3), 3, 1) == 9 - (3 + 1) - 1 == 4
    assert d_boundary(TableDims(2, 4), 4, 1) == 27 - 14 - 5 == 8
    for m, n, t in [(3, 5, 2), (4, 4, 4)]:
        assert d_boundary(TableDims(m, n), 1, t) == 1
    with pytest.raises(ValueError, match=r"cell \(4,1\) outside 2x3 table"):
        d_boundary(TableDims(2, 3), 4, 1)


@pytest.mark.parametrize("fn", [d_boundary, d_boundary_printed], ids=lambda f: f.__name__)
@pytest.mark.parametrize("s, t", [(0, 1), (4, 1), (1, 0), (1, 3)],
                         ids=["s-zero", "s-past-n", "t-zero", "t-past-m"])
def test_d_boundary_refuses_a_point_outside_the_table(fn, s, t):
    # One point check, with the message a pair check gives for the cell.
    dims, message = TableDims(2, 3), rf"^cell \({s},{t}\) outside 2x3 table$"
    with pytest.raises(ValueError, match=message):
        check_pair(dims, Cell(s, t), Cell(s, t))
    with pytest.raises(ValueError, match=message):
        fn(dims, s, t)


def test_d_boundary_printed_overcounts():
    assert d_boundary_printed(TableDims(2, 3), 3, 1) == 8
    assert d_boundary(TableDims(2, 3), 3, 1) == 4


def _clear_value_memos():
    for value in vars(formulas).values():
        if hasattr(value, "cache_info"):
            value.cache_clear()


def test_value_memos_never_skip_a_check():
    _clear_value_memos()
    # The wide table fills the width-free memo for (m, s, t) = (3, 5, 1);
    # the narrow one must still reject column 5.
    assert d_boundary(TableDims(3, 9), 5, 1) == sum(
        brute_pair_count(TableDims(3, 9), Cell(1, r), Cell(5, 1)) for r in (1, 2, 3)
    )
    with pytest.raises(ValueError, match=r"cell \(5,1\) outside 3x4 table"):
        d_boundary(TableDims(3, 4), 5, 1)
    # Interleaved at one (m, s, t), the variants differ only in their
    # start rows; a memo key without them would answer for the other.
    for dims in (TableDims(2, 3), TableDims(2, 5)):
        assert d_boundary(dims, 3, 1) == 4
        assert d_boundary_printed(dims, 3, 1) == 8
    # Free counts and D^1 rows a wide S2 call has filled, none keyed on the
    # width, still leave the narrow table's pair-range check in place.
    dims = TableDims(2, 8)
    assert s2_closed(dims, Cell(1, 1), Cell(5, 1)) == bounded_pair_count(
        dims, Cell(1, 1), Cell(5, 1)
    )
    with pytest.raises(ValueError, match=r"cell \(5,1\) outside 2x4 table"):
        s2_closed(TableDims(2, 4), Cell(1, 1), Cell(5, 1))
    assert s_free_closed(0, 1) == 1
    with pytest.raises(ValueError, match="y must be nonnegative"):
        s_free_closed(0, -1)
    assert s_free_printed(0, 2) == 4 and s_free_closed(0, 2) == 3


def test_value_memos_are_bounded():
    memos = [v for v in vars(formulas).values() if hasattr(v, "cache_info")]
    assert len(memos) >= 2
    assert all(memo.cache_info().maxsize is not None for memo in memos)
    # More distinct free counts than the bound: the memo stops growing at
    # its bound and evicted values come back the same.
    _clear_value_memos()
    first = [s_free_closed(x, y) for y in range(91) for x in range(y + 1)]
    info = formulas._s_free_sum.cache_info()
    assert info.misses == len(first) > info.maxsize == info.currsize
    assert [s_free_closed(x, y) for y in range(91) for x in range(y + 1)] == first
    assert s_free_closed(3, 7) == dp.free_count(3, 7)


def _leaks_term_by_term(d1, span, free, *walls):
    # The wall-leak sum as a double loop over walls and crossing columns,
    # each term read from ``d1``, a table exactly span columns wide.
    return sum(d1.get(i, row) * free(x, span - i)
               for row, start, x in walls for i in range(start, span + 1))


def test_leaks_equals_its_term_by_term_sum():
    # Every wall row and start, past span + 1 so the empty ranges count,
    # with both free factors the closed forms pass.
    for m in range(1, 9):
        for span in range(-1, 21):
            d1 = dp.build("di_table", m, span, 1) if span >= 1 else None
            for free, xs in ((pow, (3,)), (s_free_closed, range(m + 1))):
                walls = [(row, start, x) for row in range(1, m + 1)
                         for start in range(1, span + 3) for x in xs]
                for wall in walls:
                    assert formulas._leaks(m, span, free, wall) == (
                        _leaks_term_by_term(d1, span, free, wall)), (m, span, wall)
                assert formulas._leaks(m, span, free, *walls[:3]) == (
                    _leaks_term_by_term(d1, span, free, *walls[:3]))


def test_i_inner_examples():
    assert i_inner(TableDims(2, 3), 2) == 8
    assert i_inner(TableDims(3, 5), 3) == 99 == imn(TableDims(3, 5))
    dims = TableDims(4, 7)
    assert i_inner(dims, 1) == imn(dims)
    with pytest.raises(ValueError):
        i_inner(dims, 8)


def test_s_free_closed_examples():
    assert s_free_closed(0, 2) == 3
    assert s_free_closed(1, 1) == 1
    assert s_free_closed(2, 4) == binomial(4, 2) * binomial(2, 0) + binomial(
        4, 3
    ) * binomial(1, 1)
    assert s_free_closed(2, 4) == 10
    assert s_free_closed(5, 4) == 0
    with pytest.raises(ValueError):
        s_free_closed(0, -1)


def test_s_free_closed_sign_symmetry():
    for y in range(13):
        for x in range(y + 1):
            assert s_free_closed(x, y) == s_free_closed(-x, y)


def test_s_free_printed_differs():
    assert s_free_printed(0, 2) == 4  # true count is 3
    assert s_free_closed(0, 2) == 3


def test_s2_closed_examples():
    assert s2_closed(TableDims(2, 3), Cell(1, 1), Cell(3, 1)) == 2
    assert s2_closed(TableDims(4, 6), Cell(2, 3), Cell(2, 3)) == 1
    assert s2_closed(TableDims(3, 6), Cell(1, 2), Cell(5, 2)) == 17
    assert bounded_pair_count(TableDims(3, 6), Cell(1, 2), Cell(5, 2)) == 17


def test_s2_closed_domain_errors():
    dims = TableDims(2, 8)
    # Span 4 > rows + 1 is inside the domain: only the pair range refuses.
    assert s2_closed(dims, Cell(1, 1), Cell(5, 1)) == bounded_pair_count(
        dims, Cell(1, 1), Cell(5, 1)
    )
    with pytest.raises(ValueError):
        s2_closed(dims, Cell(3, 1), Cell(1, 1))
    with pytest.raises(ValueError):
        s2_closed(dims, Cell(1, 3), Cell(2, 1))


@pytest.mark.parametrize(
    "count, max_m, max_span",
    [(bounded_pair_count, 8, 40), (brute_pair_count, 3, 13)],
    ids=["engine", "oracle"],
)
def test_s2_closed_exact_on_every_span(count, max_m, max_span):
    # Each correction counts a leaking path at its first exit and a free
    # walk follows, so spans far past rows + 1 hold too: 8,364 cases
    # against the engine, and 196 whose every word the oracle lists.
    for m in range(1, max_m + 1):
        for span in range(max_span + 1):
            dims = TableDims(m, span + 1)
            for r0 in range(1, m + 1):
                for r1 in range(1, m + 1):
                    start, end = Cell(1, r0), Cell(span + 1, r1)
                    assert s2_closed(dims, start, end) == count(dims, start, end)


@pytest.mark.parametrize("m", range(1, 10))
def test_reach_bounds_are_the_true_domains(m):
    # d1_closed and d1_via_a count paths with no top wall: exact exactly
    # when s + t <= 2m + 1, below the reach of row m + 1.  H-SQUARE's
    # free tail after a top leak reaches row 0 past n = 2m + 1.
    d1 = di_table(TableDims(m, 29), 1)
    for s in range(1, 30):
        column = d1.column(s)
        for t in range(1, m + 1):
            assert (d1_closed(s, t) == column[t - 1]) is (s + t <= 2 * m + 1)
            assert (d1_via_a(s, t) == column[t - 1]) is (s + t <= 2 * m + 1)
        assert (formulas._h_square_value(s, m) == sum(column)) is (s <= 2 * m + 1)


def test_motzkin_recurrence_values():
    assert [motzkin_number(k) for k in range(10)] == [
        1, 1, 2, 4, 9, 21, 51, 127, 323, 835,
    ]


def test_exact_division_refuses_a_remainder():
    # A remainder would mean a transcription bug, so it is never rounded.
    assert formulas._exact_div(8, 2) == 4
    with pytest.raises(ArithmeticError, match="got 7/2$"):
        formulas._exact_div(7, 2)


def test_catalan_values():
    assert [catalan_number(k) for k in range(8)] == [
        1, 1, 2, 5, 14, 42, 132, 429,
    ]
    assert catalan_number(10) == math.comb(20, 10) // 11


def test_shared_tables_keyed_by_height_and_width():
    # Same width with different heights, then same height with different
    # widths, interleaved: a table kept under part of its shape would
    # answer for the wrong one.
    dp.cached.cache_clear()
    _clear_value_memos()
    for m, n in [(3, 6), (5, 6), (2, 6), (5, 4), (3, 6), (5, 7), (2, 3), (5, 6)]:
        dims = TableDims(m, n)

        def brute(r0, s, t):
            return brute_pair_count(dims, Cell(1, r0), Cell(s, t))

        assert d1_split(n, m, 2) == brute(1, n, m)
        assert i_inner(dims, 2) == brute_imn(dims)
        for t in range(1, m + 1):
            from_anywhere = sum(brute(r, n, t) for r in range(1, m + 1))
            assert d_boundary(dims, n, t) == from_anywhere
        if m <= n <= 2 * m:
            assert h_via_square(n, m) == sum(brute(1, n, t) for t in range(1, m + 1))
        span = min(n - 1, m + 1)
        assert s2_closed(dims, Cell(1, 1), Cell(1 + span, m)) == brute(1, 1 + span, m)
