import decimal

import pytest

from golden_tables import (
    CATALAN,
    MOTZKIN,
    TABLE1_A_ROWS,
    TABLE1_D1_ROWS,
    TABLE2_D1_ROWS,
    TABLE2_D1_RECOMPUTED_DIFFS,
    TABLE2_HSS_RECOMPUTED,
    cells_from_rows,
    table_columns,
)
from tablepaths import cli, dp
from tablepaths.core import Cell, TableDims
from tablepaths.dp import (
    a_table,
    bounded_pair_count,
    d1_bottom_row,
    d_table,
    di_table,
    free_count,
    h_table,
    hss_values,
    imn,
    imn_sequence,
)
from tablepaths.oracle import brute_pair_count


def test_di_table_examples():
    table = di_table(TableDims(8, 8), 1)
    assert table.get(4, 2) == 5
    assert table.get(8, 4) == 133
    for m, n, i in [(3, 4, 2), (5, 5, 5), (1, 6, 1)]:
        assert di_table(TableDims(m, n), i).get(1, i) == 1
    # One column: the march yields its first column and stops.
    for m, i in [(1, 1), (4, 1), (4, 3)]:
        unit = tuple(int(t == i) for t in range(1, m + 1))
        assert table_columns(di_table(TableDims(m, 1), i)) == (unit,)


def test_di_table_start_row_domain_error():
    with pytest.raises(ValueError):
        di_table(TableDims(3, 3), 0)
    with pytest.raises(ValueError):
        di_table(TableDims(3, 3), 4)


def test_di_table_matches_8x8_golden():
    table = di_table(TableDims(8, 8), 1)
    for (s, t), want in cells_from_rows(TABLE1_D1_ROWS).items():
        assert table.get(s, t) == want, (s, t)
    # The wedge above the diagonal is unreachable.
    for s in range(1, 9):
        for t in range(s + 1, 9):
            assert table.get(s, t) == 0


def test_d_table_examples():
    assert d_table(TableDims(9, 9)).get(9, 9) == 2123
    assert d_table(TableDims(2, 3)).get(3, 1) == 4
    table = d_table(TableDims(5, 7))
    assert all(table.get(1, t) == 1 for t in range(1, 6))
    for m in (1, 4):
        assert table_columns(d_table(TableDims(m, 1))) == ((1,) * m,)


def test_d_table_is_sum_of_start_rows():
    for m, n in [(1, 5), (3, 6), (4, 4)]:
        dims = TableDims(m, n)
        total = d_table(dims)
        parts = [di_table(dims, i) for i in range(1, m + 1)]
        for s in range(1, n + 1):
            for t in range(1, m + 1):
                assert total.get(s, t) == sum(p.get(s, t) for p in parts)


def test_a_table_examples():
    table = a_table(8)
    assert table.get(7, 1) == 5
    assert table.get(8, 2) == 14
    assert table.get(6, 1) == 0  # parity mismatch
    assert table_columns(a_table(1)) == ((1,),)


def test_a_table_matches_8x8_golden():
    table = a_table(8)
    for (s, t), want in cells_from_rows(TABLE1_A_ROWS).items():
        assert table.get(s, t) == want, (s, t)


def test_a_table_zero_pattern():
    # Zero above the diagonal and on parity mismatches, for all n <= 12.
    table = a_table(12)
    for s in range(1, 13):
        for t in range(1, 13):
            if s < t or (s - t) % 2:
                assert table.get(s, t) == 0, (s, t)


def test_h_table_examples():
    table = h_table(TableDims(5, 10))
    assert table.get(9, 5) == 1931
    assert table.get(4, 4) == 13
    assert all(table.get(1, t) == 1 for t in range(1, 6))
    for m in (1, 4):
        assert table_columns(h_table(TableDims(m, 1))) == ((1,) * m,)


def test_h_table_is_prefix_sum():
    dims = TableDims(4, 9)
    base = di_table(dims, 1)
    table = h_table(dims)
    for s in range(1, 10):
        running = 0
        for t in range(1, 5):
            running += base.get(s, t)
            assert table.get(s, t) == running


def test_bounded_pair_count_examples():
    assert bounded_pair_count(TableDims(2, 3), Cell(1, 1), Cell(3, 1)) == 2
    assert bounded_pair_count(TableDims(4, 6), Cell(2, 3), Cell(2, 3)) == 1
    assert bounded_pair_count(TableDims(5, 10), Cell(1, 1), Cell(9, 5)) == 195


def test_bounded_pair_count_domain_errors():
    dims = TableDims(2, 3)
    with pytest.raises(ValueError):
        bounded_pair_count(dims, Cell(1, 3), Cell(3, 1))
    with pytest.raises(ValueError):
        bounded_pair_count(dims, Cell(1, 1), Cell(4, 1))
    with pytest.raises(ValueError):
        bounded_pair_count(dims, Cell(3, 1), Cell(1, 1))


def test_bounded_pair_count_matches_di_table_from_column_one():
    dims = TableDims(4, 7)
    for i in range(1, 5):
        table = di_table(dims, i)
        for s in range(1, 8):
            for t in range(1, 5):
                assert (
                    bounded_pair_count(dims, Cell(1, i), Cell(s, t))
                    == table.get(s, t)
                )


def test_bounded_pair_count_short_spans():
    for m in range(1, 7):
        dims = TableDims(m, 2)
        for r0 in range(1, m + 1):
            for r1 in range(1, m + 1):
                stay = bounded_pair_count(dims, Cell(1, r0), Cell(1, r1))
                step = bounded_pair_count(dims, Cell(1, r0), Cell(2, r1))
                assert (stay, step) == (int(r0 == r1), int(abs(r0 - r1) <= 1))


@pytest.mark.parametrize("m", range(1, 6))
def test_bounded_pair_count_at_the_split_threshold(m):
    # Half walks one step short of the kernel's threshold (marched) and at
    # it (squared once), odd and even spans, from and to both walls; the
    # cycle has n = 2(m + 1) rows.
    first = dp._squared_from(2 * (m + 1))
    for steps in (2 * first - 2, 2 * first - 1, 2 * first, 2 * first + 1):
        dims = TableDims(m, steps + 1)
        for r0 in {1, m}:
            column = di_table(dims, r0).column(steps + 1)
            for r1 in {1, m}:
                got = bounded_pair_count(dims, Cell(1, r0), Cell(steps + 1, r1))
                assert got == column[r1 - 1], (steps, r0, r1)


@pytest.mark.parametrize("m", range(3, 8))
def test_bounded_pair_count_up_the_squaring_ladder(m):
    # Spans 4T..4T+3 square twice above the march (T the kernel's
    # threshold), with every parity of (L, L // 2); 8T + 11 squares three
    # times, with an odd step on the first and last.  Every start and end
    # row, against the last column of the marched table.
    first = dp._squared_from(2 * (m + 1))
    for steps in (*range(4 * first, 4 * first + 4), 8 * first + 11):
        dims = TableDims(m, steps + 1)
        for r0 in range(1, m + 1):
            column = dp._last(dp.columns("di_table", m, steps + 1, r0))
            for r1 in range(1, m + 1):
                got = bounded_pair_count(dims, Cell(1, r0), Cell(steps + 1, r1))
                assert got == column[r1 - 1], (steps, r0, r1)


def test_bounded_pair_count_cuts_a_tall_strip_to_reachable_rows():
    m = 300
    for r0 in (1, 150, 300):
        table = di_table(TableDims(m, 21), r0)
        for steps in range(21):
            dims = TableDims(m, steps + 1)
            ends = range(max(1, r0 - steps - 2), min(m, r0 + steps + 2) + 1)
            for r1 in {1, m, *ends}:
                got = bounded_pair_count(dims, Cell(1, r0), Cell(steps + 1, r1))
                assert got == table.get(steps + 1, r1), (r0, steps, r1)


def test_bounded_pair_count_at_a_huge_height():
    dims = TableDims(10**10, 3)
    assert bounded_pair_count(dims, Cell(1, 1), Cell(2, 2)) == 1
    assert bounded_pair_count(dims, Cell(1, 1), Cell(3, 1)) == 2
    assert bounded_pair_count(dims, Cell(1, 1), Cell(3, 5)) == 0
    assert bounded_pair_count(dims, Cell(1, 10**10), Cell(3, 10**10)) == 2
    assert bounded_pair_count(dims, Cell(1, 5 * 10**9), Cell(3, 5 * 10**9)) == 3


def test_bounded_pair_count_on_two_rows_is_a_power_of_two():
    # The strip is cut to two rows at height 2, and one step from a wall
    # at any height; the count is then 2^(L-1), checked here against the
    # reflection on the cycle of 2(2 + 1) rows.
    cases = [(2, r0, steps) for r0 in (1, 2) for steps in range(1, 40)]
    cases += [(m, r0, 1) for m in (3, 7, 10**10) for r0 in (1, m)]
    for m, r0, steps in cases:
        low = min(r0, m - 1)
        for r1 in (low, low + 1):
            a, b = r0 - low + 1, r1 - low + 1
            walks = dp._cycle_walks(6, steps, abs(b - a), a + b)
            dims = TableDims(m, steps + 1)
            got = bounded_pair_count(dims, Cell(1, r0), Cell(steps + 1, r1))
            assert got == walks == 1 << (steps - 1), (m, r0, steps, r1)


def test_imn_examples():
    assert imn(TableDims(2, 3)) == 8
    assert imn(TableDims(1, 9)) == 1
    for m in range(1, 7):
        assert imn(TableDims(m, 1)) == m


def test_imn_equals_last_column_sum():
    for m, n in [(2, 5), (4, 8), (6, 3)]:
        dims = TableDims(m, n)
        table = d_table(dims)
        assert imn(dims) == sum(table.get(n, t) for t in range(1, m + 1))


def test_imn_sequence_matches_pointwise():
    assert imn_sequence(2, 3) == [2, 4, 8]
    assert imn_sequence(1, 5) == [1, 1, 1, 1, 1]
    for m in (3, 5):
        seq = imn_sequence(m, 9)
        assert seq == [imn(TableDims(m, n)) for n in range(1, 10)]
    for m in (1, 4):
        assert imn_sequence(m, 1) == [m]
    for rows, max_cols in [(0, 3), (3, 0), (-1, 1)]:
        with pytest.raises(ValueError, match="table dimensions must be positive"):
            imn_sequence(rows, max_cols)


def test_d1_bottom_row_matches_tables():
    assert d1_bottom_row(8, 8) == MOTZKIN
    row = d1_bottom_row(5, 12)
    table = di_table(TableDims(5, 12), 1)
    assert row == [table.get(s, 1) for s in range(1, 13)]
    for m in (1, 4):
        assert d1_bottom_row(m, 1) == [1]
    for rows, max_cols in [(0, 3), (3, 0), (-1, 1)]:
        with pytest.raises(ValueError, match="table dimensions must be positive"):
            d1_bottom_row(rows, max_cols)


# The CLI's ``sequence`` target of each sequence function.
SEQUENCE_TARGETS = {"imn_sequence": "imn-fixed-m", "d1_bottom_row": "d1-bottom-row"}


def _reduced(family, rows, max_cols, one):
    """``family``'s values as the CLI's ``sequence`` marches them: its
    target's reducer over ``dp.columns``."""
    kind, reduce = cli.SEQUENCE_TARGETS[SEQUENCE_TARGETS[family]]
    table, *start = cli.TABLE_KINDS[kind]
    return map(reduce, dp.columns(table, rows, max_cols, *start, one=one))


@pytest.mark.parametrize("family", ["imn_sequence", "d1_bottom_row"])
def test_decimal_march_raises_rather_than_rounds(family):
    # Decimal's default 28 digits round silently: imn-fixed-m at height 8
    # ends near 2.112650234733205576138343713E+46 after 100 columns.  With
    # Inexact trapped the march raises instead of returning such a value.
    with decimal.localcontext() as ctx:
        ctx.prec = 28
        # The values come lazily, so each march is read to its end here,
        # inside the context it is meant to run in.
        rounded = list(_reduced(family, 8, 100, decimal.Decimal(1)))
        ctx.traps[decimal.Inexact] = True
        with pytest.raises(decimal.Inexact):
            list(_reduced(family, 8, 100, decimal.Decimal(1)))
    assert rounded[-1] != getattr(dp, family)(8, 100)[-1]


@pytest.mark.parametrize("family, start", [("di_table", (1,)), ("d_table", ()),
                                           ("h_table", ()), ("a_table", ())],
                         ids=["di_table", "d_table", "h_table", "a_table"])
def test_decimal_table_march_equals_the_int_table(family, start):
    # In a context that cannot round, the Decimal columns are the int
    # table's; every family passes the default 28 digits by column 120,
    # where the trapped Rounded or Inexact raises instead.
    rows = cols = 120
    want = table_columns(dp.build(family, rows, cols, *start))
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
        marched = list(dp.columns(family, rows, cols, *start, one=decimal.Decimal(1)))
        _assert_short_columns(family, rows, 1, marched, want)
        got = dp._padded(marched, rows)
        assert [tuple(map(int, col)) for col in got] == list(want)
        ctx.prec = 28
        with pytest.raises((decimal.Rounded, decimal.Inexact)):
            list(dp.columns(family, rows, cols, *start, one=decimal.Decimal(1)))


def _assert_short_columns(family, rows, r0, marched, full):
    """Column s >= 2 of a march from row ``r0`` whose band has not reached
    the top (r0 + s - 1 < rows) stops short, at r0 + s entries, and its
    last entry stands for every row above it: 0 for di and a, the column
    total (the full column's top entry) for h.  Every other column,
    column 1 and every column of d among them, is full."""
    for s, (col, whole) in enumerate(zip(marched, full), start=1):
        if family != "d_table" and s >= 2 and r0 + s - 1 < rows:
            assert len(col) == r0 + s, (family, rows, r0, s)
            assert col[-1] == (whole[-1] if family == "h_table" else 0), (
                family, rows, r0, s)
        else:
            assert len(col) == rows, (family, rows, r0, s)


def _stencil_columns(family, rows, cols, start):
    """Reference columns of ``family``: every row stepped at every column,
    each entry summing the rows its letters reach, walls by bounds checks."""
    letters = (-1, 1) if family == "a_table" else (-1, 0, 1)
    if family == "d_table":
        col = [1] * rows
    else:
        col = [0] * rows
        col[start - 1] = 1
    out = []
    for _ in range(cols):
        out.append(col)
        col = [sum(col[t + d] for d in letters if 0 <= t + d < rows)
               for t in range(rows)]
    if family == "h_table":
        out = [[sum(col[:t + 1]) for t in range(rows)] for col in out]
    return out


def _band_requests(rows):
    """Every family at ``rows`` rows with every start row and up to 14
    columns, as (family, cols, start row): ``a_table`` is square."""
    for cols in range(1, 15):
        yield from (("di_table", cols, r0) for r0 in range(1, rows + 1))
        yield from (("d_table", cols, 1), ("h_table", cols, 1))
    yield ("a_table", rows, 1)


@pytest.mark.parametrize("unit", ["int", "decimal"])
@pytest.mark.parametrize("rows", range(1, 10))
def test_band_march_equals_the_full_column_stencil(rows, unit):
    # A march from a unit column advances only the rows within s-1 of its
    # start row, and its columns stop short until that band reaches the
    # top; padded, the rows outside the band must read 0, and every entry,
    # printed, must be the full-column stencil's.
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
        one = decimal.Decimal(1) if unit == "decimal" else 1
        for family, cols, r0 in _band_requests(rows):
            start = (r0,) if family == "di_table" else ()
            marched = list(dp.columns(family, rows, cols, *start, one=one))
            want = _stencil_columns(family, rows, cols, r0)
            _assert_short_columns(family, rows, r0, marched, want)
            got = list(dp._padded(marched, rows))
            assert [list(map(str, col)) for col in got] == (
                [list(map(str, col)) for col in want]), (family, cols, r0)
            if family in ("di_table", "a_table"):
                for s, col in enumerate(got, start=1):
                    assert all(v == 0 for t, v in enumerate(col, start=1)
                               if abs(t - r0) > s - 1), (family, cols, r0, s)


@pytest.mark.parametrize("args, message", [
    (("bogus", 3, 3), "unknown table family 'bogus'"),
    (("di_table", 0, 3, 9), "table dimensions must be positive, got 0x3"),
    (("di_table", 3, 3, 4), r"start row 4 outside \[1, 3\]"),
    (("a_table", 3, 4), "kind 'a' is a square family"),
], ids=["family", "dims", "start-row", "square"])
def test_columns_check_at_the_call_before_any_march(args, message):
    # Errors raise when the columns are asked for, not at the first one.
    with pytest.raises(ValueError, match=message):
        dp.columns(*args)


def test_free_count_examples():
    assert free_count(0, 2) == 3
    assert free_count(1, 1) == 1
    assert free_count(2, 4) == 10
    assert free_count(0, 0) == 1
    assert free_count(5, 3) == 0
    with pytest.raises(ValueError):
        free_count(0, -1)


def test_free_count_conservation():
    # Every word of length y lands somewhere: the counts sum to 3^y.
    for y in range(13):
        assert sum(free_count(x, y) for x in range(-y, y + 1)) == 3**y


def test_free_count_is_a_trinomial_coefficient():
    # free_count(x, y) is the coefficient of z^(y + x) in (1 + z + z^2)^y.
    row = [1]
    for y in range(60):
        for x in range(-y - 2, y + 3):
            want = row[y + x] if abs(x) <= y else 0
            assert free_count(x, y) == want, (x, y)
        row = [a + b + c for a, b, c in zip([0, 0] + row, [0] + row + [0],
                                            row + [0, 0])]


def test_free_count_sign_symmetry():
    for y in range(11):
        for x in range(y + 1):
            assert free_count(x, y) == free_count(-x, y)


def test_confinement_monotone_in_height():
    # Adding rows can only admit more paths.
    for m in range(1, 8):
        lo = di_table(TableDims(m, 8), 1)
        hi = di_table(TableDims(m + 1, 8), 1)
        for s in range(1, 9):
            for t in range(1, m + 1):
                assert lo.get(s, t) <= hi.get(s, t)


def test_vertical_flip_symmetry():
    for m in range(1, 9):
        for n in range(1, 9):
            dims = TableDims(m, n)
            tables = {i: di_table(dims, i) for i in range(1, m + 1)}
            for i in range(1, m + 1):
                for s in range(1, n + 1):
                    for t in range(1, m + 1):
                        assert tables[i].get(s, t) == tables[m + 1 - i].get(
                            s, m + 1 - t
                        )


def test_reversal_diagonal_identity():
    # Start-anywhere corner count equals the start-at-one column total.
    for n in range(1, 11):
        dims = TableDims(n, n)
        assert d_table(dims).get(n, n) == h_table(dims).get(n, n)


def test_di_column_sums_bounded_by_free_total():
    for m, n in [(3, 9), (6, 9)]:
        table = di_table(TableDims(m, n), 1)
        for s in range(1, n + 1):
            assert sum(table.get(s, t) for t in range(1, m + 1)) <= 3 ** (s - 1)


def test_motzkin_edge():
    table = di_table(TableDims(8, 8), 1)
    assert [table.get(s, 1) for s in range(1, 9)] == MOTZKIN


def test_catalan_edge():
    table = a_table(9)
    assert [table.get(2 * k + 1, 1) for k in range(5)] == CATALAN


def test_5x10_recomputed_values_confirmed_by_enumeration():
    # Where the transcribed 5x10 table disagrees with the recurrence,
    # direct enumeration settles it: (8,4) holds 132, not 133.
    dims = TableDims(5, 10)
    table = di_table(dims, 1)
    for (s, t), want in TABLE2_D1_RECOMPUTED_DIFFS.items():
        assert table.get(s, t) == want
        assert brute_pair_count(dims, Cell(1, 1), Cell(s, t)) == want
    transcribed = cells_from_rows(TABLE2_D1_ROWS)
    for (s, t), value in transcribed.items():
        if (s, t) not in TABLE2_D1_RECOMPUTED_DIFFS:
            assert table.get(s, t) == value, (s, t)


def test_5x10_footer_recomputed_values_confirmed_by_enumeration():
    dims = TableDims(5, 10)
    assert hss_values(table_columns(di_table(dims, 1))) == TABLE2_HSS_RECOMPUTED
    # Footer entry s is the number of paths from (1,1) across s columns;
    # enumerate them directly for the two contested entries.
    h = h_table(dims)
    for s, want in [(5, 35), (8, 707)]:
        total = sum(
            brute_pair_count(dims, Cell(1, 1), Cell(s, t))
            for t in range(1, 6)
        )
        assert total == want
        assert h.get(s, 5) == want


def test_hss_values_are_the_d1_column_totals():
    for rows, cols in [(1, 1), (1, 6), (6, 1), (3, 9), (9, 3), (5, 10)]:
        dims = TableDims(rows, cols)
        columns, h = table_columns(di_table(dims, 1)), h_table(dims)
        footer = hss_values(columns)
        assert footer == [sum(col) for col in columns]
        assert footer == [h.get(s, min(s, rows)) for s in range(1, cols + 1)]


def test_cached_tables_equal_fresh_builds(monkeypatch):
    # Interleaved keys that collide on all but one part (family, start
    # row, rows or cols): a memo keyed on less than all of it answers
    # one of them with another's table.
    fresh = {
        ("di_table", 3, 3, 1): di_table(TableDims(3, 3), 1),
        ("d_table", 3, 3): d_table(TableDims(3, 3)),
        ("di_table", 3, 3, 2): di_table(TableDims(3, 3), 2),
        ("h_table", 3, 3): h_table(TableDims(3, 3)),
        ("a_table", 3, 3): a_table(3),
        ("di_table", 5, 3, 2): di_table(TableDims(5, 3), 2),
        ("d_table", 3, 5): d_table(TableDims(3, 5)),
        ("d_table", 5, 3): d_table(TableDims(5, 3)),
        ("di_table", 3, 5, 1): di_table(TableDims(3, 5), 1),
        ("a_table", 5, 5): a_table(5),
    }
    dp.cached.cache_clear()
    keys = list(fresh)
    for key in keys + keys[::-1]:
        assert dp.cached(*key) == fresh[key], key
        assert dp.cached(*key) is dp.cached(*key)

    # The builder is looked up on the module at call time, once per key.
    dp.cached.cache_clear()
    builds, real = [], dp.d_table
    monkeypatch.setattr(dp, "d_table", lambda dims: builds.append(dims) or real(dims))
    assert dp.cached("d_table", 3, 5) is dp.cached("d_table", 3, 5)
    assert builds == [TableDims(3, 5)]
    dp.cached.cache_clear()


def test_build_rejects_a_non_square_a_table():
    # Kind a is square; a wider or narrower request is refused, not
    # answered (and memoized) as the rows x rows table.
    dp.cached.cache_clear()
    for rows, cols in [(3, 5), (5, 3)]:
        for build in (dp.build, dp.cached):
            with pytest.raises(ValueError) as err:
                build("a_table", rows, cols)
            assert str(err.value) == (
                "kind 'a' is a square family; use --rows == --cols"
            )
    assert dp.cached.cache_info().currsize == 0
    assert dp.build("a_table", 3, 3) == a_table(3)
    # Bad dims are reported before the square rule.
    with pytest.raises(ValueError) as err:
        dp.build("a_table", 0, 5)
    assert str(err.value) == "table dimensions must be positive, got 0x5"


@pytest.mark.parametrize("family", ["imn", "bogus", "hss_values", "build", "_advance3"])
def test_build_accepts_only_the_table_families(family):
    # Any other module-level name is refused before it is called, so the
    # memo never keeps an int (imn) or a helper's result as a table.
    dp.cached.cache_clear()
    for build in (dp.build, dp.cached):
        with pytest.raises(ValueError) as err:
            build(family, 3, 3)
        assert str(err.value) == f"unknown table family {family!r}"
    assert dp.cached.cache_info().currsize == 0
