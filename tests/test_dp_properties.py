"""Property tests: the engine against the brute-force oracle.

Every family ``dp.build`` makes must agree cell by cell with oracle
counts, the engine's pair, whole-table and free counts must equal the
brute counts, every CLI table kind's csv and json output must list
the cells of the table ``dp.build`` returns, each once, every CLI table
must print the text of that table, and every CLI sequence must print
the int march's values.  A table's columns do not depend on its width:
a narrower table is a column prefix of a wider one.  Settings are
fixed (derandomized, bounded examples) so runs repeat.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from tablepaths import cli, dp
from tablepaths.core import Cell, TableDims
from tablepaths.oracle import (
    WordFilter,
    brute_free,
    brute_imn,
    brute_pair_count,
    enumerate_words,
)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from test_cli import (  # noqa: E402
    _entries, _joined_sequence, _table_text, int_digit_limit,
)

FIXED = settings(
    derandomize=True, max_examples=60, deadline=None, database=None
)
ROWS, COLS = st.integers(1, 4), st.integers(1, 7)


def oracle_count(length, filt):
    return sum(1 for _ in enumerate_words(length, filt))


def cells(dims):
    return [(s, t) for s in range(1, dims.cols + 1) for t in range(1, dims.rows + 1)]


@FIXED
@given(ROWS, COLS)
def test_start_row_tables_count_confined_words(rows, cols):
    dims = TableDims(rows, cols)
    for i in range(1, rows + 1):
        table = dp.build("di_table", rows, cols, i)
        for s, t in cells(dims):
            want = brute_pair_count(dims, Cell(1, i), Cell(s, t))
            assert table.get(s, t) == want, (i, s, t)


@FIXED
@given(ROWS, COLS)
def test_start_anywhere_table_counts_confined_words(rows, cols):
    dims = TableDims(rows, cols)
    table = dp.build("d_table", rows, cols)
    for s, t in cells(dims):
        want = oracle_count(s - 1, WordFilter.in_table(dims, end_row=t))
        assert table.get(s, t) == want, (s, t)


@FIXED
@given(ROWS, COLS)
def test_prefix_sum_table_sums_start_row_one_counts(rows, cols):
    dims = TableDims(rows, cols)
    table = dp.build("h_table", rows, cols)
    for s, t in cells(dims):
        want = sum(
            brute_pair_count(dims, Cell(1, 1), Cell(s, r)) for r in range(1, t + 1)
        )
        assert table.get(s, t) == want, (s, t)


@FIXED
@given(st.integers(1, 8))
def test_two_letter_table_counts_ud_words_above_the_floor(n):
    table = dp.build("a_table", n, n)
    for s, t in cells(TableDims(n, n)):
        filt = WordFilter(alphabet="ud", start_row=1, floor=1, end_row=t)
        assert table.get(s, t) == oracle_count(s - 1, filt), (s, t)


# Column c of a table does not depend on its width: the per-width table
# memo and a width-free column store both rest on this.
@FIXED
@given(st.integers(1, 7), st.integers(1, 9), st.integers(1, 3))
def test_a_narrower_table_is_a_column_prefix_of_a_wider_one(rows, cols, extra):
    keys = [("di_table", i) for i in range(1, rows + 1)] + [("d_table",), ("h_table",)]
    for family, *start in keys:
        narrow = dp.build(family, rows, cols, *start)
        wide = dp.build(family, rows, cols + extra, *start)
        for c in range(1, cols + 1):
            assert narrow.column(c) == wide.column(c), (family, start, c)


@FIXED
@given(st.integers(1, 9), st.integers(1, 3))
def test_a_smaller_two_letter_table_is_a_corner_of_a_larger_one(n, extra):
    # The square rule ties height to width: column c of the n-row table is
    # the first n entries of column c of the larger one.
    small, large = dp.build("a_table", n, n), dp.build("a_table", n + extra, n + extra)
    for c in range(1, n + 1):
        assert small.column(c) == large.column(c)[:n], c


@FIXED
@given(ROWS, COLS, st.data())
def test_pair_and_whole_table_counts_equal_brute_counts(rows, cols, data):
    dims = TableDims(rows, cols)
    c0 = data.draw(st.integers(1, cols))
    c1 = data.draw(st.integers(c0, cols))
    r0, r1 = data.draw(st.integers(1, rows)), data.draw(st.integers(1, rows))
    start, end = Cell(c0, r0), Cell(c1, r1)
    assert dp.bounded_pair_count(dims, start, end) == brute_pair_count(dims, start, end)
    assert dp.imn(dims) == brute_imn(dims)


@FIXED
@given(st.integers(-9, 9), st.integers(0, 8))
def test_free_count_equals_brute_count(x, y):
    assert dp.free_count(x, y) == brute_free(x, y)


@FIXED
@given(st.sampled_from(sorted(cli.TABLE_KINDS)), ROWS, COLS)
def test_table_output_parses_back_to_the_built_table(kind, rows, cols):
    if kind == "a":
        cols = rows  # a square family
    family, *start = cli.TABLE_KINDS[kind]
    want = _entries(dp.build(family, rows, cols, *start))
    # Every cell once, column-major: a missing, repeated or wrong cell fails.
    readers = {
        "csv": lambda text: [tuple(map(int, line.split(",")))
                             for line in text.splitlines()[1:]],
        "json": lambda text: [(s, t, int(v))
                              for s, t, v in json.loads(text)["entries"]],
    }
    for fmt, read in readers.items():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["table", "--kind", kind, "-m", str(rows),
                             "-n", str(cols), "--format", fmt])
        assert code == 0
        assert read(out.getvalue()) == want, fmt


@settings(FIXED, max_examples=150)
@given(st.integers(1, 5), st.integers(0, 700), st.data())
def test_pair_count_equals_the_start_row_table(rows, steps, data):
    # Spans up to 700 reach two levels of splitting at every height 1..5.
    r0, r1 = (data.draw(st.integers(1, rows)) for _ in range(2))
    dims = TableDims(rows, steps + 1)
    want = dp.di_table(dims, r0).get(steps + 1, r1)
    assert dp.bounded_pair_count(dims, Cell(1, r0), Cell(steps + 1, r1)) == want


@FIXED
@given(st.sampled_from(sorted(cli.SEQUENCE_TARGETS)), st.integers(1, 20),
       st.integers(1, 700), st.sampled_from(cli.LIST_FORMATS))
@example("imn-fixed-m", 20, 700, "json")
@example("d1-bottom-row", 3, 700, "csv")
def test_sequence_output_is_the_int_march_text(target, rows, max_n, fmt):
    # Up to 700 columns the values pass Decimal's default 28 digits and
    # the list spans several writes: the first holds one value, and each
    # next one at most twice the values of the last.
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["sequence", "--target", target, "-m", str(rows),
                         "--max-n", str(max_n), "--format", fmt])
    build = dp.imn_sequence if target == "imn-fixed-m" else dp.d1_bottom_row
    values = build(rows, max_n)
    with int_digit_limit(0):
        want = _joined_sequence(target, rows, values, fmt)
    assert (code, out.getvalue()) == (0, want)


@FIXED
@given(st.sampled_from(sorted(cli.TABLE_KINDS)), st.sampled_from(cli.FORMATS),
       st.booleans(), st.integers(1, 20), st.integers(1, 60))
@example("d", "csv", False, 20, 60)
@example("h", "json", False, 20, 60)
@example("d1", "markdown", True, 20, 60)
@example("h", "markdown", False, 20, 60)  # the band reaches the top mid-table
@example("h", "markdown", False, 20, 5)  # every column is short
def test_table_output_is_the_int_table_text(kind, fmt, footer, rows, cols):
    # At 60 columns the values pass Decimal's default 28 digits.
    if kind == "a":
        cols = rows  # a square family
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["table", "--kind", kind, "-m", str(rows), "-n", str(cols),
                         "--format", fmt, *["--hss-footer"] * footer])
    if footer and (kind, fmt) != ("d1", "markdown"):
        assert (code, out.getvalue()) == (1, "")
        return
    assert (code, out.getvalue()) == (0, _table_text(kind, rows, cols, fmt, footer))
