import pytest

from golden_tables import table_columns
from tablepaths.core import (
    STEP_RISE,
    Cell,
    CountMatrix,
    LatticeWord,
    TableDims,
    check_cell,
    row_trace,
)
from tablepaths.dp import bounded_pair_count
from tablepaths.formulas import s2_closed
from tablepaths.oracle import WordFilter, brute_pair_count, enumerate_words


def letter_count(word: LatticeWord, letter: str) -> int:
    """Number of occurrences of ``letter`` in the word."""
    if letter not in STEP_RISE:
        raise ValueError(f"unknown step letter {letter!r}")
    return word.letters.count(letter)


def test_letter_count_examples():
    assert letter_count(LatticeWord("uuudd"), "u") == 3
    assert letter_count(LatticeWord(""), "r") == 0
    assert letter_count(LatticeWord("urr"), "r") == 2


def test_letter_count_rejects_unknown_letter():
    with pytest.raises(ValueError):
        letter_count(LatticeWord("ur"), "x")


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        LatticeWord("uxr")
    with pytest.raises(ValueError) as err:
        LatticeWord("uxar", 2)
    assert str(err.value) == "letters must be from 'urd', got ['a', 'x']"


def test_word_equality_and_hash_use_letters_and_start_row():
    word = LatticeWord("ud", 1)
    assert word == LatticeWord("ud") == LatticeWord(letters="ud", start_row=1)
    assert hash(word) == hash(LatticeWord("ud")) == hash(("ud", 1))
    assert word != LatticeWord("ud", 2) and word != LatticeWord("du", 1)
    assert word != ("ud", 1)
    # A listed word equals, and hashes as, the word built from its parts.
    listed = list(enumerate_words(3, WordFilter(start_row=-2)))
    built = [LatticeWord(w.letters, -2) for w in listed]
    assert listed == built and set(listed) == set(built)
    assert len(set(listed + built)) == len(listed) == 27


def test_word_repr_and_len():
    assert repr(LatticeWord("ud", start_row=1)) == (
        "LatticeWord(letters='ud', start_row=1)"
    )
    first = next(enumerate_words(2, WordFilter(start_row=12)))
    assert repr(first) == "LatticeWord(letters='uu', start_row=12)"
    assert len(LatticeWord("urd", 5)) == 3 and len(LatticeWord("")) == 0
    assert len(first) == 2


def test_row_trace_examples():
    assert row_trace(LatticeWord("ud", start_row=1)) == (1, 2, 1)
    assert row_trace(LatticeWord("rr", start_row=2)) == (2, 2, 2)
    assert row_trace(LatticeWord("", start_row=1)) == (1,)


def test_word_counting_properties_exhaustive():
    # Letter counts partition the length; the trace endpoints differ by
    # the up/down balance.  Checked over every word of length <= 5.
    filt = WordFilter(start_row=0)
    for length in range(6):
        for word in enumerate_words(length, filt):
            counts = {ch: letter_count(word, ch) for ch in "urd"}
            assert sum(counts.values()) == len(word)
            trace = row_trace(word)
            assert len(trace) == len(word) + 1
            assert trace[-1] - trace[0] == counts["u"] - counts["d"]


def test_table_dims_validation():
    with pytest.raises(ValueError):
        TableDims(0, 3)
    with pytest.raises(ValueError):
        TableDims(3, 0)
    check_cell(TableDims(2, 3), 3, 2)
    for col, row in ((4, 1), (1, 0)):
        with pytest.raises(ValueError, match=rf"^cell \({col},{row}\) outside 2x3 table$"):
            check_cell(TableDims(2, 3), col, row)
    with pytest.raises(ValueError) as err:
        TableDims(0, -1)
    assert str(err.value) == "table dimensions must be positive, got 0x-1"


@pytest.mark.parametrize("value, fields, text", [
    (TableDims(2, 3), ("rows", "cols"), "TableDims(rows=2, cols=3)"),
    (Cell(2, 3), ("col", "row"), "Cell(col=2, row=3)"),
], ids=["TableDims", "Cell"])
def test_dims_and_cell_are_frozen_values(value, fields, text):
    # Equal to, and hashed as, a value of the same class with the same
    # fields; never equal to another class or to the bare tuple.
    kind = type(value)
    same = kind(**dict(zip(fields, (2, 3))))
    assert value == same and hash(value) == hash(same) == hash((2, 3))
    assert value != kind(3, 2) and value != (2, 3) and not value == (2, 3)
    assert TableDims(2, 3) != Cell(2, 3) and Cell(2, 3) != TableDims(2, 3)
    assert len({TableDims(2, 3), Cell(2, 3), value, same}) == 2
    assert repr(value) == text
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert tuple(getattr(value, name) for name in fields) == (2, 3)


def test_count_matrix_shape_and_access():
    dims = TableDims(2, 3)
    m = CountMatrix(dims, [[1, 2], [3, 4], [5, 6]])
    assert m.get(1, 1) == 1 and m.get(3, 2) == 6
    assert m.column(2) == (3, 4)
    assert table_columns(m) == ((1, 2), (3, 4), (5, 6))
    with pytest.raises(ValueError):
        m.get(4, 1)
    with pytest.raises(ValueError):
        m.get(1, 3)
    with pytest.raises(ValueError, match="^column 0 outside table$"):
        m.column(0)


def test_count_matrix_rejects_bad_data():
    dims = TableDims(2, 2)
    with pytest.raises(ValueError):
        CountMatrix(dims, [[1, 2]])
    with pytest.raises(ValueError):
        CountMatrix(dims, [[1, -2], [0, 0]])


def test_count_matrix_equality():
    dims = TableDims(1, 2)
    assert CountMatrix(dims, [[1], [2]]) == CountMatrix(dims, [[1], [2]])
    assert CountMatrix(dims, [[1], [2]]) != CountMatrix(dims, [[1], [3]])
    # Any other type compares unequal, not by its contents.
    assert (CountMatrix(dims, [[1], [2]]) == object()) is False
    assert CountMatrix(TableDims(1, 1), [[1]]) != (1,)


def test_count_matrix_repr_names_its_shape():
    table = CountMatrix(TableDims(3, 2), [[1, 2, 3], [4, 5, 6]])
    assert repr(table) == "CountMatrix(3x2)"


def test_count_matrix_checks_every_column():
    dims = TableDims(2, 3)
    for columns in ([[1, 2], [3, 4]], [[1, 2], [3, 4], [5]],
                    [[1, 2], [3, 4], [5, 6, 7]], [[1, 2], [3, 4], [5, 6], [7, 8]]):
        with pytest.raises(ValueError, match="does not match"):
            CountMatrix(dims, columns)
    with pytest.raises(ValueError, match="nonnegative"):
        CountMatrix(dims, [[1, 2], [3, 4], [5, -1]])
    with pytest.raises(ValueError):
        CountMatrix(dims, [[1, 2], [3, 4], [5, "x"]])


def test_count_matrix_rejects_counts_that_are_not_ints():
    for value in ("5", True, 1.0, "-3"):
        for dims, columns in ((TableDims(1, 1), [[value]]),
                              (TableDims(2, 2), [(7, 0), iter([value, 7])])):
            with pytest.raises(ValueError, match="^counts must be ints$"):
                CountMatrix(dims, columns)
    m = CountMatrix(TableDims(2, 2), [(1, 0), iter([5, 7])])  # any iterables
    assert table_columns(m) == ((1, 0), (5, 7))


@pytest.mark.parametrize(
    "count",
    [bounded_pair_count, s2_closed, brute_pair_count],
    ids=lambda fn: fn.__name__,
)
@pytest.mark.parametrize(
    "start, end, message",
    [
        (Cell(1, 3), Cell(3, 1), r"cell \(1,3\) outside 2x3 table"),
        (Cell(1, 1), Cell(4, 1), r"cell \(4,1\) outside 2x3 table"),
        (Cell(3, 1), Cell(1, 1), "start column 3 right of end column 1"),
    ],
    ids=["row-outside", "column-outside", "start-right-of-end"],
)
def test_pair_range_checked_alike(count, start, end, message):
    # Every pair count shares one range check, with the same messages.
    with pytest.raises(ValueError, match=message):
        count(TableDims(2, 3), start, end)
