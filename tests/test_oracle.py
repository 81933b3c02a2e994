import gc
import tracemalloc

import pytest

from golden_tables import FIGURE1_ROW_WORDS
from tablepaths.core import Cell, TableDims, row_trace
from tablepaths.dp import bounded_pair_count, di_table, free_count, imn
from tablepaths.formulas import s_free_closed
from tablepaths.oracle import (
    WordFilter,
    brute_free,
    brute_imn,
    brute_pair_count,
    enumerate_words,
)


def test_filter_validation():
    with pytest.raises(ValueError):
        WordFilter(alphabet="")
    with pytest.raises(ValueError):
        WordFilter(alphabet="ux")
    with pytest.raises(ValueError):
        WordFilter(floor=3, ceiling=1)
    with pytest.raises(ValueError):
        WordFilter(end_row=2, net_displacement=1)
    # Alphabet is canonicalized to u < r < d order.
    assert WordFilter(alphabet="du").alphabet == "ud"


@pytest.mark.parametrize("alphabet, canonical", [
    ("urd", "urd"), ("dru", "urd"), ("du", "ud"), ("dd", "d"), ("rdrd", "rd"),
])
def test_filter_alphabet_is_canonical(alphabet, canonical):
    assert WordFilter(alphabet=alphabet).alphabet == canonical
    assert WordFilter(alphabet=alphabet) == WordFilter(alphabet=canonical)


@pytest.mark.parametrize("kwargs, message", [
    ({"alphabet": ""}, "alphabet must be a nonempty subset of 'urd'"),
    ({"alphabet": "uX"}, "alphabet must be a nonempty subset of 'urd'"),
    ({"floor": 3, "ceiling": 1}, "floor above ceiling"),
    ({"end_row": 2, "net_displacement": 1},
     "end_row and net_displacement are mutually exclusive"),
])
def test_filter_errors(kwargs, message):
    with pytest.raises(ValueError) as err:
        WordFilter(**kwargs)
    assert str(err.value) == message


def test_filter_is_a_frozen_value():
    filt = WordFilter(alphabet="du", start_row=3)
    same = WordFilter("ud", 3, None, None, None, None)
    fields = ("ud", 3, None, None, None, None)
    assert filt == same and hash(filt) == hash(same) == hash(fields)
    assert filt != WordFilter(start_row=3) and filt != fields
    assert repr(filt) == ("WordFilter(alphabet='ud', start_row=3, floor=None, "
                          "ceiling=None, end_row=None, net_displacement=None)")
    confined = WordFilter.in_table(TableDims(4, 9), start_row=2, end_row=1)
    assert repr(confined) == ("WordFilter(alphabet='urd', start_row=2, floor=1, "
                              "ceiling=4, end_row=1, net_displacement=None)")
    for name in ("alphabet", "start_row", "net_displacement", "other"):
        with pytest.raises(AttributeError):
            setattr(filt, name, 1)
    with pytest.raises(AttributeError):
        del filt.floor
    assert filt == same and filt.alphabet == "ud"


def test_enumerate_requires_anchor_row():
    with pytest.raises(ValueError):
        list(enumerate_words(2, WordFilter()))


def test_negative_lengths_are_refused():
    with pytest.raises(ValueError, match="^length must be nonnegative$"):
        list(enumerate_words(-1, WordFilter(start_row=1)))
    with pytest.raises(ValueError, match="^y must be nonnegative$"):
        brute_free(0, -1)


def test_enumerate_examples():
    filt = WordFilter.in_table(TableDims(2, 3), start_row=1, end_row=1)
    words = [w.letters for w in enumerate_words(2, filt)]
    assert words == ["ud", "rr"]

    filt = WordFilter(start_row=4, end_row=4)
    words = list(enumerate_words(0, filt))
    assert len(words) == 1 and words[0].letters == ""

    # Floor without ceiling, two-letter alphabet: the five balanced words.
    filt = WordFilter(alphabet="ud", start_row=1, floor=1, end_row=2)
    words = {w.letters for w in enumerate_words(5, filt)}
    assert words == {"uuudd", "uudud", "ududu", "uuddu", "uduud"}


def test_enumeration_order_is_deterministic():
    filt = WordFilter(start_row=1, floor=1, end_row=2)
    words = [w.letters for w in enumerate_words(3, filt)]
    assert words == ["uud", "urr", "udu", "rur", "rru"]
    assert words == [w.letters for w in enumerate_words(3, filt)]


def test_stream_cardinality():
    for length in range(8):
        assert len(list(enumerate_words(length, WordFilter(start_row=0)))) == 3**length
        filt = WordFilter(alphabet="ud", start_row=0)
        assert len(list(enumerate_words(length, filt))) == 2**length


def test_figure1_census():
    filt = WordFilter.in_table(TableDims(2, 3))
    traces = {
        "".join(str(r) for r in row_trace(w)) for w in enumerate_words(2, filt)
    }
    assert traces == FIGURE1_ROW_WORDS


def test_cap_errors_name_the_cap():
    with pytest.raises(ValueError, match="word length 15 exceeds enumeration cap 14"):
        next(enumerate_words(15, WordFilter(start_row=0)))
    with pytest.raises(ValueError, match="word length 4 exceeds enumeration cap 3"):
        next(enumerate_words(4, WordFilter(start_row=0), cap=3))
    with pytest.raises(ValueError, match="table width 15 exceeds enumeration cap 14"):
        brute_imn(TableDims(2, 15))
    with pytest.raises(ValueError, match="table height 15 exceeds enumeration cap 14"):
        brute_imn(TableDims(15, 2))
    with pytest.raises(ValueError, match="word length 15 exceeds enumeration cap 14"):
        brute_free(0, 15)
    with pytest.raises(ValueError, match="column span 16 exceeds enumeration cap 14"):
        brute_pair_count(
            TableDims(2, 20), Cell(1, 1), Cell(17, 1)
        )
    # A raised cap admits a request the lower cap refused.
    with pytest.raises(ValueError, match="word length 4 exceeds enumeration cap 3"):
        brute_free(0, 4, cap=3)
    assert brute_free(0, 4, cap=4) == free_count(0, 4)


def test_deep_counts_need_no_recursion():
    # Both depths are past Python's default recursion limit.
    assert brute_free(1500, 1500, cap=2000) == 1
    dims, start, end = TableDims(1, 1201), Cell(1, 1), Cell(1201, 1)
    with pytest.raises(ValueError, match="column span 1200 exceeds enumeration cap 14"):
        brute_pair_count(dims, start, end)
    assert brute_pair_count(dims, start, end, cap=1200) == 1


def test_brute_pair_count_examples():
    assert brute_pair_count(TableDims(2, 3), Cell(1, 1), Cell(3, 2)) == 2
    assert brute_pair_count(TableDims(4, 6), Cell(2, 2), Cell(3, 3)) == 1
    assert brute_pair_count(TableDims(8, 8), Cell(1, 1), Cell(8, 4)) == 133


def test_brute_pair_count_matches_engine_on_all_small_tables():
    # Single enumeration per (dims, start, span), bucketed by end row.
    for m in range(1, 7):
        for n in range(1, 7):
            dims = TableDims(m, n)
            for r0 in range(1, m + 1):
                for span in range(n):
                    buckets = {t: 0 for t in range(1, m + 1)}
                    filt = WordFilter.in_table(dims, start_row=r0)
                    for w in enumerate_words(span, filt):
                        buckets[row_trace(w)[-1]] += 1
                    for t in range(1, m + 1):
                        want = bounded_pair_count(
                            dims, Cell(1, r0), Cell(1 + span, t)
                        )
                        assert buckets[t] == want, (m, n, r0, span, t)


def test_brute_imn_examples_and_equivalence():
    assert brute_imn(TableDims(2, 3)) == 8
    assert brute_imn(TableDims(1, 7)) == 1
    assert brute_imn(TableDims(3, 3)) == 17
    for m in range(1, 6):
        for n in range(1, 11):
            assert brute_imn(TableDims(m, n)) == imn(TableDims(m, n))


def test_brute_free_examples_and_equivalence():
    assert brute_free(0, 2) == 3
    assert brute_free(0, 0) == 1
    for y in (1, 3, 6):
        assert brute_free(y, y) == 1
    for y in range(9):
        for x in range(-y, y + 1):
            count = brute_free(x, y)
            assert count == free_count(x, y) == s_free_closed(x, y), (x, y)


def test_brute_free_full_sweep_to_ten():
    # One full enumeration per length, bucketed by net rise, keeps the
    # sweep to y = 10 cheap while checking every displacement.
    for y in (9, 10):
        buckets: dict[int, int] = {}
        for w in enumerate_words(y, WordFilter(start_row=0)):
            trace = row_trace(w)
            net = trace[-1] - trace[0]
            buckets[net] = buckets.get(net, 0) + 1
        for x in range(-y, y + 1):
            want = buckets.get(x, 0)
            assert want == free_count(x, y) == s_free_closed(x, y), (x, y)


def test_deep_listing_memory_is_linear_in_word_length():
    # The search keeps one letter buffer, not one prefix string per
    # pending entry, so four times the length costs about four times the
    # memory to reach the first word; a prefix per entry costs sixteen.
    def peak(length):
        gc.collect()  # empties the free lists, so every run allocates alike
        tracemalloc.start()
        try:
            next(enumerate_words(length, WordFilter(start_row=1), cap=length))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) < 6 * peak(1000)
