"""Property tests: the oracle against the definition of a lattice word.

Every listing must equal the filtered product over the alphabet, in the
same order, every listed word must carry its visited rows as its trace,
and every brute count must equal the size of its listing.
Settings are fixed (derandomized, bounded examples) so runs repeat.
"""

from itertools import product

import pytest

from tablepaths.core import STEP_RISE, Cell, LatticeWord, TableDims, row_trace
from tablepaths.oracle import (
    WordFilter,
    brute_free,
    brute_imn,
    brute_pair_count,
    enumerate_words,
)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

FIXED = settings(
    derandomize=True, max_examples=100, deadline=None, database=None
)
ROWS = st.integers(-3, 4)

# Lengths on both sides of the search's memoized tail, over confined rows
# with no start row, so that several start rows run; with a net
# displacement each start has its own target row.
TAIL_EDGES = [
    (WordFilter(floor=-1, ceiling=2, net_displacement=1), 3),
    (WordFilter(floor=0, ceiling=3, net_displacement=-1), 5),
    (WordFilter(alphabet="ud", floor=-2, ceiling=1, net_displacement=0), 4),
    (WordFilter(alphabet="ud", floor=1, ceiling=4, end_row=2), 6),
    (WordFilter(floor=-3, ceiling=0, end_row=-1), 4),
    (WordFilter(floor=1, ceiling=3, net_displacement=1), 6),
]


def tail_edges(test):
    for filt, length in TAIL_EDGES:
        test = example(filt, length)(test)
    return test


def by_definition(length, filt):
    """(start_row, letters) of every admitted word, by brute filtering."""
    if filt.start_row is not None:
        starts = [filt.start_row]
    else:
        starts = range(filt.floor, filt.ceiling + 1)
    for start in starts:
        for letters in map("".join, product(filt.alphabet, repeat=length)):
            rows = row_trace(LatticeWord(letters, start))
            if filt.floor is not None and min(rows) < filt.floor:
                continue
            if filt.ceiling is not None and max(rows) > filt.ceiling:
                continue
            if filt.end_row is not None and rows[-1] != filt.end_row:
                continue
            net = filt.net_displacement
            if net is not None and rows[-1] - start != net:
                continue
            yield start, letters


@st.composite
def word_filters(draw):
    floor, ceiling = draw(st.none() | ROWS), draw(st.none() | ROWS)
    if floor is not None and ceiling is not None and floor > ceiling:
        floor, ceiling = ceiling, floor
    confined = floor is not None and ceiling is not None
    terminal = draw(st.sampled_from(["end", "net", None]))
    return WordFilter(
        alphabet=draw(st.sampled_from(["urd", "ud"])),
        start_row=draw(st.none() | ROWS) if confined else draw(ROWS),
        floor=floor,
        ceiling=ceiling,
        end_row=draw(ROWS) if terminal == "end" else None,
        net_displacement=draw(st.integers(-6, 6)) if terminal == "net" else None,
    )


@FIXED
@given(word_filters(), st.integers(0, 6))
@tail_edges
def test_listing_is_the_filtered_product(filt, length):
    got = [(w.start_row, w.letters) for w in enumerate_words(length, filt)]
    assert got == list(by_definition(length, filt))


@FIXED
@given(word_filters(), st.integers(0, 6))
@tail_edges
def test_listed_traces_are_the_visited_rows(filt, length):
    # Rows recomputed from the letters and their rises, not by row_trace.
    for word in enumerate_words(length, filt):
        rows = [word.start_row]
        for ch in word.letters:
            rows.append(rows[-1] + STEP_RISE[ch])
        assert word.trace == ",".join(map(str, rows))


@FIXED
@given(
    st.integers(1, 4), st.integers(1, 7), st.integers(1, 4),
    st.integers(1, 4), st.integers(-7, 7),
)
def test_brute_counts_are_listing_sizes(rows, cols, r0, r1, x):
    dims = TableDims(rows, cols)
    r0, r1 = min(r0, rows), min(r1, rows)
    length = cols - 1
    pair = WordFilter.in_table(dims, start_row=r0, end_row=r1)
    assert brute_pair_count(dims, Cell(1, r0), Cell(cols, r1)) == len(
        list(by_definition(length, pair))
    )
    whole = WordFilter.in_table(dims)
    assert brute_imn(dims) == len(list(by_definition(length, whole)))
    free = WordFilter(start_row=0, net_displacement=x)
    assert brute_free(x, length) == len(list(by_definition(length, free)))
