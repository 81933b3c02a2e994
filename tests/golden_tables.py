"""Frozen reference tables for the golden and acceptance tests.

Each *_ROWS mapping lists, per row t, the populated values for
s = t..cols.  The 5x10 transcription (TABLE2_*) is kept verbatim even
though three of its entries are arithmetically inconsistent with the
rest of the same table: the column recurrence and the table's own
column sums force 132 / 35 / 707 where the transcription reads
133 / 36 / 708.  The *_RECOMPUTED values are the recurrence-consistent
ones; the tests confirm them independently by brute-force enumeration.
"""


def table_columns(matrix) -> tuple:
    """Every column of a ``CountMatrix``, column 1 first, each one bottom
    row first: the one way the tests read a whole table."""
    return tuple(map(matrix.column, range(1, matrix.dims.cols + 1)))


def cells_from_rows(rows: dict[int, list[int]]) -> dict[tuple[int, int], int]:
    """Expand per-row value lists into a {(s, t): value} mapping."""
    cells = {}
    for t, values in rows.items():
        for offset, value in enumerate(values):
            cells[(t + offset, t)] = value
    return cells


# 8x8 start-row-1 family (populated wedge t <= s, 36 entries).
TABLE1_D1_ROWS = {
    1: [1, 1, 2, 4, 9, 21, 51, 127],
    2: [1, 2, 5, 12, 30, 76, 196],
    3: [1, 3, 9, 25, 69, 189],
    4: [1, 4, 14, 44, 133],
    5: [1, 5, 20, 70],
    6: [1, 6, 27],
    7: [1, 7],
    8: [1],
}

# 8x8 two-letter family (populated wedge t <= s, zeros included).
TABLE1_A_ROWS = {
    1: [1, 0, 1, 0, 2, 0, 5, 0],
    2: [1, 0, 2, 0, 5, 0, 14],
    3: [1, 0, 3, 0, 9, 0],
    4: [1, 0, 4, 0, 14],
    5: [1, 0, 5, 0],
    6: [1, 0, 6],
    7: [1, 0],
    8: [1],
}

# 5x10 start-row-1 family, transcribed verbatim (40 populated entries).
TABLE2_D1_ROWS = {
    1: [1, 1, 2, 4, 9, 21, 51, 127, 323, 835],
    2: [1, 2, 5, 12, 30, 76, 196, 512, 1352],
    3: [1, 3, 9, 25, 69, 189, 517, 1413],
    4: [1, 4, 14, 44, 133, 384, 1096],
    5: [1, 5, 19, 63, 195, 579],
}

# Diagonal footer of the 5x10 table, transcribed verbatim.
TABLE2_HSS = [1, 2, 5, 13, 36, 95, 259, 708, 1931, 5275]

# Cells where the transcription disagrees with the column recurrence.
# 133 at (8,4) cannot be right: the same table's column 9 values
# (517 = 196 + 189 + 132, 384 = 189 + 132 + 63) are sums over column 8
# and only hold with 132 there.  133 is the 8-row value (TABLE1_D1_ROWS):
# its one extra path, uuuuudd, climbs to row 6, which a 5-row table lacks.
TABLE2_D1_RECOMPUTED_DIFFS = {(8, 4): 132}

# Footer forced by the recurrence: the transcription's own column 5
# sums to 35, not 36, and the corrected column 8 sums to 707, not 708.
TABLE2_HSS_RECOMPUTED = [1, 2, 5, 13, 35, 95, 259, 707, 1931, 5275]

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127]
CATALAN = [1, 1, 2, 5, 14]

# The eight row words crossing the 2x3 table.
FIGURE1_ROW_WORDS = {"111", "112", "121", "122", "222", "221", "212", "211"}
