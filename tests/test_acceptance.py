"""Acceptance suite: one test group per numbered criterion.

Each test pins exact integer values (there are no tolerances anywhere)
plus the stated runtime budget.  The criterion 2 tests compare against
the 5x10 reference transcription verbatim and check its errata: three
transcribed entries are arithmetically inconsistent with the rest of
that same table (see golden_tables), and each test requires exactly
those entries, and no others, to differ from the computed values.  The
errata are derived here from the transcription's own arithmetic, with
no engine call; test_dp confirms the recomputed values by brute-force
enumeration.
"""

import time

import pytest

from golden_tables import (
    CATALAN,
    FIGURE1_ROW_WORDS,
    MOTZKIN,
    TABLE1_A_ROWS,
    TABLE1_D1_ROWS,
    TABLE2_D1_RECOMPUTED_DIFFS,
    TABLE2_D1_ROWS,
    TABLE2_HSS,
    TABLE2_HSS_RECOMPUTED,
    cells_from_rows,
)
from tablepaths import cli
from tablepaths.core import Cell, TableDims, row_trace
from tablepaths.dp import (
    a_table,
    bounded_pair_count,
    d_table,
    di_table,
    free_count,
    imn,
)
from tablepaths.formulas import (
    a_closed,
    binomial,
    catalan_number,
    d1_split,
    d1_via_a,
    d_boundary,
    d_boundary_printed,
    h_via_square,
    i_inner,
    motzkin_number,
)
from tablepaths.oracle import WordFilter, brute_pair_count, enumerate_words
from tablepaths.verify import (
    calibrate_domain,
    default_spec,
    default_suite,
    run_identity,
    run_suite,
)


def _cli_csv_cells(capsys, kind, rows, cols):
    code = cli.main(
        ["table", "--kind", kind, "-m", str(rows), "-n", str(cols),
         "--format", "csv"]
    )
    header, *lines = capsys.readouterr().out.splitlines()
    assert (code, header) == (0, "s,t,value")
    entries = [tuple(map(int, line.split(","))) for line in lines]
    # Every cell once, column-major: a missing or repeated cell fails.
    grid = [(s, t) for s in range(1, cols + 1) for t in range(1, rows + 1)]
    assert [(s, t) for s, t, _ in entries] == grid
    return {(s, t): v for s, t, v in entries}


# -- criterion 1: 8x8 golden tables ---------------------------------------


def test_criterion_1_golden_tables(capsys):
    start = time.perf_counter()

    got = _cli_csv_cells(capsys, "d1", 8, 8)
    want = cells_from_rows(TABLE1_D1_ROWS)
    assert len(want) == 36
    mismatches = {k: (got[k], v) for k, v in want.items() if got[k] != v}
    assert mismatches == {}
    assert got[(8, 4)] == 133
    assert [got[(s, 1)] for s in range(1, 9)] == [1, 1, 2, 4, 9, 21, 51, 127]

    got = _cli_csv_cells(capsys, "a", 8, 8)
    want = cells_from_rows(TABLE1_A_ROWS)
    assert len(want) == 36
    mismatches = {k: (got[k], v) for k, v in want.items() if got[k] != v}
    assert mismatches == {}
    assert got[(7, 1)] == 5 and got[(8, 2)] == 14 and got[(8, 8)] == 1

    assert time.perf_counter() - start < 1.0


# -- criterion 2: 5x10 table and footer reproduction ----------------------


def _recurrence_breaks(cells):
    """Cells in column s >= 2 that are not the sum of their three
    neighbours in column s - 1 (a cell that is not listed counts 0)."""
    return {
        (s, t)
        for (s, t), value in cells.items()
        if s > 1
        and value != sum(cells.get((s - 1, r), 0) for r in (t - 1, t, t + 1))
    }


def _table2_corrected():
    """The 5x10 transcription with its documented body erratum applied.

    The justification uses the transcription alone.  As transcribed, 133
    at (8,4) breaks the column recurrence at (8,4) itself (69 + 44 + 19 =
    132) and at the three column-9 cells summed over it.  With
    TABLE2_D1_RECOMPUTED_DIFFS applied, every populated cell satisfies it.
    """
    transcribed = cells_from_rows(TABLE2_D1_ROWS)
    assert _recurrence_breaks(transcribed) == {(8, 4), (9, 3), (9, 4), (9, 5)}
    corrected = {**transcribed, **TABLE2_D1_RECOMPUTED_DIFFS}
    assert _recurrence_breaks(corrected) == set()
    return corrected


def test_criterion_2_table2_body(capsys):
    """Reproduces the transcribed 5x10 table up to its one erratum.

    The only mismatch allowed is (8,4): computed 132, transcribed 133.
    133 is the 8-row value (criterion 1); the one extra path, uuuuudd,
    climbs to row 6, which a 5-row table does not have.  The test fails
    on drift in any other cell, and also if the erratum stops showing.
    """
    start = time.perf_counter()
    got = _cli_csv_cells(capsys, "d1", 5, 10)
    want = cells_from_rows(TABLE2_D1_ROWS)
    assert len(want) == 40
    mismatches = {k: (got[k], v) for k, v in want.items() if got[k] != v}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _table2_corrected()
    errata = {k: (v, want[k]) for k, v in TABLE2_D1_RECOMPUTED_DIFFS.items()}
    assert errata == {(8, 4): (132, 133)}
    assert mismatches == errata, (
        f"computed vs transcribed (cell: computed, transcribed): {mismatches}"
    )
    # The transcription omits the cells above the diagonal (t > s): no
    # path from (1,1) reaches them.
    assert {k: v for k, v in got.items() if k not in want} == {
        (s, t): 0 for s in range(1, 5) for t in range(s + 1, 6)
    }


def test_criterion_2_hss_footer(capsys):
    """Reproduces the transcribed diagonal footer up to its two errata.

    The only mismatches allowed are s = 5 (computed 35, transcribed 36)
    and s = 8 (computed 707, transcribed 708).  The footer entry at s is
    the column sum of the body: the transcription's own column 5 sums to
    9 + 12 + 9 + 4 + 1 = 35, and 708 is the column-8 sum with the bad 133
    in it.  The test fails on drift in any other entry, and also if an
    erratum stops showing.
    """
    start = time.perf_counter()
    code = cli.main(
        ["table", "--kind", "d1", "-m", "5", "-n", "10", "--hss-footer"]
    )
    out = capsys.readouterr().out
    assert code == 0
    footer_line = out.splitlines()[-1]
    assert footer_line.startswith("| H(s,s) |")
    derived = [int(c) for c in footer_line.strip().strip("|").split("|")[1:]]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(derived) == len(TABLE2_HSS)
    mismatches = {
        s: (have, wanted)
        for s, (have, wanted) in enumerate(zip(derived, TABLE2_HSS), start=1)
        if have != wanted
    }
    corrected = _table2_corrected()
    column_sums = [
        sum(v for (s, _), v in corrected.items() if s == col)
        for col in range(1, 11)
    ]
    assert column_sums == TABLE2_HSS_RECOMPUTED
    errata = {
        s: (fixed, printed)
        for s, (fixed, printed) in enumerate(
            zip(TABLE2_HSS_RECOMPUTED, TABLE2_HSS), start=1
        )
        if fixed != printed
    }
    assert errata == {5: (35, 36), 8: (707, 708)}
    assert mismatches == errata, (
        f"derived vs transcribed (s: derived, transcribed): {mismatches}"
    )


# -- criterion 3: worked decompositions -----------------------------------


def test_criterion_3_worked_decompositions():
    start = time.perf_counter()

    # 133 through the two-letter reduction: 35*1 + 21*4 + 1*14.
    terms = [
        (binomial(7, 4), a_closed(4, 4)),
        (binomial(7, 2), a_closed(6, 4)),
        (binomial(7, 0), a_closed(8, 4)),
    ]
    assert terms == [(35, 1), (21, 4), (1, 14)]
    assert d1_via_a(8, 4) == 35 * 1 + 21 * 4 + 1 * 14 == 133

    # 195 through the split-column convolution at s = 5 in 5 rows.
    d1 = di_table(TableDims(5, 9), 1)
    column5 = [d1.get(5, i) for i in range(1, 6)]
    assert column5 == [9, 12, 9, 4, 1]
    products = [column5[i] * column5[4 - i] for i in range(5)]
    assert products == [9 * 1, 12 * 4, 9 * 9, 4 * 12, 1 * 9]
    assert d1_split(9, 5, 5) == sum(products) == 195

    # 1931 through the square-table correction with D(9,9) = 2123.
    assert d_table(TableDims(9, 9)).get(9, 9) == 2123
    factors = [di_table(TableDims(5, 8), 1).get(i, 5) for i in range(5, 9)]
    assert factors == [1, 5, 19, 63]
    corrections = [27 * 1, 9 * 5, 3 * 19, 1 * 63]
    assert h_via_square(9, 5) == 2123 - sum(corrections) == 1931

    assert time.perf_counter() - start < 1.0


# -- criterion 4: 2x3 table census ----------------------------------------


def test_criterion_4_census(capsys):
    start = time.perf_counter()

    assert imn(TableDims(2, 3)) == 8
    filt = WordFilter.in_table(TableDims(2, 3))
    traces = {
        "".join(str(r) for r in row_trace(w)) for w in enumerate_words(2, filt)
    }
    assert traces == FIGURE1_ROW_WORDS
    assert len(FIGURE1_ROW_WORDS) == 8

    code = cli.main(["words", "--length", "2", "-m", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert {line.split()[1] for line in out.splitlines()} == FIGURE1_ROW_WORDS

    total = 0
    for i in (1, 2):
        for j in (1, 2):
            code = cli.main(
                ["count", "-m", "2", "-n", "3",
                 "--from-col", "1", "--from-row", str(i),
                 "--to-col", "3", "--to-row", str(j)]
            )
            total += int(capsys.readouterr().out)
            assert code == 0
    assert total == 8

    assert time.perf_counter() - start < 1.0


# -- criterion 5: identity suite ------------------------------------------


def test_criterion_5_identity_suite():
    start = time.perf_counter()
    reports, _ = run_suite(default_suite())
    by_id = {r.spec.identity: r for r in reports}
    must_pass = [
        "A-CLOSED", "D1-VIA-A", "D1-CLOSED", "D1-SPLIT", "D-BOUNDARY",
        "INNER-PRODUCT", "H-SQUARE", "S-FREE", "S2", "FLIP-SYMMETRY",
        "REVERSAL",
    ]
    for identity in must_pass:
        rep = by_id[identity]
        assert rep.verdict == "PASS", identity
        assert rep.failures == 0 and rep.cases_checked > 0, identity
    assert time.perf_counter() - start < 60.0


# -- criterion 6: errata confirmation and domain calibration ---------------


def test_criterion_6_errata_and_calibration():
    start = time.perf_counter()

    for identity in ("D-BOUNDARY-PRINTED", "S-FREE-PRINTED"):
        rep = run_identity(default_spec(identity))
        assert rep.verdict == "DOCUMENTED-FAILURE-CONFIRMED", identity
        assert rep.first_counterexample is not None

    # The recorded 2x3 case: the late-start variant gives 8 where the
    # true count, fixed by brute force, is 4.
    dims = TableDims(2, 3)
    assert d_boundary_printed(dims, 3, 1) == 8
    assert d_boundary(dims, 3, 1) == 4
    assert d_table(dims).get(3, 1) == 4
    assert sum(
        brute_pair_count(dims, Cell(1, i), Cell(3, 1)) for i in (1, 2)
    ) == 4

    # Calibration re-derives the declared window m <= n <= 2m: every
    # point of it passes (the probe also shows one column of slack).
    profile = dict(calibrate_domain("H-SQUARE").profile)
    for m in range(1, 6):
        assert profile[m] >= 2 * m
    rep = run_identity(default_spec("H-SQUARE"))
    assert rep.verdict == "PASS" and rep.failures == 0

    assert time.perf_counter() - start < 60.0


# -- criterion 7: known-sequence edges -------------------------------------


def test_criterion_7_sequence_edges():
    table = di_table(TableDims(8, 8), 1)
    assert [table.get(s, 1) for s in range(1, 9)] == MOTZKIN
    assert [motzkin_number(k) for k in range(8)] == MOTZKIN
    assert MOTZKIN == [1, 1, 2, 4, 9, 21, 51, 127]

    two_letter = a_table(9)
    assert [two_letter.get(2 * k + 1, 1) for k in range(5)] == CATALAN
    assert [catalan_number(k) for k in range(5)] == CATALAN
    assert CATALAN == [1, 1, 2, 5, 14]


# -- criterion 8: property suite -------------------------------------------


def test_criterion_8_properties():
    start = time.perf_counter()

    for y in range(13):
        assert sum(free_count(x, y) for x in range(-y, y + 1)) == 3**y

    for m in range(1, 6):
        for n in range(1, 6):
            dims = TableDims(m, n)
            for c0 in range(1, n + 1):
                for c1 in range(c0, n + 1):
                    for r0 in range(1, m + 1):
                        for r1 in range(1, m + 1):
                            frm, to = Cell(c0, r0), Cell(c1, r1)
                            assert brute_pair_count(dims, frm, to) == (
                                bounded_pair_count(dims, frm, to)
                            ), (m, n, c0, r0, c1, r1)

    for m in range(1, 6):
        for n in range(1, 10):
            dims = TableDims(m, n)
            whole = imn(dims)
            for a in range(1, n + 1):
                assert i_inner(dims, a) == whole, (m, n, a)

    assert time.perf_counter() - start < 60.0
