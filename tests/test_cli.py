import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest

from golden_tables import FIGURE1_ROW_WORDS, MOTZKIN, table_columns
from tablepaths import cli, dp, oracle
from tablepaths.core import TableDims, row_trace
from tablepaths.dp import (
    a_table, d1_bottom_row, d_table, di_table, h_table, hss_values, imn_sequence,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_examples(capsys):
    code, out, _ = run_cli(
        capsys, "count", "-m", "2", "-n", "3",
        "--from-col", "1", "--from-row", "1", "--to-col", "3", "--to-row", "1",
    )
    assert (code, out) == (0, "2\n")
    code, out, _ = run_cli(
        capsys, "count", "-m", "5", "-n", "10",
        "--from-col", "1", "--from-row", "1", "--to-col", "9", "--to-row", "5",
    )
    assert (code, out) == (0, "195\n")
    code, out, _ = run_cli(
        capsys, "count", "-m", "4", "-n", "6",
        "--from-col", "3", "--from-row", "2", "--to-col", "3", "--to-row", "2",
    )
    assert (code, out) == (0, "1\n")


def test_count_out_of_table_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "count", "-m", "2", "-n", "3",
        "--from-col", "1", "--from-row", "3", "--to-col", "3", "--to-row", "1",
    )
    assert code == 1 and out == "" and "outside" in err


def test_unknown_table_kind_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "table", "--kind", "zz", "-m", "2", "-n", "2")
    assert code == 1 and err


@pytest.mark.parametrize("target", ["bogus", "d1_table", "imn_sequence", ""])
def test_unknown_sequence_target_is_usage_error(capsys, target):
    # Only the two targets march; any other is refused before any work,
    # not read as the start-row-1 bottom row.
    code, out, err = run_cli(capsys, "sequence", "--target", target, "-m", "3",
                             "--max-n", "4")
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --target: invalid choice")


def test_table_csv_golden_line(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "a", "-m", "8", "-n", "8", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,t,value"
    assert "8,2,14" in lines


def _entries(matrix):
    """(s, t, value) for every cell of a CountMatrix, column-major."""
    return [(s, t, v) for s, col in enumerate(table_columns(matrix), start=1)
            for t, v in enumerate(col, start=1)]


def _csv_entries(out):
    """(s, t, value) for each printed line under the header, in print order."""
    header, *lines = out.splitlines()
    assert header == "s,t,value"
    return [tuple(map(int, line.split(","))) for line in lines]


def test_table_csv_round_trip(capsys):
    for kind, build in [
        ("d1", lambda: di_table(TableDims(5, 10), 1)),
        ("d", lambda: d_table(TableDims(4, 7))),
        ("h", lambda: h_table(TableDims(3, 8))),
    ]:
        dims = build().dims
        code, out, _ = run_cli(
            capsys, "table", "--kind", kind,
            "-m", str(dims.rows), "-n", str(dims.cols), "--format", "csv",
        )
        assert code == 0
        # Every cell once, column-major: a missing, repeated or wrong cell fails.
        assert _csv_entries(out) == _entries(build())


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "a", "-m", "6", "-n", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "a"
    assert payload["dims"] == {"rows": 6, "cols": 6}
    want = [[s, t, str(v)] for s, t, v in _entries(a_table(6))]
    assert payload["entries"] == want


def test_table_json_single_entry(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "h", "-m", "1", "-n", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["entries"] == [[1, 1, "1"]]


def _markdown_rows(out):
    rows = {}
    for line in out.splitlines()[2:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        rows[cells[0]] = cells[1:]
    return rows


def test_table_markdown_orientation_and_bottom_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "d1", "-m", "8", "-n", "8")
    assert code == 0
    lines = out.splitlines()
    # Row index decreases downward; the last data row is t = 1.
    assert lines[2].startswith("| 8 |")
    assert lines[-1].startswith("| 1 |")
    rows = _markdown_rows(out)
    assert rows["1"] == [str(v) for v in MOTZKIN]
    assert rows["8"][:7] == [""] * 7 and rows["8"][7] == "1"


def test_table_markdown_footer(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "d1", "-m", "5", "-n", "10", "--hss-footer"
    )
    assert code == 0
    rows = _markdown_rows(out)
    assert rows["H(s,s)"] == [
        "1", "2", "5", "13", "35", "95", "259", "707", "1931", "5275",
    ]
    # D1(s, t) = 0 for t > s, so H(s, s) is column s's total, which the
    # h table's top row holds, whether the rows run out before the
    # columns, with them, or after.
    for rows, cols in [(3, 7), (6, 6), (7, 3)]:
        code, out, _ = run_cli(capsys, "table", "--kind", "d1", "-m", str(rows),
                               "-n", str(cols), "--hss-footer")
        dims = TableDims(rows, cols)
        footer = [int(v) for v in _markdown_rows(out)["H(s,s)"]]
        h, d1 = h_table(dims), di_table(dims, 1)
        assert code == 0
        assert footer == [h.get(s, rows) for s in range(1, cols + 1)]
        assert footer == [sum(d1.column(s)) for s in range(1, cols + 1)]


def test_footer_requires_d1_markdown(capsys):
    code, _, err = run_cli(
        capsys, "table", "--kind", "d", "-m", "5", "-n", "10", "--hss-footer"
    )
    assert code == 1 and "--hss-footer" in err
    code, _, err = run_cli(
        capsys, "table", "--kind", "d1", "-m", "5", "-n", "10",
        "--hss-footer", "--format", "csv",
    )
    assert code == 1


def test_a_kind_requires_square(capsys):
    code, out, err = run_cli(capsys, "table", "--kind", "a", "-m", "5", "-n", "10")
    assert (code, out) == (1, "")
    assert err == "error: kind 'a' is a square family; use --rows == --cols\n"


def test_table_dims_are_checked_before_the_square_rule(capsys):
    square = "kind 'a' is a square family; use --rows == --cols"
    for rows, cols, msg in [(0, 1, "table dimensions must be positive, got 0x1"),
                            (0, 5, "table dimensions must be positive, got 0x5"),
                            (3, 0, "table dimensions must be positive, got 3x0"),
                            (3, 5, square)]:
        code, out, err = run_cli(capsys, "table", "--kind", "a", "-m", str(rows),
                                 "-n", str(cols))
        assert (code, out, err) == (1, "", f"error: {msg}\n")
    assert run_cli(capsys, "table", "--kind", "a", "-m", "4", "-n", "4")[::2] == (0, "")


def test_every_table_kind_leaves_the_memo_empty(capsys):
    # A printed table is streamed from the march; none is kept for later.
    dp.cached.cache_clear()
    for kind in cli.TABLE_KINDS:
        for fmt in cli.FORMATS:
            code, out, _ = run_cli(capsys, "table", "--kind", kind, "-m", "4",
                                   "-n", "4", "--format", fmt)
            assert code == 0 and out
    assert dp.cached.cache_info().currsize == 0


def test_sequence_examples(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "--target", "imn-fixed-m", "-m", "2", "--max-n", "3"
    )
    assert (code, out) == (0, "2\n4\n8\n")
    code, out, _ = run_cli(
        capsys, "sequence", "--target", "d1-bottom-row", "-m", "8", "--max-n", "8"
    )
    assert code == 0 and out.split() == [str(v) for v in MOTZKIN]
    code, out, _ = run_cli(
        capsys, "sequence", "--target", "imn-fixed-m", "-m", "1", "--max-n", "5"
    )
    assert (code, out) == (0, "1\n1\n1\n1\n1\n")


def test_sequence_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "--target", "imn-fixed-m", "-m", "2", "--max-n", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["n,value", "1,2", "2,4", "3,8"]


def test_sequence_json_golden(capsys):
    code, out, err = run_cli(
        capsys, "sequence", "--target", "imn-fixed-m", "-m", "2", "--max-n", "3",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "target": "imn-fixed-m",\n  "rows": 2,\n  "values": [\n'
        '    [\n      1,\n      "2"\n    ],\n'
        '    [\n      2,\n      "4"\n    ],\n'
        '    [\n      3,\n      "8"\n    ]\n  ]\n}\n'
    )


def test_verify_all_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_as_expected"] is True
    assert len(payload["reports"]) == 15


@pytest.mark.parametrize("fmt,digest", [
    ("markdown", "28a2064d3d85570fd613b6fc90321cb3ac127020fc92091e4554ecc0218aebc1"),
    ("csv", "67b72eb4a86ef759bf85301d5415fc630918afd3a2b958f9f8b60f17961403e2"),
])
def test_verify_text_formats_golden(capsys, fmt, digest):
    # Pins the counterexample column too, which no other test reads.
    code, out, _ = run_cli(capsys, "verify", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_single_identity(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "D1-VIA-A", "--max-s", "3",
        "--format", "csv",
    )
    assert code == 0
    assert "D1-VIA-A,PASS,6,0,PASS," in out


def test_verify_unknown_identity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "NOPE")
    assert code == 1 and "unknown identity" in err


def test_verify_deviation_exits_two(capsys):
    # Restricted to a box where the late-start variant agrees, the
    # documented failure cannot be confirmed: exit code 2.
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "D-BOUNDARY-PRINTED", "--max-n", "1"
    )
    assert code == 2 and "FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--identity", "S2", "--max-m", "0"),
        ("--identity", "S2", "--max-m", "-1"),
        ("--identity", "FLIP-SYMMETRY", "--max-n", "0"),
        ("--identity", "S-FREE", "--max-y", "-1"),
        ("--identity", "A-CLOSED", "--max-s", "0"),
        ("--max-m", "0"),
    ],
)
def test_verify_override_below_axis_bound_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be at least" in err


def test_verify_lowest_grid_checks_a_case_per_identity(capsys):
    # At the axis lower bounds every identity still has a case; the
    # late-start variant agrees there, so the run deviates (exit 2).
    code, out, _ = run_cli(
        capsys, "verify", "--max-m", "1", "--max-n", "1", "--max-s", "1",
        "--max-y", "0", "--max-k", "0", "--format", "json",
    )
    assert code == 2
    reports = json.loads(out)["reports"]
    assert all(r["cases_checked"] >= 1 for r in reports)
    assert [r["identity"] for r in reports if r["verdict"] == "FAIL"] == [
        "D-BOUNDARY-PRINTED"
    ]


def test_words_five_word_list(capsys):
    code, out, _ = run_cli(
        capsys, "words", "--length", "3", "--start", "1", "--end", "2",
        "--floor", "1",
    )
    assert code == 0
    words = [line.split()[0] for line in out.splitlines()]
    assert words == ["uud", "urr", "udu", "rur", "rru"]


def test_words_census(capsys):
    code, out, _ = run_cli(capsys, "words", "--length", "2", "-m", "2")
    assert code == 0
    traces = {line.split()[1] for line in out.splitlines()}
    assert traces == FIGURE1_ROW_WORDS

    code, out, _ = run_cli(
        capsys, "words", "--length", "2", "-m", "2", "--start", "1"
    )
    assert code == 0 and len(out.splitlines()) == 4


def test_words_length_defaults_to_cols_minus_one(capsys):
    code, out, _ = run_cli(capsys, "words", "-m", "2", "-n", "3")
    assert code == 0 and len(out.splitlines()) == 8


def test_words_empty_word_marker(capsys):
    code, out, _ = run_cli(capsys, "words", "--length", "0", "--start", "1")
    assert (code, out) == (0, "ε 1\n")


def test_words_cap_resource_error(capsys):
    code, out, err = run_cli(capsys, "words", "--length", "15", "--start", "1")
    assert (code, out) == (1, "")
    assert err == "error: word length 15 exceeds enumeration cap 14\n"
    code, _, err = run_cli(
        capsys, "words", "--length", "5", "--start", "1", "--cap", "4"
    )
    assert code == 1 and "cap 4" in err


def test_only_the_cap_error_of_the_runtime_errors_is_caught(capsys, monkeypatch):
    # The cap error is refused as bad input is: it is a ValueError, and
    # main catches ValueError.  Any other error inside a command is a bug
    # and propagates: ArithmeticError is what formulas._exact_div raises
    # on a transcription bug.
    code, out, err = run_cli(capsys, "words", "--length", "15", "--start", "1")
    assert (code, out, err) == (
        1, "", "error: word length 15 exceeds enumeration cap 14\n")
    for error in (RuntimeError, KeyError, ArithmeticError):
        def broken(*args, error=error):
            raise error("not a cap")

        monkeypatch.setattr(cli.dp, "bounded_pair_count", broken)
        with pytest.raises(error, match="not a cap"):
            cli.main(["count", "-m", "2", "-n", "3", "--from-col", "1",
                      "--from-row", "1", "--to-col", "3", "--to-row", "1"])
        assert capsys.readouterr() == ("", "")


def test_words_cap_env_var(capsys):
    # --cap is the one way to set the enumeration cap.
    code, out, _ = run_cli(
        capsys, "words", "--length", "3", "--start", "1", "--cap", "5",
        "--net", "3",
    )
    assert code == 0 and out.splitlines() == ["uuu 1234"]


def test_words_net_filter(capsys):
    code, out, _ = run_cli(capsys, "words", "--length", "2", "--net", "0")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["ud", "rr", "du"]


def test_words_deep_word_prints_without_recursion_error(capsys):
    # 1,200 letters is past Python's default recursion limit.
    code, out, err = run_cli(
        capsys, "words", "--length", "1200", "--cap", "2000", "--start", "1",
        "--net", "1200",
    )
    trace = ",".join(str(r) for r in range(1, 1202))
    assert (code, out, err) == (0, "u" * 1200 + " " + trace + "\n", "")


@pytest.mark.parametrize("argv,message", [
    (("--length", "2", "-n", "5", "--start", "1"), "--length conflicts with --cols"),
    (("-m", "3", "--floor", "1", "--length", "2"),
     "--rows conflicts with --floor/--ceiling"),
    (("--length", "2", "--floor", "3"),
     "row 1, the default --start, lies outside --floor/--ceiling"),
    (("--length", "2", "--ceiling", "0", "--format", "json"),
     "row 1, the default --start, lies outside --floor/--ceiling"),
    (("--start", "1"), "either --length or --cols is required"),
], ids=["length-cols", "rows-floor", "floor-above-row-1", "ceiling-below-row-1",
        "no-length-or-cols"])
def test_words_conflicting_options_exit_one(capsys, argv, message):
    code, out, err = run_cli(capsys, "words", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [
            sys.executable, "-m", "tablepaths", "count",
            "-m", "2", "-n", "3",
            "--from-col", "1", "--from-row", "1",
            "--to-col", "3", "--to-row", "1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


def _run_child(argv, timeout, memory_limited=False):
    """Run the CLI as a child process; ``memory_limited`` caps the child's
    address space (RLIMIT_AS, set in the child only) at 1 GB."""
    preexec = None
    if memory_limited:
        resource = pytest.importorskip("resource")
        gigabyte = 1 << 30

        def preexec():
            resource.setrlimit(resource.RLIMIT_AS, (gigabyte, gigabyte))

    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "tablepaths", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=preexec, env=dict(os.environ, PYTHONPATH=src))


def test_count_at_a_huge_height_stays_small():
    # The strip is cut to the rows a one-step walk reaches, so a height of
    # 10^10 needs no more memory than a height of 2.
    argv = ["count", "-m", "10000000000", "-n", "2", "--from-col", "1",
            "--from-row", "1", "--to-col", "2", "--to-row", "2"]
    proc = _run_child(argv, timeout=60, memory_limited=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_count_at_height_one_needs_no_walk():
    # One row admits only flat steps, so a span of 10^11 answers at once.
    span = "100000000001"
    argv = ["count", "-m", "1", "-n", span, "--from-col", "1", "--from-row",
            "1", "--to-col", span, "--to-row", "1"]
    proc = _run_child(argv, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


HUGE = "100000000000000000000"  # 10^20, past any index-sized integer


@pytest.mark.parametrize(
    "argv, memory_limited",
    [
        (["table", "--kind", "d1", "-m", HUGE, "-n", "1"], False),
        (["sequence", "--target", "d1-bottom-row", "-m", HUGE, "--max-n", "1"],
         False),
        (["words", "--length", HUGE, "--start", "1", "--cap", HUGE], False),
        (["table", "--kind", "d1", "-m", "1000000000", "-n", "1"], True),
        (["sequence", "--target", "imn-fixed-m", "-m", "3",
          "--max-n", "100000000000"], True),
        (["table", "--kind", "d1", "-m", "1", "-n", "100000000000",
          "--format", "csv"], False),
        (["count", "-m", "3", "-n", "100000000000", "--from-col", "1",
          "--from-row", "1", "--to-col", "100000000000", "--to-row", "1"], True),
    ],
    ids=["table-overflow", "sequence-overflow", "words-overflow",
         "table-out-of-memory", "sequence-over-budget", "table-over-budget",
         "count-over-budget"],
)
def test_huge_sizes_end_in_one_error_line(argv, memory_limited):
    # A table, sequence or count past the work budget is refused before
    # any allocation, the 10^20 sizes among them; a word length past an
    # index-sized integer raises OverflowError, and a 10^9-row column
    # still fits the budget but not the address space, so it raises
    # MemoryError.  Each ends in one line.  The over-budget sequence ran
    # out of memory after 6.5 s when it kept its values, the 10^11-
    # column csv table streamed without end, and the count was still
    # running after 5 s.
    proc = _run_child(argv, timeout=60, memory_limited=memory_limited)
    assert (proc.returncode, proc.stdout) == (1, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_work_budget_admits_every_benchmark_size_and_refuses_endless_ones():
    # The largest table-render request and the largest long-span
    # sequences fit the budget many times over, and so does a 1-row
    # sequence of 3,000,000 values, whose values are all 1; the two
    # requests that ran without end or until memory ran out do not.
    for rows, cols in [(1000, 1000), (16, 6000), (4, 12000), (1, 3000000)]:
        cli._check_work(TableDims(rows, cols))
    # Every markdown table a test, a CI pin or a benchmark request prints
    # fits with its text, and so do d1 1000 x 1000 and the 1,000,000-column
    # one-row table, whose RSS peaks are 128 MB and 245 MB; a start-row
    # column 1 keeps one value, however tall the table.
    sizes = [(500, 500), (400, 400), (300, 700), (300, 300), (600, 200),
             (200, 200), (2, 2200), (1000, 1000), (1, 1000000)]
    for kind in cli.TABLE_KINDS:
        for rows, cols in sizes + [(m, n) for m in range(1, 21) for n in range(1, 61)]:
            cli._check_work(TableDims(rows, cols), kind)
    cli._check_work(TableDims(1000000000, 1), "d1")
    for rows, cols in [(1, 100000000000), (3, 100000000000)]:
        with pytest.raises(ValueError, match=r"past the work budget of 10\^13$"):
            cli._check_work(TableDims(rows, cols))


@pytest.mark.parametrize("argv", [
    ("table", "--kind", "h", "-m", HUGE, "-n", "3"),
    ("sequence", "--target", "d1-bottom-row", "-m", "2" * 4000, "--max-n", "1"),
])
def test_budget_refusal_comes_before_any_write(capsys, argv):
    # The budget is checked from the arguments, before the first column
    # is allocated, so even a 4,000-digit size is refused at once, with
    # one line naming the budget.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: a ") and err.endswith(
        "past the work budget of 10^13\n") and err.count("\n") == 1


def _refused_by_the_budget(code, out, err):
    return (code, out) == (1, "") and err.startswith("error: a ") and err.endswith(
        "past the work budget of 10^13\n") and err.count("\n") == 1


def _no_call(*args, **kwargs):
    raise AssertionError("work started")


@pytest.mark.parametrize("kind, rows, cols", [
    ("h", 3, 300000), ("d", 10000, 10000), ("d1", 1, 10000000),
])
def test_markdown_text_past_the_budget_is_refused_before_any_march(
        capsys, monkeypatch, kind, rows, cols):
    # Markdown keeps its text until its rows are written: h 3 x 300,000
    # keeps values of about 180,000 digits and grew to 7.6 GB before it
    # was killed, and 10^7 one-digit columns keep about 230 bytes each.
    # Their marches fit the budget; the text they keep does not, and the
    # refusal comes before any column is asked for.
    cli._check_work(TableDims(rows, cols))
    monkeypatch.setattr(cli.dp, "columns", _no_call)
    code, out, err = run_cli(capsys, "table", "--kind", kind, "-m", str(rows),
                             "-n", str(cols), "--format", "markdown")
    assert _refused_by_the_budget(code, out, err), err
    assert f"a {rows} x {cols} markdown table needs" in err


def _count_argv(rows, span, r0, r1):
    return ("count", "-m", str(rows), "-n", str(span + 1), "--from-col", "1",
            "--from-row", str(r0), "--to-col", str(span + 1), "--to-row", str(r1))


def test_count_budget_admits_every_long_span_size(capsys, monkeypatch):
    # The long-span benchmark's counts, (8, 60000) among them, are priced
    # as marches over their strips and fit; the kernel is stubbed, as only
    # the price is under test.
    monkeypatch.setattr(cli.dp, "bounded_pair_count", lambda *args: 7)
    spans = [(8, 60000), (4, 20000), (6, 12000), (16, 7999), (12, 4999),
             (10, 5999), (5, 3999), (14, 2999), (2, 2199), (1, 10**11)]
    for rows, span in spans:
        for r0, r1 in ((1, 1), (1, rows), (rows, 1)):
            assert run_cli(capsys, *_count_argv(rows, span, r0, r1)) == (0, "7\n", "")


@pytest.mark.parametrize("rows", [2, 3, 16])
def test_count_past_the_budget_is_refused_before_the_walk(capsys, monkeypatch, rows):
    # 10^11 steps in a strip of two or more rows: the two-row shortcut
    # would allocate 2^(10^11 - 2), and the cycle kernel ran for minutes.
    monkeypatch.setattr(cli.dp, "bounded_pair_count", _no_call)
    code, out, err = run_cli(capsys, *_count_argv(rows, 10**11, 1, 1))
    assert _refused_by_the_budget(code, out, err), err
    assert f"a {rows} x {10**11 + 1} march needs" in err


def _traced_peak(*argv):
    """The traced memory peak, in bytes, of one CLI run written to devnull."""
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        gc.collect()
        tracemalloc.start()
        try:
            assert cli.main(list(argv)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_long_sequence_is_written_as_it_is_marched():
    # The values stream through writes of about cli.WRITE_BYTES, so the
    # longest long-span sequence (12,000 values up to 5,015 digits) holds
    # one write at a time: about 0.6 MiB of traced peak.  Kept whole it
    # peaked at about 16 MiB, and in writes of 256 values at 2.6 MiB.
    peak = _traced_peak("sequence", "--target", "d1-bottom-row", "-m", "4",
                        "--max-n", "12000")
    assert peak < 1 << 20, peak


def test_markdown_keeps_each_column_as_one_buffer():
    # Markdown keeps every column until its rows are printed, as one
    # buffer of its texts' bytes per column: about 7.4 MiB of traced peak
    # for d1 400 x 400, where one str per cell peaked at 12.2 MiB.
    peak = _traced_peak("table", "--kind", "d1", "-m", "400", "-n", "400")
    assert peak < 9 << 20, peak


def test_footer_keeps_no_column_of_values():
    # Each footer entry is summed as its column's buffer is made, so the
    # footer costs about nothing over the buffers markdown keeps anyway;
    # keeping the whole Decimal table for it nearly doubled the peak.
    argv = ("table", "--kind", "d1", "-m", "200", "-n", "200")
    assert _traced_peak(*argv, "--hss-footer") < 1.1 * _traced_peak(*argv)


def test_package_root_loads_no_module_and_script_entry_runs():
    # The package root exports only __version__; cli.main is the
    # [project.scripts] entry point, run here as the installed script does.
    code = (
        "import sys, tablepaths\n"
        "print(sorted(m for m in sys.modules if m.startswith('tablepaths.')))\n"
        "from tablepaths.cli import main\n"
        "print(repr(main(['--help'])), file=sys.stderr)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "0\n")
    assert proc.stdout.startswith("[]\nusage: tablepaths ")


OPTION_SURFACE = {
    "table": [("--kind",), ("-m", "--rows"), ("-n", "--cols"), ("--format",),
              ("--hss-footer",)],
    "count": [("-m", "--rows"), ("-n", "--cols"), ("--from-col",), ("--from-row",),
              ("--to-col",), ("--to-row",)],
    "sequence": [("--target",), ("-m", "--rows"), ("--max-n",), ("--format",)],
    "verify": [("--identity",), ("--max-m",), ("--max-n",), ("--max-s",),
               ("--max-y",), ("--max-k",), ("--format",)],
    "words": [("--length",), ("-m", "--rows"), ("-n", "--cols"), ("--start",),
              ("--end",), ("--net",), ("--floor",), ("--ceiling",), ("--alphabet",),
              ("--cap",), ("--format",)],
}


def test_option_surface_is_pinned():
    # Adding a knob means editing this literal: 33 options and no
    # environment variable.
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    surface = {
        name: [tuple(a.option_strings) for a in p._actions if a.dest != "help"]
        for name, p in sub.choices.items()
    }
    assert surface == OPTION_SURFACE
    assert sum(map(len, surface.values())) == 33
    formats = {name: next(a.choices for a in p._actions if a.dest == "format")
               for name, p in sub.choices.items() if name != "count"}
    assert formats == {
        "table": ("csv", "json", "markdown"),
        "sequence": ("plain", "csv", "json"),
        "verify": ("csv", "json", "markdown"),
        "words": ("plain", "csv", "json"),
    }
    # No module reads the environment.
    texts = {p.name: p.read_text() for p in Path(cli.__file__).parent.glob("*.py")}
    assert {name: text.count("environ") for name, text in texts.items()
            if "environ" in text} == {}


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_help_prints_no_design_notes(capsys):
    # --help is for users: a short summary, not the cli module's notes on
    # how it streams, joins and batches its output.
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tablepaths ")
    assert [word for word in ("decimal", "batch", "join") if word in out.lower()] == []


# -- streamed output against the whole-string renderers it replaced ----------


def _joined_csv(matrix):
    lines = ["s,t,value"]
    lines += [f"{s},{t},{v}" for s, t, v in _entries(matrix)]
    return "\n".join(lines) + "\n"


def _dumped_json(matrix, kind):
    payload = {
        "dims": {"rows": matrix.dims.rows, "cols": matrix.dims.cols},
        "kind": kind,
        "entries": [[s, t, str(v)] for s, t, v in _entries(matrix)],
    }
    return json.dumps(payload, indent=2) + "\n"


def _joined_markdown(matrix, kind, footer=None):
    blank_wedge = kind in ("d1", "a")
    cols = matrix.dims.cols
    lines = ["| t\\s | " + " | ".join(str(s) for s in range(1, cols + 1)) + " |"]
    lines.append("|" + " --- |" * (cols + 1))
    for t in range(matrix.dims.rows, 0, -1):
        cells = ["" if blank_wedge and t > s else str(matrix.get(s, t))
                 for s in range(1, cols + 1)]
        lines.append(f"| {t} | " + " | ".join(cells) + " |")
    if footer is not None:
        lines.append("| H(s,s) | " + " | ".join(str(v) for v in footer) + " |")
    return "\n".join(lines) + "\n"


def _streamed(render, matrix, *args):
    out = io.StringIO()
    assert render(out, matrix.dims, iter(table_columns(matrix)), *args) is None
    return out.getvalue()


# (1, 300) and (3, 200) have many short columns, which share writes.
@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 6), (6, 1), (8, 8), (3, 9), (9, 3),
                                       (2, 2), (2, 7), (7, 2), (1, 300), (3, 200)])
def test_streamed_tables_match_joined_renderers(rows, cols):
    dims = TableDims(rows, cols)
    tables = {"d1": di_table(dims, 1), "d": d_table(dims), "h": h_table(dims)}
    if rows == cols:
        tables["a"] = a_table(cols)
    for kind, matrix in tables.items():
        assert _streamed(cli.render_table_csv, matrix) == _joined_csv(matrix)
        assert _streamed(cli.render_table_json, matrix, kind) == _dumped_json(
            matrix, kind
        )
        assert _streamed(cli.render_table_markdown, matrix, kind) == (
            _joined_markdown(matrix, kind)
        )
    footer = hss_values(table_columns(tables["d1"]))
    assert _streamed(cli.render_table_markdown, tables["d1"], "d1", True) == (
        _joined_markdown(tables["d1"], "d1", footer)
    )


def _table_text(kind, rows, cols, fmt, footer=False):
    """The reference text of a ``table`` request, rendered whole from
    ``dp.build``'s int table with the digit limit lifted."""
    family, *start = cli.TABLE_KINDS[kind]
    matrix = dp.build(family, rows, cols, *start)
    with int_digit_limit(0):
        if fmt == "csv":
            return _joined_csv(matrix)
        if fmt == "json":
            return _dumped_json(matrix, kind)
        return _joined_markdown(matrix, kind,
                                hss_values(table_columns(matrix)) if footer else None)


# Shapes whose start-row columns stop short of the top row ((9, 4) and
# (6, 6)), reach it just then ((2, 3)), or have one row or one column.
SHORT_COLUMN_SHAPES = [(9, 4), (6, 6), (1, 5), (2, 3), (5, 1)]


def _short_column_cases():
    for rows, cols in SHORT_COLUMN_SHAPES:
        for kind in cli.TABLE_KINDS:
            if kind == "a" and rows != cols:  # a square family
                continue
            for fmt in ("csv", "json", "markdown"):
                yield pytest.param(kind, rows, cols, fmt, False,
                                   id=f"{kind}-{rows}x{cols}-{fmt}")
        yield pytest.param("d1", rows, cols, "markdown", True,
                           id=f"d1-{rows}x{cols}-markdown-footer")


@pytest.mark.parametrize("kind, rows, cols, fmt, footer", _short_column_cases())
def test_table_prints_short_columns_as_the_reference(capsys, kind, rows, cols,
                                                      fmt, footer):
    # The march keeps a short column's rows above the band as one entry;
    # every kind and format must still print each row of the whole table.
    argv = ["table", "--kind", kind, "-m", str(rows), "-n", str(cols),
            "--format", fmt] + ["--hss-footer"] * footer
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == _table_text(kind, rows, cols, fmt, footer)


def format_trace(trace):
    """Digit string like 121 when unambiguous, comma-joined otherwise: the
    reference for the trace text that ``words`` prints."""
    if all(0 <= r <= 9 for r in trace):
        return "".join(str(r) for r in trace)
    return ",".join(str(r) for r in trace)


def _joined_words(words, fmt):
    if fmt == "json":
        payload = {"words": [
            {"letters": w.letters, "start_row": w.start_row,
             "trace": list(row_trace(w))}
            for w in words
        ]}
        return json.dumps(payload, indent=2) + "\n"
    lines = [(w.letters or "ε", format_trace(row_trace(w))) for w in words]
    if fmt == "csv":
        out = ["word,trace"] + [f"{a},{b}" for a, b in lines]
    else:
        out = [f"{a} {b}" for a, b in lines]
    return "\n".join(out) + "\n" if out else ""


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize(
    "argv,filt",
    [
        (("--length", "0", "--start", "1"), {"start_row": 1}),
        (("--length", "0", "-m", "3"), {"floor": 1, "ceiling": 3}),
        (("--length", "4", "--start", "1", "--end", "9"),
         {"start_row": 1, "end_row": 9}),
        (("--length", "3", "--start", "-1", "--alphabet", "ud"),
         {"start_row": -1, "alphabet": "ud"}),
        (("--length", "5", "-m", "3", "--net", "1"),
         {"floor": 1, "ceiling": 3, "net_displacement": 1}),
        # Traces that leave 0..9: only at the last letter, from a start
        # row above 9, below 0, and a one-row two-digit trace.
        (("--length", "3", "--start", "8"), {"start_row": 8}),
        (("--length", "2", "--start", "10", "--alphabet", "ud"),
         {"start_row": 10, "alphabet": "ud"}),
        (("--length", "4", "--start", "1", "--net", "-3"),
         {"start_row": 1, "net_displacement": -3}),
        (("--length", "0", "--start", "12"), {"start_row": 12}),
    ],
)
def test_streamed_words_match_joined_output(capsys, argv, filt, fmt):
    words = list(oracle.enumerate_words(int(argv[1]), oracle.WordFilter(**filt)))
    code, out, err = run_cli(capsys, "words", *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _joined_words(words, fmt)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_words_stream_in_batches(capsys, fmt):
    # 3^9 words span several writes.
    code, out, _ = run_cli(
        capsys, "words", "--length", "9", "--start", "1", "--format", fmt
    )
    words = list(oracle.enumerate_words(9, oracle.WordFilter(start_row=1)))
    assert len(out) > 4 * cli.WRITE_BYTES
    assert code == 0 and out == _joined_words(words, fmt)


def _joined_sequence(target, rows, values, fmt):
    pairs = list(enumerate(values, start=1))
    if fmt == "json":
        payload = {"target": target, "rows": rows,
                   "values": [[n, str(v)] for n, v in pairs]}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return "\n".join(["n,value"] + [f"{n},{v}" for n, v in pairs]) + "\n"
    return "\n".join(str(v) for _, v in pairs) + "\n"


@pytest.mark.parametrize("fmt", ["plain", "csv", "json", "markdown"])
@pytest.mark.parametrize("target,rows,max_n", [
    ("imn-fixed-m", 1, 1),
    # Many writes: 2-byte plain lines span 4 * cli.WRITE_BYTES.
    ("imn-fixed-m", 1, 2 * cli.WRITE_BYTES + 5),
    ("d1-bottom-row", 3, 50),
])
def test_streamed_sequence_matches_joined_output(capsys, fmt, target, rows, max_n):
    build = imn_sequence if target == "imn-fixed-m" else d1_bottom_row
    code, out, err = run_cli(capsys, "sequence", "--target", target, "-m",
                             str(rows), "--max-n", str(max_n), "--format", fmt)
    if fmt == "markdown":  # a list has no markdown form
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --format: invalid choice")
        assert err.count("\n") == 1
        return
    assert (code, err) == (0, "")
    assert out == _joined_sequence(target, rows, build(rows, max_n), fmt)


class _Writes(io.StringIO):
    """A stdout that keeps every write it receives, and its length."""

    def __init__(self):
        super().__init__()
        self.sizes, self.texts = [], []

    def write(self, text):
        self.sizes.append(len(text))
        self.texts.append(text)
        return super().write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("fmt", cli.LIST_FORMATS)
@pytest.mark.parametrize("argv", [
    ("sequence", "--target", "d1-bottom-row", "-m", "4", "--max-n", "4000"),
    ("sequence", "--target", "imn-fixed-m", "-m", "8", "--max-n", "3000"),
    ("words", "--length", "10", "--start", "1"),
], ids=["d1-bottom-row", "imn-fixed-m", "words"])
def test_list_writes_are_sized_by_bytes(monkeypatch, argv, fmt):
    # Values up to 1,671 digits, and json words of about 200 bytes, go out
    # in writes of about cli.WRITE_BYTES, not of a fixed count of items.
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    code = cli.main([*argv, "--format", fmt])
    monkeypatch.undo()
    assert code == 0 and max(out.sizes) <= 2 * cli.WRITE_BYTES, max(out.sizes)
    if argv[0] == "words":
        want = _joined_words(oracle.enumerate_words(
            10, oracle.WordFilter(start_row=1)), fmt)
    else:
        target, rows, max_n = argv[2], int(argv[4]), int(argv[6])
        build = imn_sequence if target == "imn-fixed-m" else d1_bottom_row
        with int_digit_limit(0):
            want = _joined_sequence(target, rows, build(rows, max_n), fmt)
    assert out.getvalue() == want


# The columns or rows a write of a table holds: csv and json count the
# row-1 entries, each of which starts a column; markdown counts lines.
TABLE_ITEMS = {
    "csv": lambda text: sum(line.split(",")[1:2] == ["1"]
                            for line in text.splitlines()),
    "json": lambda text: text.count('\n      1,\n      "'),
    "markdown": lambda text: text.count("\n"),
}


@pytest.mark.parametrize("kind, rows, cols, fmt", [
    ("d1", 3, 3000, "csv"), ("d1", 3, 3000, "json"), ("h", 40, 40, "markdown"),
])
def test_table_writes_are_sized_by_bytes(monkeypatch, kind, rows, cols, fmt):
    # Tables go through the list writer too: a write holds about
    # cli.WRITE_BYTES of columns or rows, so 3,000 columns of up to 2.7 KB
    # go out in under 300 writes, not in one write each.  Only a single
    # column or row may make a write longer than 2 * cli.WRITE_BYTES.
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    code = cli.main(["table", "--kind", kind, "-m", str(rows), "-n", str(cols),
                     "--format", fmt])
    monkeypatch.undo()
    assert code == 0
    long = [text for text in out.texts if len(text) > 2 * cli.WRITE_BYTES]
    assert [TABLE_ITEMS[fmt](text) for text in long] == [1] * len(long)
    if cols == 3000:
        assert len(out.texts) < 300, len(out.texts)
    assert out.getvalue() == _table_text(kind, rows, cols, fmt)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_words_errors_leave_stdout_empty(capsys, fmt):
    code, out, err = run_cli(
        capsys, "words", "--length", "5", "--start", "1", "--cap", "4",
        "--format", fmt,
    )
    assert (code, out) == (1, "") and err.count("\n") == 1


@contextmanager
def int_digit_limit(limit):
    """Run the body under the int->str digit limit ``limit`` (0 lifts it)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt, footer", [("csv", False), ("json", False),
                                         ("markdown", False), ("markdown", True)],
                         ids=["csv", "json", "markdown", "markdown-footer"])
def test_table_past_the_digit_limit_prints_exact_values(capsys, fmt, footer):
    # Two rows from row 1: column s holds 2^(s-2) twice, and the footer
    # entry at s is their sum 2^(s-1).  At 2,200 columns both pass the
    # lowest int->str digit limit Python allows; tables print from
    # Decimals, which the limit does not meet.
    limit = sys.int_info.str_digits_check_threshold
    assert len(str(2 ** 2198)) > limit
    argv = ["table", "--kind", "d1", "-m", "2", "-n", "2200", "--format", fmt]
    with int_digit_limit(limit):
        code, out, err = run_cli(capsys, *argv, *["--hss-footer"] * footer)
    assert (code, err) == (0, "")
    assert out == _table_text("d1", 2, 2200, fmt, footer)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_sequence_past_the_digit_limit_prints_exact_values(capsys, fmt):
    # The D1 bottom row at height 4 passes 640 digits long before n = 4000;
    # sequences print from Decimals, which the int->str limit does not meet.
    with int_digit_limit(sys.int_info.str_digits_check_threshold):
        code, out, err = run_cli(capsys, "sequence", "--target", "d1-bottom-row",
                                 "-m", "4", "--max-n", "4000", "--format", fmt)
    assert (code, err) == (0, "")
    with int_digit_limit(0):
        assert out == _joined_sequence("d1-bottom-row", 4, d1_bottom_row(4, 4000),
                                       fmt)


@pytest.mark.parametrize("command", [
    # Two rows from row 1: the value at column n is 2^(n-2), 662 digits
    # at n = 2200.
    ["count", "-m", "2", "-n", "2200", "--from-col", "1", "--from-row", "1",
     "--to-col", "2200", "--to-row", "1"],
], ids=["count"])
def test_digit_limit_refusal_is_the_clis_own_message(capsys, command):
    # The message names the limit in the same words on every interpreter,
    # rather than passing on CPython's own text.
    limit = sys.int_info.str_digits_check_threshold
    with int_digit_limit(limit):
        code, out, err = run_cli(capsys, *command)
    assert (code, out) == (1, "")
    assert err == (f"error: a value has more than {limit} decimal digits, "
                   "past the int->str conversion limit\n")


WATCHED_MODULES = ("tablepaths.verify", "tablepaths.formulas", "tablepaths.oracle",
                   "json", "decimal", "dataclasses", "inspect")
TABLE_ARGV = ["table", "--kind", "d1", "-m", "2", "-n", "3"]


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], []),
    (["count", "-m", "2", "-n", "3", "--from-col", "1", "--from-row", "1",
      "--to-col", "3", "--to-row", "1"], []),
    (TABLE_ARGV, ["decimal"]),
    (TABLE_ARGV + ["--format", "csv"], ["decimal"]),
    (TABLE_ARGV + ["--format", "json"], ["decimal"]),
    (["sequence", "--target", "imn-fixed-m", "-m", "2", "--max-n", "3"], ["decimal"]),
    (["words", "--length", "3", "--start", "1"], ["tablepaths.oracle"]),
    (["verify", "--identity", "CATALAN-EDGE"],
     ["tablepaths.formulas", "tablepaths.verify"]),
    (["verify", "--identity", "CATALAN-EDGE", "--format", "json"],
     ["json", "tablepaths.formulas", "tablepaths.verify"]),
], ids=["help", "count", "table-markdown", "table-csv", "table-json", "sequence",
        "words", "verify-markdown", "verify-json"])
def test_each_command_loads_only_what_it_runs(argv, loaded):
    # A fresh interpreter without site runs one command; of the watched
    # modules it may load only those it uses.  No command loads
    # dataclasses: the package's value types are plain slotted classes.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import os, sys\n"
        "from tablepaths.cli import main\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        f"code = main({argv!r})\n"
        f"print(code, sorted(m for m in {WATCHED_MODULES!r} if m in sys.modules),"
        " file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, f"0 {loaded!r}\n")


def test_footer_misuse_is_rejected_before_the_table_is_built(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(cli.dp, "d_table", no_build)
    monkeypatch.setattr(cli.dp, "di_table", no_build)
    code, out, err = run_cli(capsys, "table", "--kind", "d", "-m", "5", "-n",
                             "10", "--hss-footer")
    assert (code, out) == (1, "") and "--hss-footer" in err
    code, out, err = run_cli(capsys, "table", "--kind", "d1", "-m", "5", "-n",
                             "10", "--hss-footer", "--format", "json")
    assert (code, out) == (1, "") and "--hss-footer" in err


def test_footer_builds_the_start_row_one_table_once(capsys, monkeypatch):
    marches, real = [], dp.columns

    def counted(*args, **kwargs):
        marches.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.dp, "columns", counted)
    code, _, _ = run_cli(capsys, "table", "--kind", "d1", "-m", "5", "-n", "10",
                         "--hss-footer")
    assert code == 0 and marches == [("di_table", 5, 10, 1)]


@pytest.mark.parametrize("argv", [
    ("table", "--kind", "d1", "-m", "300", "-n", "300", "--format", "csv"),
    ("table", "--kind", "d", "-m", "200", "-n", "200", "--format", "json"),
    ("table", "--kind", "d1", "-m", "300", "-n", "300"),
    ("words", "--length", "10", "--start", "1"),
    # Its writes run inside the exact Decimal context.
    ("sequence", "--target", "d1-bottom-row", "-m", "4", "--max-n", "12000"),
])
def test_closed_pipe_exits_one_without_traceback(argv):
    # The output is far larger than a pipe buffer, so the CLI is still
    # writing when the reader goes away after 10 bytes.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "tablepaths", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1
