import json
import subprocess
import sys

import pytest

from golden_tables import FIGURE1_ROW_WORDS, MOTZKIN
from tablepaths import cli
from tablepaths.core import TableDims
from tablepaths.dp import a_table, d_table, di_table, h_table


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


def test_table_csv_golden_line(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "a", "-m", "8", "-n", "8", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,t,value"
    assert "8,2,14" in lines


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
        assert cli.parse_table_csv(out) == build()


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "a", "-m", "6", "-n", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "a"
    assert payload["dims"] == {"rows": 6, "cols": 6}
    assert all(isinstance(v, str) for _, _, v in payload["entries"])
    assert cli.parse_table_json(out) == a_table(6)


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
    code, _, err = run_cli(capsys, "table", "--kind", "a", "-m", "5", "-n", "10")
    assert code == 1 and "square" in err


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


def test_verify_all_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_as_expected"] is True
    assert len(payload["reports"]) == 15


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
    code, _, err = run_cli(capsys, "words", "--length", "15", "--start", "1")
    assert code == 1 and "cap 14" in err
    code, _, err = run_cli(
        capsys, "words", "--length", "5", "--start", "1", "--cap", "4"
    )
    assert code == 1 and "cap 4" in err


def test_words_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "2")
    code, _, err = run_cli(capsys, "words", "--length", "3", "--start", "1")
    assert code == 1 and "cap 2" in err
    # Flag wins over the environment.
    code, out, _ = run_cli(
        capsys, "words", "--length", "3", "--start", "1", "--cap", "5",
        "--net", "3",
    )
    assert code == 0 and out.splitlines() == ["uuu 1234"]


def test_words_net_filter(capsys):
    code, out, _ = run_cli(capsys, "words", "--length", "2", "--net", "0")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["ud", "rr", "du"]


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


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
