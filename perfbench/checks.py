"""Expected outputs, computed without the code path under test.

* ``count`` and ``sequence`` requests are checked against transfer-matrix
  powering written here: one column step is v -> vM with M the m x m
  band matrix of ones, so a pair count is an entry of M^L.  Sequences
  are extended by the recurrence of M's characteristic polynomial and
  their last value is checked against powering.
* Small tables are checked cell by cell against counts tallied from the
  package's brute-force oracle, which never calls the engine.
* Everything else is checked against digests recorded from the seed
  commit by ``record_digests.py``: the raw stdout of tables and word
  lists, and the verdict rows of ``verify`` (so that extra timing fields
  in later versions of the JSON output do not count as wrong).

Expected values are built once per run, before any request is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import workloads

DIGESTS_PATH = Path(__file__).with_name("digests.json")


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int<->str digit limit for the benchmark's own conversions.

    The program under test always runs with the interpreter default.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Transfer matrices
# ---------------------------------------------------------------------------


def band_matrix(m: int) -> list[list[int]]:
    return [[1 if abs(i - j) <= 1 else 0 for j in range(m)] for i in range(m)]


def _square(a: list[list[int]]) -> list[list[int]]:
    """a @ a for a symmetric, persymmetric matrix (every power of the band
    matrix is both), computing a quarter of the entries."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n - i):
            v = sum(x * y for x, y in zip(a[i], a[j]))
            out[i][j] = out[j][i] = v
            out[n - 1 - i][n - 1 - j] = out[n - 1 - j][n - 1 - i] = v
    return out


def band_power_row(m: int, row: int, e: int) -> list[int]:
    """Row ``row`` (0-based) of M^e by binary powering."""
    vec = [int(j == row) for j in range(m)]
    power = band_matrix(m)
    while e:
        if e & 1:
            vec = [sum(vec[k] * power[k][j] for k in range(m)) for j in range(m)]
        e >>= 1
        if e:
            power = _square(power)
    return vec


def charpoly(m: int) -> list[int]:
    """Coefficients c_0..c_m (c_m = 1) of det(xI - M) for the band matrix.

    Expanding along the last row gives p_k = (x - 1) p_{k-1} - p_{k-2}.
    """
    prev, cur = [1], [-1, 1]
    for _ in range(m - 1):
        shifted = [0] + cur
        nxt = [s - c for s, c in zip(shifted, cur + [0])]
        nxt = [v - p for v, p in zip(nxt, prev + [0] * (len(nxt) - len(prev)))]
        prev, cur = cur, nxt
    return cur


def sequence_values(target: str, m: int, length: int) -> list[int]:
    """a_n = u M^(n-1) v for n = 1..length, by the characteristic
    recurrence (Cayley-Hamilton), with the last value checked against
    powering."""
    matrix = band_matrix(m)
    if target == "imn-fixed-m":
        start, pick = [1] * m, sum
    else:
        start, pick = [1] + [0] * (m - 1), (lambda v: v[0])
    values, vec = [], start
    for _ in range(min(m, length)):
        values.append(pick(vec))
        vec = [sum(vec[i] * matrix[i][j] for i in range(m)) for j in range(m)]
    c = charpoly(m)
    for j in range(m, length):
        values.append(-sum(c[k] * values[j - m + k] for k in range(m)))
    rows = [band_power_row(m, i, length - 1) for i in range(m) if start[i]]
    if pick([sum(col) for col in zip(*rows)]) != values[-1]:
        raise AssertionError(f"recurrence disagrees with powering for {target}")
    return values


# ---------------------------------------------------------------------------
# Oracle tables
# ---------------------------------------------------------------------------


def oracle_table(kind: str, rows: int, cols: int) -> dict[tuple[int, int], int]:
    """Every cell of a small table, tallied from oracle word enumeration."""
    from tablepaths import oracle

    alphabet = "ud" if kind == "a" else "urd"
    starts = range(1, rows + 1) if kind == "d" else (1,)
    cells = {(s, t): 0 for s in range(1, cols + 1) for t in range(1, rows + 1)}
    for s in range(1, cols + 1):
        for start in starts:
            filt = oracle.WordFilter(alphabet=alphabet, start_row=start,
                                     floor=1, ceiling=rows)
            for w in oracle.enumerate_words(s - 1, filt, cap=cols):
                end = start + w.letters.count("u") - w.letters.count("d")
                cells[(s, end)] += 1
    if kind == "h":
        for s in range(1, cols + 1):
            for t in range(2, rows + 1):
                cells[(s, t)] += cells[(s, t - 1)]
    return cells


def parse_table(text: str, fmt: str, kind: str) -> dict[tuple[int, int], int]:
    """Cells of a rendered table; a blank markdown cell reads as 0 where
    the triangular families leave their unreachable wedge blank."""
    if fmt == "json":
        payload = json.loads(text)
        return {(s, t): int(v) for s, t, v in payload["entries"]}
    lines = text.splitlines()
    if fmt == "csv":
        if lines[0] != "s,t,value":
            raise ValueError("bad csv header")
        out = {}
        for line in lines[1:]:
            s, t, v = line.split(",")
            out[(int(s), int(t))] = int(v)
        return out
    out = {}
    for line in lines[2:]:
        fields = [f.strip() for f in line.strip().strip("|").split("|")]
        t = int(fields[0])
        for s, v in enumerate(fields[1:], start=1):
            if v == "" and kind in ("d1", "a") and t > s:
                v = "0"
            out[(s, t)] = int(v)
    return out


# ---------------------------------------------------------------------------
# Verify output
# ---------------------------------------------------------------------------


def verdict_rows(text: str, fmt: str) -> list[list[str]]:
    """(identity, expected, cases, failures, verdict, counterexample) rows."""
    if fmt == "json":
        rows = []
        for rep in json.loads(text)["reports"]:
            ce = rep["first_counterexample"]
            ce_text = "-" if ce is None else (
                ",".join(f"{k}={v}" for k, v in ce["params"].items())
                + f": lhs={ce['lhs']} rhs={ce['rhs']}"
            )
            rows.append([rep["identity"], rep["expected"],
                         str(rep["cases_checked"]), str(rep["failures"]),
                         rep["verdict"], ce_text])
        return rows
    rows = []
    for line in text.splitlines()[2:]:
        fields = [f.strip() for f in line.strip().strip("|").split("|")]
        rows.append(fields[:6])
    return rows


def request_format(req: workloads.Request, default: str = "markdown") -> str:
    argv = req.argv
    return argv[argv.index("--format") + 1] if "--format" in argv else default


def verdict_digest(text: str, fmt: str) -> str:
    return sha256_text(json.dumps(verdict_rows(text, fmt)))


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------


@dataclass
class Expected:
    """What one request must print.

    ``work`` is the request's work in its workload's unit.  ``matches``
    gets the stdout digest and, when ``keep_text`` is set, the text.
    """

    work: int
    keep_text: bool
    matches: Callable[[str, Optional[str]], bool]
    # Size of the answer in decimal digits, when known; answers above the
    # interpreter's int->str limit are expected to fail at the seed.
    digits: int = 0


def _arg(argv: tuple[str, ...], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _decimal_digits(v: int) -> int:
    with unlimited_int_digits():
        return len(str(v))


class MissingDigest(Exception):
    """A request has no expected output recorded in digests.json."""


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def _never_raises(check):
    """A malformed output is a mismatch, not a crash of the benchmark."""
    def matches(sha, text):
        try:
            return check(sha, text)
        except (ValueError, KeyError, IndexError, TypeError):
            return False
    return matches


def request_work(req: workloads.Request, digests: dict) -> int:
    """A request's work in its workload's unit: the recorded figure for
    digest-checked requests, else cells, columns marched or sequence
    steps read from the arguments."""
    argv = req.argv
    if req.check in (workloads.DIGEST, workloads.VERDICTS):
        if req.key not in digests:
            raise MissingDigest(f"no recorded output for {req.key!r}")
        return digests[req.key]["work"]
    if req.check == workloads.ORACLE_TABLE:
        return _arg(argv, "-m") * _arg(argv, "-n")
    if req.check == workloads.COUNT:
        return _arg(argv, "--to-col") - _arg(argv, "--from-col")
    if req.check == workloads.SEQUENCE:
        return _arg(argv, "--max-n") - 1
    raise ValueError(f"unknown check {req.check!r}")


def build_expectations(requests: list[workloads.Request],
                       digests: Optional[dict] = None) -> dict[str, Expected]:
    """One Expected per distinct request (``digests`` defaults to the
    contents of digests.json)."""
    if digests is None:
        digests = load_digests()
    out: dict[str, Expected] = {}
    for req in requests:
        if req.key in out:
            continue
        argv, work = req.argv, request_work(req, digests)
        if req.check == workloads.DIGEST:
            out[req.key] = Expected(
                work, False,
                lambda sha, _text, want=digests[req.key]["sha256"]: sha == want)
        elif req.check == workloads.VERDICTS:
            fmt = request_format(req)
            out[req.key] = Expected(
                work, True, _never_raises(
                    lambda _sha, text, want=digests[req.key]["verdicts"],
                    fmt=fmt: verdict_digest(text, fmt) == want))
        elif req.check == workloads.ORACLE_TABLE:
            kind, fmt = argv[argv.index("--kind") + 1], request_format(req)
            cells = oracle_table(kind, _arg(argv, "-m"), _arg(argv, "-n"))
            out[req.key] = Expected(work, True, _never_raises(
                lambda _sha, text, cells=cells, fmt=fmt, kind=kind:
                    parse_table(text, fmt, kind) == cells))
        elif req.check == workloads.COUNT:
            value = band_power_row(_arg(argv, "-m"), _arg(argv, "--from-row") - 1,
                                   work)[_arg(argv, "--to-row") - 1]
            out[req.key] = _count_expected(value, work)
        elif req.check == workloads.SEQUENCE:
            target = argv[argv.index("--target") + 1]
            m, length = _arg(argv, "-m"), _arg(argv, "--max-n")
            values = sequence_values(target, m, length)
            out[req.key] = _sequence_expected(
                values, target, m, request_format(req, "plain"))
    return out


def _count_expected(value: int, span: int) -> Expected:
    cache = {}

    def matches(_sha, text):
        if not cache:
            with unlimited_int_digits():
                cache["text"] = f"{value}\n"
        return text == cache["text"]

    return Expected(span, True, matches, _decimal_digits(value))


def _sequence_expected(values: list[int], target: str, m: int,
                       fmt: str) -> Expected:
    cache = {}

    def matches(_sha, text):
        if not cache:
            with unlimited_int_digits():
                cache["text"] = [str(v) for v in values]
        want = cache["text"]
        if fmt == "json":
            payload = json.loads(text)
            return (payload["target"] == target and payload["rows"] == m
                    and payload["values"] == [[n, v] for n, v in
                                              enumerate(want, start=1)])
        lines = text.splitlines()
        if fmt == "csv":
            return lines == ["n,value"] + [
                f"{n},{v}" for n, v in enumerate(want, start=1)]
        return lines == want

    return Expected(len(values) - 1, True, _never_raises(matches),
                    _decimal_digits(max(values)))
