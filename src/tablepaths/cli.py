"""Command line front end.

Subcommands: ``table`` renders a counting family, ``count`` evaluates
one pair count, ``sequence`` emits a sequence, ``verify`` drives the
identity suite and ``words`` lists matching lattice words; every form of
a ``verify`` report (json, markdown, csv) is rendered here.  A table is
streamed from ``dp.columns``, not built by ``dp.build``: csv and json
make each column's text in one join as it is marched, so each value's
text is copied once; markdown, which prints rows, keeps each column as
one buffer of its texts' ASCII bytes, a line per row, sums its footer
entry in the same pass, and joins each row's lines in C.  A short
column's last entry stands for every row above it: its text is made
once and repeated.  A sequence reduces each column of a table kind's
march to a value as its list's writes are formatted.  Nothing goes
through the memo ``dp.cached``, so no big table outlives its request.

Every request is a fresh process, so each command imports only what it
runs: all of them load ``dp`` and ``core``, ``table`` and ``sequence``
add ``decimal``, ``words`` adds ``oracle``, and ``verify`` adds
``verify`` and ``formulas``, plus ``json`` for its json report.

Exit codes: 0 success, 1 refusal or stdout closed early, 2
verification mismatch.  A refusal prints one ``error:`` line: it is a
``ValueError`` (bad usage, a ``table``, ``sequence`` or ``count`` past
the work budget ``WORK_BUDGET``, checked from the arguments before any
allocation, a word length past the ``--cap`` enumeration cap, a
``count`` value past the int->str digit limit), an ``OverflowError`` or
a ``MemoryError`` (a size too large to index or allocate).  Any other
exception is a bug and propagates.

All values are printed as decimal strings; tables print with the row
index decreasing downward so they can be compared against printed
references directly.  Tables and sequences print exact values of any
size: they are marched on exact Decimals, whose decimal string is
linear in its digits and meets no digit limit; only ``count`` meets it.
Every streamed output goes through one writer with one write policy: a
table's columns (a markdown table's rows), a sequence's values and
words are written about ``WRITE_BYTES`` at a time, however long each
one is, and one longer than that is written whole, alone.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import contextmanager
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from . import dp
from .core import Cell, TableDims

CAP_AXES = ("m", "n", "s", "y", "k")  # verify's default-domain axes, option order
FORMATS = ("csv", "json", "markdown")
LIST_FORMATS = ("plain", "csv", "json")  # sequence values and words
TABLE_KINDS = {"d1": ("di_table", 1), "d": ("d_table",), "a": ("a_table",),
               "h": ("h_table",)}  # kind -> dp's (family, *start row)
SEQUENCE_TARGETS = {"imn-fixed-m": ("d", sum),  # target -> (kind, column reducer)
                    "d1-bottom-row": ("d1", itemgetter(0))}
WRITE_BYTES = 1 << 16  # the bytes a streamed write aims at: one Linux pipe buffer
# The cost of a request (see ``_check_work``): d1 1000 x 1000 costs 9.0e9
# and takes about 0.55 s, and the budget admits at most about 45 minutes
# of march, a 1-row table of 1.4e9 columns, or 10^9 bytes of markdown.
WORK_BUDGET, TEXT_BYTE_COST = 10**13, 10**4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage, not argparse's 2
        raise ValueError(message)


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------


def _write_list(out: TextIO, fmt: str, items: Iterator, item, head: str = "",
                key: str = "", csv_header: str = "") -> None:
    """Write ``items`` to ``out``, each formatted by ``item`` as it is read:
    in json as the list ``key`` after the members ``head`` (rendered), byte
    for byte as ``json.dumps(obj, indent=2)`` writes it, whose pure-Python
    encoder is too slow for big tables; else back to back, under
    ``csv_header`` in csv.  Every streamed output, a table's columns or
    rows, a sequence's values or a list of words, goes out here.  The
    first write holds one item; each next one's count is sized from the
    last one's bytes per item to about ``WRITE_BYTES``, and at most
    doubles, so a run of short items cannot size a write to take in the
    long ones after it.  An item longer than that goes out whole, alone
    in its write.  Taking the first item before any write, and the
    opening with the first item's write, keeps errors off stdout."""
    opening, sep, gap = csv_header if fmt == "csv" else "", "", ""
    if fmt == "json":
        opening, sep, gap = "{\n" + head + f'  "{key}": [', ",\n", "\n"
    first = next(items, None)
    if first is not None:
        items = chain([first], items)
    size = 1
    while chunk := sep.join(map(item, islice(items, size))):
        out.write(opening + gap + chunk)
        opening, gap = "", sep
        size = min(2 * size, WRITE_BYTES * size // len(chunk) or 1)
        del chunk  # freed before the next chunk is made, not after
    if fmt == "json":  # the gap is still "\n" if no item was written
        out.write(opening + ("]\n}\n" if gap == "\n" else "\n  ]\n}\n"))
    elif opening:  # an empty csv list: its header alone
        out.write(opening)


@contextmanager
def _exact_columns(kind: str, rows: int, cols: int):
    """Yield the ``dp.columns`` of a ``TABLE_KINDS`` kind, marched on
    Decimals inside a context in which the march is exact: its precision
    and exponent range are the largest there are, and a rounding would
    raise.  A Decimal's ``str`` is linear in its digits and meets no
    int->str limit.  The columns must be read inside the context."""
    import decimal  # loaded only by table and sequence: the others print ints

    family, *start = TABLE_KINDS[kind]
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = (decimal.MAX_PREC, decimal.MAX_EMAX,
                                        decimal.MIN_EMIN)
        ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
        yield dp.columns(family, rows, cols, *start, one=decimal.Decimal(1))


def _decimal(value: int) -> str:
    """``count``'s answer in decimal, or a one-line error naming the
    int->str limit; tables and sequences print Decimals, which it does
    not meet."""
    try:
        return str(value)
    except ValueError:  # the int->str limit, in every supported Python
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a value has more than {limit} decimal digits, "
                         "past the int->str conversion limit") from None


def _check_work(dims: TableDims, markdown_kind: str = "") -> None:
    """Refuse a march over ``dims`` whose cost is past ``WORK_BUDGET``:
    its cells times the bits of its largest value, plus 7,000 per cell.
    The largest value is at most rows * 3^(cols-1) in every family, and
    2^(cols-1) per row at two rows and 1 at one, so under
    min(rows - 1, 2) * cols + rows.bit_length() bits.  The constant is
    the measured cost of a cell that carries almost no bits: a 1-row
    table's column takes about 1.9 us, close to 7,000 cell-bits at the
    3.6e9 cell-bits/s of d1 1000 x 1000.  A markdown table of
    ``markdown_kind`` also keeps its text, at ``TEXT_BYTE_COST`` a byte:
    per column, min(s, rows) values (``rows`` for d) and a stand-in or
    footer entry, each in its digits and a newline, and 250 bytes for
    the buffer and header (a 1-row table grows by about 230 a column)."""
    rows, cols = dims.rows, dims.cols
    bits = min(rows - 1, 2) * cols + rows.bit_length()
    cost = rows * cols * (bits + 7000)
    if markdown_kind:  # 0.30103 > log10(2)
        kept = (rows if markdown_kind == "d" else min(rows, cols)) + 1
        cost += TEXT_BYTE_COST * cols * (kept * (bits * 30103 // 100000 + 2) + 250)
    if cost > WORK_BUDGET:
        import math  # log10 sizes an int of any length; loaded only to refuse

        what = "markdown table" if markdown_kind else "march"
        raise ValueError(
            f"a {rows} x {cols} {what} needs about 10^{math.log10(cost):.1f} "
            f"cell-bits, past the work budget of 10^{math.log10(WORK_BUDGET):.0f}")


def _column_text(mids: list[str], end: str, lead: str, sep: str):
    """A function that makes the text of an ``(s, column)`` item in one
    join: row t's text is a prefix (``lead`` formatted with s for row 1,
    ``sep`` and that after it), ``mids[t-1]`` and the value's ``str``;
    ``end`` closes the column.  The piece list is made once, with
    ``mids`` and ``end`` in it, and each column assigns only its prefixes
    and values, so each value's text is copied once, by the join.  A
    short column's last entry stands for every row above it (see
    ``dp.columns``): its text is made once and repeated."""
    pieces = [""] * (3 * len(mids) + 1)
    pieces[1::3], pieces[-1] = mids, end
    blanks = pieces[2::3]

    def text(item) -> str:
        s, col = item
        first = lead.format(s)
        pieces[:-1:3] = [sep + first] * len(mids)
        pieces[0] = first
        texts = [*map(str, col)]
        pieces[2::3] = texts + texts[-1:] * (len(mids) - len(texts))
        joined = "".join(pieces)
        pieces[2::3] = blanks  # free the texts before the next column makes its own
        return joined

    return text


def render_table_csv(out: TextIO, dims: TableDims, columns: Iterable) -> None:
    """One join per column; the header goes out with column 1."""
    text = _column_text([f"{t}," for t in range(1, dims.rows + 1)], "\n", "{},", "\n")
    _write_list(out, "csv", enumerate(columns, start=1), text,
                csv_header="s,t,value\n")


def render_table_json(out: TextIO, dims: TableDims, columns: Iterable,
                      kind: str) -> None:
    """One join per column, of its entries, each [s, t, "value"]."""
    head = (f'  "dims": {{\n    "rows": {dims.rows},\n    "cols": {dims.cols}\n'
            f'  }},\n  "kind": "{kind}",\n')  # a TABLE_KINDS key: no escaping
    text = _column_text([f'{t},\n      "' for t in range(1, dims.rows + 1)],
                        '"\n    ]', "    [\n      {},\n      ", '"\n    ],\n')
    _write_list(out, "json", enumerate(columns, start=1), text, head, "entries")


def render_table_markdown(out: TextIO, dims: TableDims, columns: Iterable,
                          kind: str, footer: bool = False) -> None:
    """Rows are printed top row first, so every column is kept before the
    first write, as one ASCII buffer of its texts, top row first, one per
    line.  Column s of a start-row family keeps only its rows <= s: above
    them H repeats its total and the triangular families leave the
    unreachable wedge blank, the way the reference tables print them;
    that total, or the blank, is the column's stand-in text, made once.
    A column so holds min(s, rows) texts (``d``'s are full), the columns
    short of row t are the first t - 1, and each row joins one line of
    every other buffer in C.  With ``footer``, each column's total, its
    H(s, s) entry as in ``dp.hss_values``, is summed in the same pass, so
    no column is kept for it."""
    cut = kind != "d"
    bufs, stand, sums = [], [], []
    for s, col in enumerate(columns, start=1):
        size = min(s, dims.rows) if cut else dims.rows
        stand.append(str(col[size - 1]) + " | " if kind == "h" else " | ")
        if footer:
            sums.append(sum(col))
        # The bytes reuse the block of the join, freed by the "+" copy;
        # a freed block per column, too small for the next one, took
        # h 500 x 500 from 34.5 to 53 MB of RSS.
        text = "\n".join(map(str, col[size - 1::-1])) + "\n"
        bufs.append(io.BytesIO(text.encode("ascii")))
        del text  # freed before the next column's text is made, not after
    readline = io.BytesIO.readline

    def lines():  # the header, each row top row first, then the footer
        yield ("| t\\s | " + " | ".join(map(str, range(1, dims.cols + 1))) + " |\n|"
               + " --- |" * (dims.cols + 1) + "\n")
        for t in range(dims.rows, 0, -1):
            k = min(t - 1, dims.cols) if cut else 0  # the columns short of row t
            tail = b"".join(map(readline, bufs[k:])).replace(b"\n", b" | ")
            row = f"| {t} | {''.join(stand[:k])}{tail.decode('ascii')}"
            yield row[:-1] + "\n"  # "... | " ends as "... |\n"
        if footer:
            yield "| H(s,s) | " + " | ".join(map(str, sums)) + " |\n"

    _write_list(out, "markdown", lines(), str)


def _cmd_table(args) -> int:
    if args.hss_footer and (args.kind != "d1" or args.format != "markdown"):
        raise ValueError("--hss-footer requires --kind d1 and markdown format")
    dims = TableDims(args.rows, args.cols)
    _check_work(dims, args.kind if args.format == "markdown" else "")
    # Every check, and column 1, comes before the first write.
    with _exact_columns(args.kind, dims.rows, dims.cols) as columns:
        if args.format == "csv":
            render_table_csv(sys.stdout, dims, columns)
        elif args.format == "json":
            render_table_json(sys.stdout, dims, columns, args.kind)
        else:
            render_table_markdown(sys.stdout, dims, columns, args.kind,
                                  args.hss_footer)
    return 0


def _cmd_count(args) -> int:
    dims = TableDims(args.rows, args.cols)
    start, end = Cell(args.from_col, args.from_row), Cell(args.to_col, args.to_row)
    low, high = dp.pair_strip(dims, start, end)
    if low < high:  # one row in reach leaves only flat steps: no walk
        _check_work(TableDims(high - low + 1, end.col - start.col + 1))
    count = dp.bounded_pair_count(dims, start, end)
    sys.stdout.write(_decimal(count) + "\n")
    return 0


def _cmd_sequence(args) -> int:
    _check_work(TableDims(args.rows, args.max_n))
    kind, reduce = SEQUENCE_TARGETS[args.target]
    head = f'  "target": "{args.target}",\n  "rows": {args.rows},\n'
    item = {"json": '    [\n      {0[0]},\n      "{0[1]}"\n    ]',
            "csv": "{0[0]},{0[1]}\n"}.get(args.format, "{0[1]}\n").format
    # The values are the table's columns reduced as they are marched and
    # written, so the writes stay inside the exact context.
    with _exact_columns(kind, args.rows, args.max_n) as columns:
        values = enumerate(map(str, map(reduce, columns)), start=1)
        _write_list(sys.stdout, args.format, values, item, head, "values",
                    "n,value\n")
    return 0


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _verify_cells(rep, params_sep: str, ce_sep: str, no_ce: str) -> list[str]:
    """One report's row; a counterexample reads params, ce_sep, lhs, rhs."""
    ce = rep.first_counterexample
    if ce is None:
        ce_text = no_ce
    else:
        params = params_sep.join(f"{k}={v}" for k, v in ce.params)
        ce_text = f"{params}{ce_sep}lhs={ce.lhs} rhs={ce.rhs}"
    return [rep.spec.identity, rep.spec.expected, str(rep.cases_checked),
            str(rep.failures), rep.verdict, ce_text]


def _render_verify_markdown(reports) -> str:
    lines = [
        "| identity | expected | cases | failures | verdict | first counterexample |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    lines += ("| " + " | ".join(_verify_cells(rep, ",", ": ", "-")) + " |"
              for rep in reports)
    return "\n".join(lines) + "\n"


def _render_verify_csv(reports) -> str:
    lines = ["identity,expected,cases_checked,failures,verdict,counterexample"]
    lines += (",".join(_verify_cells(rep, " ", " ", "")) for rep in reports)
    return "\n".join(lines) + "\n"


def _render_verify_json(reports, all_ok: bool) -> str:
    """Every report field as json; big counts appear as decimal strings."""
    import json  # loaded only by verify --format json

    entries = []
    for rep in reports:
        spec, ce = rep.spec, rep.first_counterexample
        if ce is not None:
            ce = {"params": dict(ce.params), "lhs": str(ce.lhs), "rhs": str(ce.rhs)}
        entries.append({"identity": spec.identity, "expected": spec.expected,
                        "domain": dict(spec.domain), "cases_checked": rep.cases_checked,
                        "failures": rep.failures, "first_counterexample": ce,
                        "verdict": rep.verdict})
    payload = {"reports": entries, "all_as_expected": all_ok}
    return json.dumps(payload, indent=2) + "\n"


def _cmd_verify(args) -> int:
    from . import verify

    caps = {axis: getattr(args, f"max_{axis}") for axis in CAP_AXES}
    overrides = {axis: cap for axis, cap in caps.items() if cap is not None}
    if args.identity == "all":
        specs = verify.default_suite(overrides)
    else:  # default_spec rejects an unknown id
        specs = [verify.default_spec(args.identity, overrides)]
    reports, all_ok = verify.run_suite(specs)
    if args.format == "json":
        sys.stdout.write(_render_verify_json(reports, all_ok))
    elif args.format == "csv":
        sys.stdout.write(_render_verify_csv(reports))
    else:
        sys.stdout.write(_render_verify_markdown(reports))
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# Word listing
# ---------------------------------------------------------------------------


def _cmd_words(args) -> int:
    from . import oracle

    floor, ceiling = args.floor, args.ceiling
    if args.rows is not None:
        if floor is not None or ceiling is not None:
            raise ValueError("--rows conflicts with --floor/--ceiling")
        floor, ceiling = 1, args.rows
    length = args.length
    if length is None:
        if args.cols is None:
            raise ValueError("either --length or --cols is required")
        length = args.cols - 1
    elif args.cols is not None:
        raise ValueError("--length conflicts with --cols")
    start = args.start
    if start is None and (floor is None or ceiling is None):
        start = 1  # unbounded enumerations need an anchor row
        if (floor is not None and floor > 1) or (ceiling is not None and ceiling < 1):
            raise ValueError("row 1, the default --start, lies outside "
                             "--floor/--ceiling")
    filt = oracle.WordFilter(
        alphabet=args.alphabet,
        start_row=start,
        floor=floor,
        ceiling=ceiling,
        end_row=args.end,
        net_displacement=args.net,
    )
    cap = oracle.DEFAULT_CAP if args.cap is None else args.cap
    sep = "," if args.format == "csv" else " "
    compact = 2 * length + 1  # a trace's length when every row is one digit

    def line(w) -> str:  # digits like 121 when unambiguous, else comma-joined
        trace = w.trace
        if len(trace) == compact:  # the digits sit at the even positions
            trace = trace[::2]
        return f"{w.letters or 'ε'}{sep}{trace}\n"

    def json_item(w) -> str:
        # Letters are validated to "urd", so they need no JSON escaping.
        return (f'    {{\n      "letters": "{w.letters}",\n'
                f'      "start_row": {w.start_row},\n      "trace": [\n        '
                + w.trace.replace(",", ",\n        ") + "\n      ]\n    }")

    _write_list(sys.stdout, args.format, oracle.enumerate_words(length, filt, cap=cap),
                json_item if args.format == "json" else line, "", "words",
                "word,trace\n")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="tablepaths", description=(
        "Exact counts of lattice paths confined to a table: counting tables, "
        "pair counts, sequences, the identity suite and word listings.  Exit "
        "status 0 on success, 1 on a refusal (one 'error:' line) or a closed "
        "stdout, 2 when verify finds a mismatch."))
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="render one counting family")
    p_table.add_argument("--kind", choices=TABLE_KINDS, required=True)
    p_table.add_argument("-m", "--rows", type=int, required=True)
    p_table.add_argument("-n", "--cols", type=int, required=True)
    p_table.add_argument("--format", choices=FORMATS, default="markdown")
    p_table.add_argument(
        "--hss-footer",
        action="store_true",
        help="append the diagonal footer row (kind d1, markdown only)",
    )
    p_table.set_defaults(func=_cmd_table)

    p_count = sub.add_parser("count", help="count paths between two cells")
    p_count.add_argument("-m", "--rows", type=int, required=True)
    p_count.add_argument("-n", "--cols", type=int, required=True)
    p_count.add_argument("--from-col", type=int, required=True)
    p_count.add_argument("--from-row", type=int, required=True)
    p_count.add_argument("--to-col", type=int, required=True)
    p_count.add_argument("--to-row", type=int, required=True)
    p_count.set_defaults(func=_cmd_count)

    p_seq = sub.add_parser("sequence", help="emit a counting sequence")
    p_seq.add_argument("--target", choices=SEQUENCE_TARGETS, required=True)
    p_seq.add_argument("-m", "--rows", type=int, required=True)
    p_seq.add_argument("--max-n", type=int, required=True)
    p_seq.add_argument("--format", choices=LIST_FORMATS, default="plain")
    p_seq.set_defaults(func=_cmd_sequence)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--identity", default="all")
    for axis in CAP_AXES:
        p_verify.add_argument(f"--max-{axis}", type=int)
    p_verify.add_argument("--format", choices=FORMATS, default="markdown")
    p_verify.set_defaults(func=_cmd_verify)

    p_words = sub.add_parser("words", help="list matching lattice words")
    p_words.add_argument("--length", type=int)
    p_words.add_argument("-m", "--rows", type=int, help="confine rows to [1, M]")
    p_words.add_argument(
        "-n", "--cols", type=int, help="implies --length = cols - 1"
    )
    p_words.add_argument("--start", type=int, help="single start row")
    p_words.add_argument("--end", type=int, help="required end row")
    p_words.add_argument("--net", type=int, help="required net rise")
    p_words.add_argument("--floor", type=int)
    p_words.add_argument("--ceiling", type=int)
    p_words.add_argument("--alphabet", choices=("urd", "ud"), default="urd")
    p_words.add_argument("--cap", type=int, help="enumeration cap override")
    p_words.add_argument("--format", choices=LIST_FORMATS, default="plain")
    p_words.set_defaults(func=_cmd_words)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except MemoryError:  # carries no text
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early (``tablepaths table ... | head``).
        # Point stdout at devnull, so that the flush at interpreter exit
        # cannot fail a second time, and exit 1 with no message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OverflowError) as exc:  # usage, budget, cap, digit limit
        print(f"error: {exc}", file=sys.stderr)
        return 1

