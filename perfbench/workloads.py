"""Seeded request lists for the benchmark workloads.

A workload is one pass of CLI requests (argument lists for
``python -m tablepaths``).  Each request is drawn from a small menu of
variants that cost the same amount of work: mirrored or shifted start
and end rows, output formats whose cost does not differ, and the order
of the requests.  The seed picks the variants and the order, so the
same seed always gives the same list and every seed gives the same
amount of work.

Every variant a seed can pick is listed by :func:`universe`, which is
what ``record_digests.py`` records expected outputs for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DOUBLED_GRID = (
    "--max-m", "12", "--max-n", "24", "--max-s", "24", "--max-y", "20",
    "--max-k", "10",
)
IDENTITIES = (
    "A-CLOSED", "D1-VIA-A", "D1-CLOSED", "H-SQUARE", "D1-SPLIT",
    "D-BOUNDARY", "D-BOUNDARY-PRINTED", "INNER-PRODUCT", "S-FREE",
    "S-FREE-PRINTED", "S2", "MOTZKIN-EDGE", "CATALAN-EDGE",
    "FLIP-SYMMETRY", "REVERSAL",
)

# How each request's output is checked (see checks.py).
DIGEST = "digest"  # raw stdout digest recorded at the seed commit
VERDICTS = "verdicts"  # digest of the verdict rows recorded at the seed commit
ORACLE_TABLE = "oracle-table"  # every cell against oracle enumeration
COUNT = "count"  # against transfer-matrix powering
SEQUENCE = "sequence"  # against powering plus the characteristic recurrence


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: str

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    slots: tuple[tuple[Request, ...], ...]  # one request is drawn per slot

    def requests(self, seed: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{seed}")
        reqs = [rng.choice(variants) for variants in self.slots]
        rng.shuffle(reqs)
        return reqs

    def universe(self) -> list[Request]:
        return [r for variants in self.slots for r in variants]


def _one(check: str, *argv: str) -> tuple[Request, ...]:
    return (Request(tuple(argv), check),)


def _verify_slots() -> list[tuple[Request, ...]]:
    slots = [
        _one(VERDICTS, "verify"),
        _one(VERDICTS, "verify", "--format", "json"),
    ]
    # One request per identity on the doubled grid, which together do the
    # work of the whole doubled suite; the seed orders them and picks each
    # one's format (the output is a few lines either way).
    for ident in IDENTITIES:
        slots.append(tuple(
            Request(("verify", "--identity", ident, *DOUBLED_GRID,
                     "--format", fmt), VERDICTS)
            for fmt in ("markdown", "json")
        ))
    return slots


def _table(check: str, kind: str, rows: int, cols: int, fmt: str) -> Request:
    return Request(
        ("table", "--kind", kind, "-m", str(rows), "-n", str(cols),
         "--format", fmt),
        check,
    )


def _table_slots() -> list[tuple[Request, ...]]:
    # Kinds and formats differ in cost by up to 3x, so the large tables
    # are fixed; the seed varies the order and the small tables, whose
    # cells are all checked against the oracle.
    large = [
        ("d1", 1000, 1000, "csv"),
        ("d", 400, 400, "json"),
        ("h", 500, 500, "markdown"),
        ("a", 600, 600, "csv"),
    ]
    slots = [(_table(DIGEST, *spec),) for spec in large]
    small = {"d1": ((6, 8), (8, 6)), "d": ((6, 8), (8, 6)),
             "h": ((6, 8), (8, 6)), "a": ((7, 7),)}
    for kind, shapes in small.items():
        for _ in range(len(shapes)):
            slots.append(tuple(
                _table(ORACLE_TABLE, kind, rows, cols, fmt)
                for rows, cols in shapes
                for fmt in ("csv", "json", "markdown")
            ))
    return slots


# (height, columns marched).  Answers above 4,300 decimal digits exceed
# Python's default int->str limit; those are (8, 60000), (4, 20000) and
# (6, 12000), and they fail at the seed commit.
COUNT_SPANS = (
    (8, 60000), (4, 20000), (6, 12000), (16, 7999), (12, 4999),
    (10, 5999), (5, 3999), (14, 2999),
)
# (target, height, length, format); (d1-bottom-row, 4, 12000) fails at
# the seed commit for the same reason.
SEQUENCES = (
    ("imn-fixed-m", 8, 6000, "plain"),
    ("d1-bottom-row", 16, 6000, "json"),
    ("d1-bottom-row", 4, 12000, "plain"),
    ("imn-fixed-m", 12, 4000, "csv"),
)


def _long_span_slots() -> list[tuple[Request, ...]]:
    slots = []
    for rows, span in COUNT_SPANS:
        # Any start and end row marches the same columns.
        slots.append(tuple(
            Request(("count", "-m", str(rows), "-n", str(span + 1),
                     "--from-col", "1", "--from-row", str(r0),
                     "--to-col", str(span + 1), "--to-row", str(r1)), COUNT)
            for r0 in range(1, rows + 1)
            for r1 in range(1, rows + 1)
        ))
    for target, rows, length, fmt in SEQUENCES:
        slots.append(_one(SEQUENCE, "sequence", "--target", target, "-m",
                          str(rows), "--max-n", str(length), "--format", fmt))
    return slots


def _words(*argv: str) -> Request:
    return Request(("words", *argv), DIGEST)


def _words_slots() -> list[tuple[Request, ...]]:
    # Unconfined words are shifted along the rows and confined ones
    # mirrored (start row r or m+1-r); neither changes the word count.
    def shifts(fmt, length, *extra, starts=(1, 2, 3)):
        return tuple(
            _words("--length", str(length), "--start", str(s), *extra,
                   "--format", fmt)
            for s in starts
        )

    return [
        (_words("--length", "12", "--start", "1"),),
        shifts("json", 7),
        shifts("plain", 12, "--alphabet", "ud"),
        shifts("json", 10, "--alphabet", "ud"),
        shifts("plain", 7, "--net", "2"),
        tuple(_words("--length", "8", "--start", str(s), "--end",
                     str(s + 2)) for s in (1, 2, 3)),
        tuple(_words("--length", "7", "--start", str(s), "--end", str(s + 1),
                     "--format", "json") for s in (1, 2, 3)),
        tuple(_words("--length", "12", "--start", str(s), "--end", str(s - 2),
                     "--alphabet", "ud", "--format", "csv") for s in (4, 5, 6)),
        tuple(_words("--length", "8", "-m", "5", "--start", str(s))
              for s in (2, 4)),
        tuple(_words("--length", "7", "-m", "4", "--start", str(s),
                     "--format", "json") for s in (1, 4)),
        tuple(_words("--length", "6", "-m", "3", "--end", str(e),
                     "--format", "csv") for e in (1, 3)),
        tuple(_words("-n", "7", "-m", "4", "--format", fmt)
              for fmt in ("csv", "plain")),
        tuple(_words("--length", "5", "--floor", str(f), "--ceiling",
                     str(f + 3), "--format", "json") for f in (1, 2, 3)),
        tuple(_words("--length", "7", "--floor", "1", "--ceiling", "5",
                     "--net", str(n), "--format", "csv") for n in (-1, 1)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-sweep", "grid cases", tuple(_verify_slots())),
        Workload("table-render", "table cells", tuple(_table_slots())),
        Workload("long-span", "columns marched", tuple(_long_span_slots())),
        Workload("words-enum", "words", tuple(_words_slots())),
    )
}
