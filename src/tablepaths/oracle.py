"""Independent brute-force enumerator over lattice words.

This module is the trust anchor: it never consults the column-marching
engine or the closed forms, only the step definitions.  Enumeration is
depth-first with pruning of any prefix that violates confinement or can
no longer reach its target row, so the configured cap stays usable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import LETTERS, STEP_RISE, Cell, LatticeWord, TableDims, check_pair

DEFAULT_CAP = 14


class CapExceededError(RuntimeError):
    """Requested enumeration is larger than the configured cap allows."""


def _check_cap(amount: int, cap: int, what: str) -> None:
    if amount > cap:
        raise CapExceededError(
            f"{what} {amount} exceeds enumeration cap {cap}"
        )


@dataclass(frozen=True)
class WordFilter:
    """Conditions a yielded word must satisfy.

    ``floor``/``ceiling`` bound every visited row (a table with r rows
    confines to floor 1, ceiling r).  ``end_row`` and
    ``net_displacement`` are terminal conditions and are mutually
    exclusive; with neither, the enumeration is full.
    """

    alphabet: str = LETTERS
    start_row: Optional[int] = None
    floor: Optional[int] = None
    ceiling: Optional[int] = None
    end_row: Optional[int] = None
    net_displacement: Optional[int] = None

    def __post_init__(self) -> None:
        bad = set(self.alphabet) - set(LETTERS)
        if bad or not self.alphabet:
            raise ValueError("alphabet must be a nonempty subset of 'urd'")
        # Canonicalize letter order so enumeration order is stable.
        canonical = "".join(c for c in LETTERS if c in set(self.alphabet))
        object.__setattr__(self, "alphabet", canonical)
        if self.floor is not None and self.ceiling is not None:
            if self.floor > self.ceiling:
                raise ValueError("floor above ceiling")
        if self.end_row is not None and self.net_displacement is not None:
            raise ValueError(
                "end_row and net_displacement are mutually exclusive"
            )

    @classmethod
    def in_table(
        cls,
        dims: TableDims,
        start_row: Optional[int] = None,
        end_row: Optional[int] = None,
        alphabet: str = LETTERS,
    ) -> "WordFilter":
        """Confine every visited row to [1, dims.rows]."""
        return cls(
            alphabet=alphabet,
            start_row=start_row,
            floor=1,
            ceiling=dims.rows,
            end_row=end_row,
        )

    def _start_rows(self) -> list[int]:
        if self.start_row is not None:
            if self.floor is not None and self.start_row < self.floor:
                return []
            if self.ceiling is not None and self.start_row > self.ceiling:
                return []
            return [self.start_row]
        if self.floor is None or self.ceiling is None:
            raise ValueError(
                "start_row is required when rows are not fully confined"
            )
        return list(range(self.floor, self.ceiling + 1))

    def _target_row(self, start: int) -> Optional[int]:
        if self.end_row is not None:
            return self.end_row
        if self.net_displacement is not None:
            return start + self.net_displacement
        return None


def enumerate_words(
    length: int, filt: WordFilter = WordFilter(), cap: int = DEFAULT_CAP
) -> Iterator[LatticeWord]:
    """Yield every word of the given length satisfying the filter, in
    lexicographic order with u < r < d and start rows ascending."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    _check_cap(length, cap, "word length")
    rises = [(ch, STEP_RISE[ch]) for ch in filt.alphabet]
    floor, ceiling = filt.floor, filt.ceiling

    def gen(row: int, remaining: int, prefix: str, target: Optional[int]):
        if remaining == 0:
            yield prefix
            return
        for ch, rise in rises:
            nxt = row + rise
            if floor is not None and nxt < floor:
                continue
            if ceiling is not None and nxt > ceiling:
                continue
            if target is not None and abs(target - nxt) > remaining - 1:
                continue
            yield from gen(nxt, remaining - 1, prefix + ch, target)

    for start in filt._start_rows():
        target = filt._target_row(start)
        if target is not None and abs(target - start) > length:
            continue
        for letters in gen(start, length, "", target):
            yield LatticeWord(letters, start)


def _count_words(
    length: int, filt: WordFilter, cap: int, what: str = "word length"
) -> int:
    """Counting twin of :func:`enumerate_words`, no word objects built."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    _check_cap(length, cap, what)
    rises = [STEP_RISE[ch] for ch in filt.alphabet]
    floor, ceiling = filt.floor, filt.ceiling

    def count(row: int, remaining: int, target: Optional[int]) -> int:
        if remaining == 0:
            return 1
        total = 0
        for rise in rises:
            nxt = row + rise
            if floor is not None and nxt < floor:
                continue
            if ceiling is not None and nxt > ceiling:
                continue
            if target is not None and abs(target - nxt) > remaining - 1:
                continue
            total += count(nxt, remaining - 1, target)
        return total

    total = 0
    for start in filt._start_rows():
        target = filt._target_row(start)
        if target is not None and abs(target - start) > length:
            continue
        total += count(start, length, target)
    return total


def brute_pair_count(
    dims: TableDims, start: Cell, end: Cell, cap: int = DEFAULT_CAP
) -> int:
    """Count confined paths between two cells by direct enumeration."""
    check_pair(dims, start, end)
    filt = WordFilter.in_table(dims, start_row=start.row, end_row=end.row)
    return _count_words(end.col - start.col, filt, cap, "column span")


def brute_imn(dims: TableDims, cap: int = DEFAULT_CAP) -> int:
    """Count whole-table crossings by enumerating row words over [1, rows]
    with adjacent entries differing by at most one."""
    _check_cap(dims.cols, cap, "table width")
    _check_cap(dims.rows, cap, "table height")
    filt = WordFilter.in_table(dims)
    return _count_words(dims.cols - 1, filt, cap)


def brute_free(x: int, y: int, cap: int = DEFAULT_CAP) -> int:
    """Count length-y words with net rise x by direct enumeration."""
    if y < 0:
        raise ValueError("y must be nonnegative")
    filt = WordFilter(start_row=0, net_displacement=x)
    return _count_words(y, filt, cap)
