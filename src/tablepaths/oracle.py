"""Independent brute-force enumerator over lattice words.

This module is the trust anchor: it never consults the column-marching
engine or the closed forms, only the step definitions.  One depth-first
search on an explicit stack, the generator ``enumerate_words``, lists
every word, and every brute count counts the words it yields.  It prunes
any prefix that leaves [floor, ceiling] or can no longer reach its
target row.  The stack stops ``TAIL`` letters short of a word: every
word ends in one of the admissible endings from its prefix's last row,
which a memo per start row lists once with their rows as trace text.
It has no recursion limit and keeps one letter buffer and one row
buffer, so word length is bounded only by the configured cap; the rows
are joined into the traces once per prefix the stack stops at.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .core import LETTERS, STEP_RISE, Cell, LatticeWord, TableDims, _Value, check_pair

DEFAULT_CAP = 14

# Letters each word takes from the per-row suffix memo instead of the
# stack: at most 3^4 = 81 endings per row, and the stack pops 3^3 = 27
# times fewer entries than when it stopped one letter short.  Tails of 3
# to 6 time alike.
TAIL = 4


def _check_cap(amount: int, cap: int, what: str) -> None:
    # A ValueError, so the CLI refuses it in one line like any bad input.
    if amount > cap:
        raise ValueError(f"{what} {amount} exceeds enumeration cap {cap}")


class WordFilter(_Value):
    """Conditions a yielded word must satisfy.

    ``floor``/``ceiling`` bound every visited row (a table with r rows
    confines to floor 1, ceiling r).  ``end_row`` and
    ``net_displacement`` are terminal conditions and are mutually
    exclusive; with neither, the enumeration is full.
    """

    __slots__ = _fields = ("alphabet", "start_row", "floor", "ceiling", "end_row",
                           "net_displacement")

    def __init__(
        self,
        alphabet: str = LETTERS,
        start_row: Optional[int] = None,
        floor: Optional[int] = None,
        ceiling: Optional[int] = None,
        end_row: Optional[int] = None,
        net_displacement: Optional[int] = None,
    ) -> None:
        bad = set(alphabet) - set(LETTERS)
        if bad or not alphabet:
            raise ValueError("alphabet must be a nonempty subset of 'urd'")
        if floor is not None and ceiling is not None and floor > ceiling:
            raise ValueError("floor above ceiling")
        if end_row is not None and net_displacement is not None:
            raise ValueError("end_row and net_displacement are mutually exclusive")
        # Canonicalize letter order so enumeration order is stable.
        canonical = "".join(c for c in LETTERS if c in alphabet)
        self._set(canonical, start_row, floor, ceiling, end_row, net_displacement)

    @classmethod
    def in_table(
        cls,
        dims: TableDims,
        start_row: Optional[int] = None,
        end_row: Optional[int] = None,
    ) -> "WordFilter":
        """Confine every visited row to [1, dims.rows]."""
        return cls(start_row=start_row, floor=1, ceiling=dims.rows, end_row=end_row)


def enumerate_words(
    length: int, filt: WordFilter, cap: int = DEFAULT_CAP
) -> Iterator[LatticeWord]:
    """Yield every word of the given length satisfying the filter, in
    lexicographic order with u < r < d and start rows ascending.

    The window of admissible rows for each number of letters left is
    computed once per start row; a prefix outside it is pruned.  The
    last ``TAIL`` letters of each word and their rows come from
    ``_suffixes``, memoized per start row.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    _check_cap(length, cap, "word length")
    floor, ceiling = filt.floor, filt.ceiling
    if filt.start_row is not None:
        starts = range(filt.start_row, filt.start_row + 1)
    elif floor is None or ceiling is None:
        raise ValueError(
            "start_row is required when rows are not fully confined"
        )
    else:
        starts = range(floor, ceiling + 1)
    # Prefixes are pushed d, r, u so that u pops first.
    steps = [(ch, STEP_RISE[ch]) for ch in filt.alphabet]
    pushes = [(ord(ch), rise) for ch, rise in reversed(steps)]
    tail = min(TAIL, length)
    cut = length - tail  # the depth at which the stack stops
    new = LatticeWord.__new__  # the search's letters and rows need no checks
    for start in starts:
        target = filt.end_row
        if filt.net_displacement is not None:
            target = start + filt.net_displacement
        low = start - length if floor is None else floor
        high = start + length if ceiling is None else ceiling
        lows, highs = [low] * (length + 1), [high] * (length + 1)
        if target is not None:
            lows = [max(low, target - left) for left in range(length + 1)]
            highs = [min(high, target + left) for left in range(length + 1)]
        if not lows[length] <= start <= highs[length]:
            continue
        memo: dict = {}  # the windows depend on the start, so the memo does too
        buf = bytearray(cut + 1)  # letters 1..depth of the prefix; buf[0] unused
        rows = [""] * (cut + 1)  # rows 0..depth of the prefix, as text
        stack = [(0, start, 0)]  # (depth, row, letter that pops into buf[depth])
        push = stack.append
        while stack:
            depth, row, buf[depth] = stack.pop()
            rows[depth] = str(row)
            if depth < cut:
                left = length - depth - 1
                lo, hi = lows[left], highs[left]
                for code, rise in pushes:
                    if lo <= (nxt := row + rise) <= hi:
                        push((depth + 1, nxt, code))
            else:
                prefix, head = buf[1:].decode(), ",".join(rows)
                for letters, text in _suffixes(row, tail, steps, lows, highs, memo):
                    word = new(LatticeWord)
                    word.letters, word.start_row = prefix + letters, start
                    word.trace = head + text
                    yield word


def _suffixes(row, left, steps, lows, highs, memo):
    """Every admissible ``left``-letter ending from ``row`` as (letters,
    ",r1,...,rk" trace text), in u < r < d order, memoized on (row, left)."""
    if not left:
        return [("", "")]
    key = (row, left)
    if key not in memo:
        lo, hi = lows[left - 1], highs[left - 1]
        memo[key] = [
            (ch + letters, f",{nxt}{text}")
            for ch, rise in steps if lo <= (nxt := row + rise) <= hi
            for letters, text in _suffixes(nxt, left - 1, steps, lows, highs, memo)
        ]
    return memo[key]


def brute_pair_count(
    dims: TableDims, start: Cell, end: Cell, cap: int = DEFAULT_CAP
) -> int:
    """Count confined paths between two cells by direct enumeration."""
    check_pair(dims, start, end)
    filt = WordFilter.in_table(dims, start_row=start.row, end_row=end.row)
    span = end.col - start.col
    _check_cap(span, cap, "column span")
    return sum(1 for _ in enumerate_words(span, filt, cap))


def brute_imn(dims: TableDims, cap: int = DEFAULT_CAP) -> int:
    """Count whole-table crossings by enumerating row words over [1, rows]
    with adjacent entries differing by at most one."""
    _check_cap(dims.cols, cap, "table width")
    _check_cap(dims.rows, cap, "table height")
    filt = WordFilter.in_table(dims)
    return sum(1 for _ in enumerate_words(dims.cols - 1, filt, cap))


def brute_free(x: int, y: int, cap: int = DEFAULT_CAP) -> int:
    """Count length-y words with net rise x by direct enumeration."""
    if y < 0:
        raise ValueError("y must be nonnegative")
    filt = WordFilter(start_row=0, net_displacement=x)
    return sum(1 for _ in enumerate_words(y, filt, cap))
