"""Differential-testing harness.

Sweeps parameter grids, evaluates one counting identity per grid point
with the column-marching engine on the reference side (lhs) and the
closed form under test on the other (rhs), and reports exact-equality
results with the first counterexample in grid order.  It only computes:
specs in, reports and calibration results out; the CLI renders reports.

Each identity is one ``_REGISTRY`` row, walked alike by the suite and
by calibration: its axes in grid order, with bounds that may depend on
earlier axes (t <= s, x in -y..y); its declared window, if any, which
the suite applies and calibration probes past with an unguarded
evaluator; how many trailing axes it walks as one box, which they can
be when their bounds come only from outer axes (1, a line over the last
axis, unless set); a ``sides`` function giving, for one point of the
outer axes, the engine values and formula values over that box, each
flattened row-major; its default domain and expected verdict; and, if
it can be calibrated, a search box.  A box holds references to at most
max-m x max-n values, the size of the engine table the row reads
anyway.  Engine tables come from ``dp.cached``, the table memo the
closed forms read too, at the run's upper bounds.  A formula is looked
up by name once per walk, so one wrapped before a run sees every call,
and each call runs its own argument checks; ``formulas`` answers
repeated D-BOUNDARY and free-count values from its own bounded value
memos.

Identity ids ending in ``-PRINTED`` evaluate deliberately retained
wrong variants; the suite expects those to fail and marks them
DOCUMENTED-FAILURE-CONFIRMED when they do.  All comparisons are exact
integer equality; there are no tolerances anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice, product
from math import inf, prod
from operator import ne
from typing import Callable, Mapping, NamedTuple, Optional

from . import dp, formulas
from .core import Cell, TableDims

PASS = "PASS"
FAIL = "FAIL"
DOCUMENTED_FAILURE = "DOCUMENTED-FAILURE"
DOCUMENTED_FAILURE_CONFIRMED = "DOCUMENTED-FAILURE-CONFIRMED"


class IdentitySpec(NamedTuple):
    """One identity plus the grid it is checked on: ``domain`` holds
    (axis, inclusive upper bound) pairs; lower bounds and dependent
    ranges are fixed by the identity itself."""

    identity: str
    domain: tuple[tuple[str, int], ...]
    expected: str  # PASS or DOCUMENTED-FAILURE


class Counterexample(NamedTuple):
    params: tuple[tuple[str, int], ...]
    lhs: int  # reference side (engine)
    rhs: int  # formula side


class IdentityReport(NamedTuple):
    spec: IdentitySpec
    cases_checked: int
    failures: int
    first_counterexample: Optional[Counterexample]
    verdict: str


def _rows(column: tuple, line: range) -> tuple:  # bottom row first
    return column[line.start - 1 : line.stop - 1]


def _triangle(family: str, *start: int) -> Callable:
    """Sides for t <= s read from column s of one s x s table."""
    return lambda hi, fn, s, ts: (
        _rows(dp.cached(family, hi["s"], hi["s"], *start).column(s), ts),
        [fn(s, t) for t in ts],
    )


def _h_square(hi, fn, m, ns):
    d1 = dp.cached("di_table", m, hi["n"], 1)  # H(n, m) sums its column n
    return [sum(d1.column(n)) for n in ns], [fn(n, m) for n in ns]


def _d1_split(hi, fn, m, n, ss):
    truth = dp.cached("di_table", m, hi["n"], 1).get(n, m)
    return [truth] * len(ss), [fn(n, m, s) for s in ss]


def _d_boundary(hi, fn, m, n, ss, ts):
    dims, table = TableDims(m, n), dp.cached("d_table", m, hi["n"])
    lhs = [v for s in ss for v in _rows(table.column(s), ts)]
    return lhs, [fn(dims, s, t) for s in ss for t in ts]


def _inner_product(hi, fn, m, n, cols):  # I_m(n) sums column n of D
    truth, dims = sum(dp.cached("d_table", m, hi["n"]).column(n)), TableDims(m, n)
    return [truth] * len(cols), [fn(dims, a) for a in cols]


def _s_free(hi, fn, y, xs):
    # One unwalled march per point: there is no table to share.
    return [dp.free_count(x, y) for x in xs], [fn(x, y) for x in xs]


def _s2(hi, fn, m, span, starts, ends):
    # Column span + 1 from (1, r0): one table per (m, r0), m + 2 wide.
    lhs = [v for r0 in starts
           for v in _rows(dp.cached("di_table", m, m + 2, r0).column(span + 1), ends)]
    dims, stops = TableDims(m, span + 1), [Cell(span + 1, r1) for r1 in ends]
    cells = [Cell(1, r0) for r0 in starts]
    return lhs, [fn(dims, start, stop) for start in cells for stop in stops]


def _motzkin(hi, fn, ss):
    d1 = dp.cached("di_table", hi["s"], hi["s"], 1)
    return [d1.get(s, 1) for s in ss], [fn(s - 1) for s in ss]


def _catalan(hi, fn, ks):
    a = dp.cached("a_table", 2 * hi["k"] + 1, 2 * hi["k"] + 1)
    return [a.get(2 * k + 1, 1) for k in ks], [fn(k) for k in ks]


@lru_cache(maxsize=1)  # one (m, i) block at a time, read by every n
def _flip_entries(m, width, i):
    # Start rows i and m + 1 - i column by column, the second upside down.
    up, down = (dp.cached("di_table", m, width, r).column for r in (i, m + 1 - i))
    cols = range(1, width + 1)
    return (tuple(chain.from_iterable(map(up, cols))),
            tuple(chain.from_iterable(c[::-1] for c in map(down, cols))))


def _flip(hi, fn, m, i, n, ss, ts):
    # No window or search box cuts s or t, so the box is the first n
    # columns, whole: the first m * n entries of each side.
    up, down = _flip_entries(m, hi["n"], i)
    return up[: m * n], down[: m * n]


def _reversal(hi, fn, ns):
    lhs = [dp.cached("d_table", n, n).get(n, n) for n in ns]
    return lhs, [dp.cached("h_table", n, n).get(n, n) for n in ns]


def _axis(name: str, lo: int = 1, upto: str = "") -> tuple:
    """(name, bounds): earlier axis values -> (lo, upto's value or inf)."""
    return name, (lambda p: (lo, p[upto])) if upto else (lambda p: (lo, inf))


class _Identity(NamedTuple):
    axes: tuple  # (name, bounds) in grid order
    sides: Callable  # (upper bounds, formula, outer values..., box ranges...) -> sides
    domain: dict  # axis -> default cap
    expected: str
    formula: str = ""  # the ``formulas`` attribute the suite checks
    window: tuple = ()  # (axis, bounds, unguarded evaluator checked past it)
    search: tuple = ()  # (axis, (lo, hi)) in shrink order
    box_axes: int = 1  # trailing axes walked as one box; bounds from outer axes only


_M, _N, _S = _axis("m"), _axis("n"), _axis("s")
_MN, _MNS = {"m": 6, "n": 12}, (_M, _N, _axis("s", upto="n"))
_MNST = (*_MNS, _axis("t", upto="m"))
_D_BOX = (("m", (1, 6)), ("n", (1, 12)), ("s", (1, 12)), ("t", (1, 6)))
_ST = (_S, _axis("t", upto="s"))
_YX = (_axis("y", 0), ("x", lambda p: (-p["y"], p["y"])))
_DOC = DOCUMENTED_FAILURE

_REGISTRY: dict[str, _Identity] = {
    "A-CLOSED": _Identity(_ST, _triangle("a_table"), {"s": 12}, PASS, "a_closed"),
    "D1-VIA-A": _Identity(_ST, _triangle("di_table", 1), {"s": 12}, PASS, "d1_via_a"),
    "D1-CLOSED": _Identity(_ST, _triangle("di_table", 1), {"s": 12}, PASS, "d1_closed"),
    "H-SQUARE": _Identity(
        (_M, _N), _h_square, _MN, PASS, "h_via_square",
        ("n", lambda p: (p["m"], 2 * p["m"]), "_h_square_value"),
        (("m", (1, 5)), ("n", (1, 12))),
    ),
    "D1-SPLIT": _Identity(_MNS, _d1_split, _MN, PASS, "d1_split"),
    "D-BOUNDARY": _Identity(
        _MNST, _d_boundary, _MN, PASS, "d_boundary", search=_D_BOX, box_axes=2
    ),
    "D-BOUNDARY-PRINTED": _Identity(
        _MNST, _d_boundary, _MN, _DOC, "d_boundary_printed", search=_D_BOX, box_axes=2
    ),
    "INNER-PRODUCT": _Identity(
        (_M, _N, _axis("a", upto="n")), _inner_product, _MN, PASS, "i_inner"
    ),
    "S-FREE": _Identity(_YX, _s_free, {"y": 10}, PASS, "s_free_closed"),
    "S-FREE-PRINTED": _Identity(_YX, _s_free, {"y": 10}, _DOC, "s_free_printed"),
    "S2": _Identity(
        (_M, ("span", lambda p: (0, p["m"] + 1)), _axis("r0", upto="m"),
         _axis("r1", upto="m")),
        _s2, {"m": 5}, PASS, "s2_closed", box_axes=2,
    ),
    "MOTZKIN-EDGE": _Identity((_S,), _motzkin, {"s": 8}, PASS, "motzkin_number"),
    "CATALAN-EDGE": _Identity(
        (_axis("k", 0),), _catalan, {"k": 5}, PASS, "catalan_number"
    ),
    "FLIP-SYMMETRY": _Identity(  # order m, i, n, s, t: an (m, i) block reads two tables
        (_M, _axis("i", upto="m"), _N, _axis("s", upto="n"), _axis("t", upto="m")),
        _flip, _MN, PASS, box_axes=2,
    ),
    "REVERSAL": _Identity((_N,), _reversal, {"n": 10}, PASS),
}

IDENTITY_IDS = tuple(_REGISTRY)


def _row(identity: str) -> _Identity:
    if identity not in _REGISTRY:
        raise ValueError(f"unknown identity id {identity!r}")
    return _REGISTRY[identity]


def _lines(row: _Identity, box: Mapping):
    """(outer point, box ranges, engine values, formula values) for each
    nonempty box of the row's trailing axes in the grid ``box`` (axis ->
    (lo, hi)), cut to the row's window, in grid order; both sides are
    flattened row-major over the box's ranges."""
    upper = {axis: hi for axis, (_, hi) in box.items()}
    fn = getattr(formulas, row.formula) if row.formula else None  # patches apply
    window = dict([row.window[:2]]) if row.window else {}
    # A window lies within its axis's bounds, so it stands in for them.
    cuts = [(a, window.get(a, b), *box.get(a, (-inf, inf))) for a, b in row.axes]
    outer, point = len(cuts) - row.box_axes, {}

    def values(cut) -> range:
        _, bounds, blo, bhi = cut
        lo, hi = bounds(point)
        return range(max(lo, blo), min(hi, bhi) + 1)

    def walk(k):
        if k < outer:
            for value in values(cuts[k]):
                point[cuts[k][0]] = value
                yield from walk(k + 1)
            return
        ranges = tuple(map(values, cuts[outer:]))
        if all(ranges):
            prefix = tuple(point.values())
            yield (prefix, ranges, *row.sides(upper, fn, *prefix, *ranges))

    return walk(0)


def default_spec(
    identity: str, overrides: Optional[Mapping[str, int]] = None
) -> IdentitySpec:
    """Spec for one identity, with optional axis upper-bound overrides.

    Override keys outside the identity's default domain are ignored; an
    override below its axis's lower bound (1 for m, n and s, 0 for y
    and k) is rejected, because it would leave the grid empty.
    """
    row = _row(identity)
    merged = dict(row.domain)
    for axis, value in (overrides or {}).items():
        if axis in merged:
            least = dict(row.axes)[axis]({})[0]
            if value < least:
                msg = f"{identity}: max {axis} must be at least {least}, got {value}"
                raise ValueError(msg)
            merged[axis] = value
    return IdentitySpec(identity, tuple(sorted(merged.items())), row.expected)


def default_suite(overrides: Optional[Mapping[str, int]] = None) -> list[IdentitySpec]:
    return [default_spec(identity, overrides) for identity in IDENTITY_IDS]


def run_identity(spec: IdentitySpec) -> IdentityReport:
    """Evaluate both sides on every grid point; deterministic report.
    A run that checks no case is FAIL whatever the expected verdict."""
    row, dom = _row(spec.identity), dict(spec.domain)
    box = {axis: (-inf, dom[axis]) for axis in row.domain}
    cases, failures, first = 0, 0, None
    for prefix, ranges, lhs, rhs in _lines(row, box):
        cases += prod(map(len, ranges))
        bad = sum(map(ne, lhs, rhs))
        failures += bad
        if bad and first is None:
            k = next(k for k in range(len(lhs)) if lhs[k] != rhs[k])
            point = next(islice(product(*ranges), k, None))
            params = tuple(zip(dict(row.axes), (*prefix, *point)))
            first = Counterexample(params, lhs[k], rhs[k])
    if spec.expected == PASS:
        verdict = PASS if failures == 0 and cases > 0 else FAIL
    else:
        verdict = DOCUMENTED_FAILURE_CONFIRMED if failures > 0 else FAIL
    return IdentityReport(spec, cases, failures, first, verdict)


def run_suite(specs: list[IdentitySpec]) -> tuple[list[IdentityReport], bool]:
    reports = [run_identity(spec) for spec in specs]
    return reports, all(r.verdict != FAIL for r in reports)


class CalibrationResult(NamedTuple):
    """Outcome of probing an identity beyond its declared domain.

    ``axis_box`` is the greedy axis-aligned zero-failure sub-box of the
    searched box (axes shrunk in declared order, upper bounds only).
    ``profile`` maps each value of the first axis to the largest value
    of the second axis such that every grid point up to it passes; it
    captures validity regions whose true boundary is a staircase rather
    than a box.
    """

    identity: str
    searched: tuple[tuple[str, tuple[int, int]], ...]
    axis_box: tuple[tuple[str, tuple[int, int]], ...]
    profile: tuple[tuple[int, int], ...]


def calibrate_domain(
    identity: str, overrides: Optional[Mapping[str, int]] = None
) -> CalibrationResult:
    """Probe an identity over its search box, past any window with the
    row's unguarded evaluator, and report where it holds.

    The axis box is shrunk greedily: axes are visited in declared order
    (m first) and each axis upper bound is lowered to the largest value
    that removes every failure given the other axes' current ranges; an
    axis whose full collapse still leaves failures is left untouched.
    """
    row = _REGISTRY.get(identity)
    if row is None or not row.search:
        raise ValueError(f"no calibration defined for identity {identity!r}")
    caps, declared = overrides or {}, dict(row.search)
    searched = tuple((a, (lo, min(hi, caps.get(a, hi)))) for a, (lo, hi) in row.search)
    names = [name for name, _ in row.axes]
    probe = row._replace(formula=row.window[2], window=()) if row.window else row
    fails = [  # every failing point of the declared box, walked once
        dict(zip(names, (*prefix, *point)))
        for prefix, ranges, lhs, rhs in _lines(probe, declared)
        for point, a, b in zip(product(*ranges), lhs, rhs)
        if a != b
    ]

    def passes_up_to(box: dict, axis: str) -> int:
        """Largest b such that no failure lies in ``box`` with ``axis`` cut
        to (lo, b): one below its least failing value in the box, else
        the top of its range (lo - 1 if it is empty)."""
        inside = [p for p in fails if all(a <= p[x] <= b for x, (a, b) in box.items())]
        lo, hi = box[axis]
        return min(p[axis] for p in inside) - 1 if inside else max(hi, lo - 1)

    box = dict(searched)
    for name, (lo, hi) in searched:
        bound = passes_up_to(box, name)
        if bound >= hi:  # no failure left in the box
            break
        if bound >= lo:
            box[name] = (lo, bound)

    # The profile scans every other axis over its declared range, so an
    # override on, say, s does not hide the failures at larger s.
    (p_name, (plo, phi)), (q_name, (qlo, qhi)) = searched[:2]
    profile = []
    for p in range(plo, phi + 1):
        scan = {**declared, p_name: (p, p), q_name: (qlo, qhi)}
        profile.append((p, passes_up_to(scan, q_name)))
    return CalibrationResult(identity, searched, tuple(box.items()), tuple(profile))
