"""Differential-testing harness.

Sweeps parameter grids, evaluates one counting identity per grid point
with the column-marching engine on the reference side (lhs) and the
closed form under test on the other (rhs), and reports exact-equality
results with the first counterexample in grid order.

Identity ids ending in ``-PRINTED`` evaluate deliberately retained
wrong variants; the suite expects those to fail and marks them
DOCUMENTED-FAILURE-CONFIRMED when they do.  All comparisons are exact
integer equality; there are no tolerances anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import product, starmap
from typing import Callable, Iterator, Mapping, Optional

from . import dp, formulas
from .core import Cell, TableDims

PASS = "PASS"
FAIL = "FAIL"
DOCUMENTED_FAILURE = "DOCUMENTED-FAILURE"
DOCUMENTED_FAILURE_CONFIRMED = "DOCUMENTED-FAILURE-CONFIRMED"

Point = tuple[tuple[str, int], ...]
Row = tuple[Point, int, int]


@dataclass(frozen=True)
class IdentitySpec:
    """One identity plus the grid it is checked on.

    ``domain`` holds (axis, inclusive upper bound) pairs; lower bounds
    and dependent ranges are fixed by the identity itself.
    """

    identity: str
    domain: tuple[tuple[str, int], ...]
    expected: str  # PASS or DOCUMENTED-FAILURE

    def domain_dict(self) -> dict[str, int]:
        return dict(self.domain)


@dataclass(frozen=True)
class Counterexample:
    params: Point
    lhs: int  # reference side (engine)
    rhs: int  # formula side


@dataclass(frozen=True)
class IdentityReport:
    spec: IdentitySpec
    cases_checked: int
    failures: int
    first_counterexample: Optional[Counterexample]
    verdict: str

    def to_dict(self) -> dict:
        ce = None
        if self.first_counterexample is not None:
            ce = {
                "params": dict(self.first_counterexample.params),
                "lhs": str(self.first_counterexample.lhs),
                "rhs": str(self.first_counterexample.rhs),
            }
        return {
            "identity": self.spec.identity,
            "expected": self.spec.expected,
            "domain": dict(self.spec.domain),
            "cases_checked": self.cases_checked,
            "failures": self.failures,
            "first_counterexample": ce,
            "verdict": self.verdict,
        }


def _gen_a_closed(dom: Mapping[str, int]) -> Iterator[Row]:
    n = dom["s"]
    table = dp.a_table(n)
    for s in range(1, n + 1):
        for t in range(1, s + 1):
            yield (("s", s), ("t", t)), table.get(s, t), formulas.a_closed(s, t)


# Generators that take a formula take its name in ``formulas`` and look
# it up when they run, so a wrapped module attribute takes effect.


def _gen_d1_formula(dom: Mapping[str, int], fn: str) -> Iterator[Row]:
    formula = getattr(formulas, fn)
    n = dom["s"]
    # A table with n rows keeps every point wall-free.
    table = dp.di_table(TableDims(n, n), 1)
    for s in range(1, n + 1):
        for t in range(1, s + 1):
            yield (("s", s), ("t", t)), table.get(s, t), formula(s, t)


def _gen_h_square(dom: Mapping[str, int]) -> Iterator[Row]:
    for m in range(1, dom["m"] + 1):
        for n in range(m, min(2 * m, dom["n"]) + 1):
            truth = dp.h_table(TableDims(m, n)).get(n, m)
            yield (("m", m), ("n", n)), truth, formulas.h_via_square(n, m)


# The grids below build one engine table per (m, start row) at the
# widest column and read each narrower table as its column prefix: a
# march from column 1 does not depend on how far it goes on.


def _gen_d1_split(dom: Mapping[str, int]) -> Iterator[Row]:
    for m in range(1, dom["m"] + 1):
        table = dp.di_table(TableDims(m, dom["n"]), 1)
        for n in range(1, dom["n"] + 1):
            truth = table.get(n, m)
            for s in range(1, n + 1):
                yield (
                    (("m", m), ("n", n), ("s", s)),
                    truth,
                    formulas.d1_split(n, m, s),
                )


def _gen_d_boundary(dom: Mapping[str, int], fn: str) -> Iterator[Row]:
    formula = getattr(formulas, fn)
    for m in range(1, dom["m"] + 1):
        table = dp.d_table(TableDims(m, dom["n"]))
        for n in range(1, dom["n"] + 1):
            dims = TableDims(m, n)
            for s in range(1, n + 1):
                for t in range(1, m + 1):
                    yield (
                        (("m", m), ("n", n), ("s", s), ("t", t)),
                        table.get(s, t),
                        formula(dims, s, t),
                    )


def _gen_inner_product(dom: Mapping[str, int]) -> Iterator[Row]:
    for m in range(1, dom["m"] + 1):
        for n in range(1, dom["n"] + 1):
            dims = TableDims(m, n)
            truth = dp.imn(dims)
            for a in range(1, n + 1):
                yield (
                    (("m", m), ("n", n), ("a", a)),
                    truth,
                    formulas.i_inner(dims, a),
                )


def _gen_s_free(dom: Mapping[str, int], fn: str) -> Iterator[Row]:
    formula = getattr(formulas, fn)
    for y in range(dom["y"] + 1):
        for x in range(-y, y + 1):
            yield (("y", y), ("x", x)), dp.free_count(x, y), formula(x, y)


def _gen_s2(dom: Mapping[str, int]) -> Iterator[Row]:
    for m in range(1, dom["m"] + 1):
        # Column span + 1 of the table from (1, r0) holds the pair counts
        # from (1, r0) over that span.
        widest = TableDims(m, m + 2)
        tables = [dp.di_table(widest, r0) for r0 in range(1, m + 1)]
        for span in range(0, m + 2):  # declared domain: span <= m + 1
            dims = TableDims(m, span + 1)
            for r0 in range(1, m + 1):
                for r1 in range(1, m + 1):
                    start, end = Cell(1, r0), Cell(span + 1, r1)
                    yield (
                        (("m", m), ("span", span), ("r0", r0), ("r1", r1)),
                        tables[r0 - 1].get(span + 1, r1),
                        formulas.s2_closed(dims, start, end),
                    )


def _gen_motzkin(dom: Mapping[str, int]) -> Iterator[Row]:
    n = dom["s"]
    table = dp.di_table(TableDims(n, n), 1)
    for s in range(1, n + 1):
        yield (("s", s),), table.get(s, 1), formulas.motzkin_number(s - 1)


def _gen_catalan(dom: Mapping[str, int]) -> Iterator[Row]:
    kmax = dom["k"]
    table = dp.a_table(2 * kmax + 1)
    for k in range(kmax + 1):
        yield (("k", k),), table.get(2 * k + 1, 1), formulas.catalan_number(k)


def _gen_flip(dom: Mapping[str, int]) -> Iterator[Row]:
    for m in range(1, dom["m"] + 1):
        widest = TableDims(m, dom["n"])
        tables = [dp.di_table(widest, i) for i in range(1, m + 1)]
        for n in range(1, dom["n"] + 1):
            for i in range(1, m + 1):
                flipped = tables[m - i]  # start row m + 1 - i
                for s in range(1, n + 1):
                    for t in range(1, m + 1):
                        yield (
                            (("m", m), ("n", n), ("i", i), ("s", s), ("t", t)),
                            tables[i - 1].get(s, t),
                            flipped.get(s, m + 1 - t),
                        )


def _gen_reversal(dom: Mapping[str, int]) -> Iterator[Row]:
    for n in range(1, dom["n"] + 1):
        dims = TableDims(n, n)
        yield (
            (("n", n),),
            dp.d_table(dims).get(n, n),
            dp.h_table(dims).get(n, n),
        )


# id -> (default domain, generator, expected verdict class)
_REGISTRY: dict[str, tuple[dict[str, int], Callable, str]] = {
    "A-CLOSED": ({"s": 12}, _gen_a_closed, PASS),
    "D1-VIA-A": ({"s": 12}, partial(_gen_d1_formula, fn="d1_via_a"), PASS),
    "D1-CLOSED": ({"s": 12}, partial(_gen_d1_formula, fn="d1_closed"), PASS),
    "H-SQUARE": ({"m": 6, "n": 12}, _gen_h_square, PASS),
    "D1-SPLIT": ({"m": 6, "n": 12}, _gen_d1_split, PASS),
    "D-BOUNDARY": (
        {"m": 6, "n": 12},
        partial(_gen_d_boundary, fn="d_boundary"),
        PASS,
    ),
    "D-BOUNDARY-PRINTED": (
        {"m": 6, "n": 12},
        partial(_gen_d_boundary, fn="d_boundary_printed"),
        DOCUMENTED_FAILURE,
    ),
    "INNER-PRODUCT": ({"m": 6, "n": 12}, _gen_inner_product, PASS),
    "S-FREE": ({"y": 10}, partial(_gen_s_free, fn="s_free_closed"), PASS),
    "S-FREE-PRINTED": (
        {"y": 10},
        partial(_gen_s_free, fn="s_free_printed"),
        DOCUMENTED_FAILURE,
    ),
    "S2": ({"m": 5}, _gen_s2, PASS),
    "MOTZKIN-EDGE": ({"s": 8}, _gen_motzkin, PASS),
    "CATALAN-EDGE": ({"k": 5}, _gen_catalan, PASS),
    "FLIP-SYMMETRY": ({"m": 6, "n": 12}, _gen_flip, PASS),
    "REVERSAL": ({"n": 10}, _gen_reversal, PASS),
}

IDENTITY_IDS = tuple(_REGISTRY)

# Smallest upper bound per axis at which every identity that uses the
# axis still has at least one grid point.
_AXIS_MIN = {"m": 1, "n": 1, "s": 1, "y": 0, "k": 0}


def default_spec(
    identity: str, overrides: Optional[Mapping[str, int]] = None
) -> IdentitySpec:
    """Spec for one identity, with optional axis upper-bound overrides.

    Override keys that the identity does not use are ignored; an
    override below its axis's lower bound (1 for m, n and s, 0 for y
    and k) is rejected, because it would leave the grid empty.
    """
    if identity not in _REGISTRY:
        raise ValueError(f"unknown identity id {identity!r}")
    domain, _, expected = _REGISTRY[identity]
    merged = dict(domain)
    for axis, value in (overrides or {}).items():
        if axis in merged:
            if value < _AXIS_MIN[axis]:
                raise ValueError(
                    f"{identity}: max {axis} must be at least "
                    f"{_AXIS_MIN[axis]}, got {value}"
                )
            merged[axis] = value
    return IdentitySpec(identity, tuple(sorted(merged.items())), expected)


def default_suite(
    overrides: Optional[Mapping[str, int]] = None,
) -> list[IdentitySpec]:
    return [default_spec(identity, overrides) for identity in IDENTITY_IDS]


def run_identity(spec: IdentitySpec) -> IdentityReport:
    """Evaluate both sides on every grid point; deterministic report.

    A run that checks no case is FAIL whatever the expected verdict.
    """
    if spec.identity not in _REGISTRY:
        raise ValueError(f"unknown identity id {spec.identity!r}")
    _, gen, _ = _REGISTRY[spec.identity]
    cases = 0
    failures = 0
    first: Optional[Counterexample] = None
    for params, lhs, rhs in gen(spec.domain_dict()):
        cases += 1
        if lhs != rhs:
            failures += 1
            if first is None:
                first = Counterexample(params, lhs, rhs)
    if spec.expected == PASS:
        verdict = PASS if failures == 0 and cases > 0 else FAIL
    else:
        verdict = DOCUMENTED_FAILURE_CONFIRMED if failures > 0 else FAIL
    return IdentityReport(spec, cases, failures, first, verdict)


def verdict_as_expected(report: IdentityReport) -> bool:
    if report.spec.expected == PASS:
        return report.verdict == PASS
    return report.verdict == DOCUMENTED_FAILURE_CONFIRMED


def run_suite(specs: list[IdentitySpec]) -> tuple[list[IdentityReport], bool]:
    reports = [run_identity(spec) for spec in specs]
    return reports, all(verdict_as_expected(r) for r in reports)


def reports_to_json(reports: list[IdentityReport]) -> str:
    """Deterministic serialization; big counts appear as decimal strings."""
    payload = {
        "reports": [r.to_dict() for r in reports],
        "all_as_expected": all(verdict_as_expected(r) for r in reports),
    }
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# Domain calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
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

    def profile_dict(self) -> dict[int, int]:
        return dict(self.profile)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "searched": {a: list(b) for a, b in self.searched},
            "axis_box": {a: list(b) for a, b in self.axis_box},
            "profile": {str(k): v for k, v in self.profile},
        }


def _h_square_fails(m: int, n: int) -> bool:
    # H(n, m) sums column n of the start-row-1 table.
    truth = sum(formulas._d1_table(m, n).column(n))
    return formulas._h_square_value(n, m) != truth


def _s2_fails(m: int, span: int) -> bool:
    dims = TableDims(m, span + 1)
    for r0 in range(1, m + 1):
        # The last column of the table from (1, r0) holds the pair
        # counts from (1, r0) to every end row.
        truth = dp.di_table(dims, r0).column(span + 1)
        for r1 in range(1, m + 1):
            if formulas._s2_value(m, span, r0, r1) != truth[r1 - 1]:
                return True
    return False


def _d_boundary_fails(fn: str, m: int, n: int, s: int, t: int) -> bool:
    if s > n or t > m:
        return False
    table = formulas._d_table(m, n)
    return getattr(formulas, fn)(table.dims, s, t) != table.get(s, t)


_D_BOUNDARY_AXES = (("m", (1, 6)), ("n", (1, 12)), ("s", (1, 12)), ("t", (1, 6)))

# id -> (axes in shrink order with their searched (lo, hi), failure
# predicate taking one value per axis and False off the domain, s > n)
_CALIBRATION: dict[str, tuple[tuple, Callable[..., bool]]] = {
    "H-SQUARE": ((("m", (1, 5)), ("n", (1, 12))), _h_square_fails),
    "S2": ((("m", (1, 4)), ("span", (0, 8))), _s2_fails),
    "D-BOUNDARY": (_D_BOUNDARY_AXES, partial(_d_boundary_fails, "d_boundary")),
    "D-BOUNDARY-PRINTED": (
        _D_BOUNDARY_AXES,
        partial(_d_boundary_fails, "d_boundary_printed"),
    ),
}


def _passes_up_to(fails: Callable[..., bool], box: dict, axis: str) -> int:
    """Largest b such that ``fails`` holds nowhere in the box (axis ->
    (lo, hi), in the predicate's argument order) with ``axis`` cut to
    (lo, b): one below the first failing value of ``axis``, else the top
    of its range (lo - 1 if it is empty).  Cutting a failure-free box
    keeps it failure-free, so scanning up from lo finds b."""
    lo, hi = box[axis]
    for value in range(lo, hi + 1):
        slab = {**box, axis: (value, value)}.values()
        points = product(*(range(a, b + 1) for a, b in slab))
        if any(starmap(fails, points)):
            return value - 1
    return max(hi, lo - 1)


def calibrate_domain(
    identity: str, overrides: Optional[Mapping[str, int]] = None
) -> CalibrationResult:
    """Probe an identity over a search box and report where it holds.

    The axis box is shrunk greedily: axes are visited in declared order
    (m first) and each axis upper bound is lowered to the largest value
    that removes every failure given the other axes' current ranges; an
    axis whose full collapse still leaves failures is left untouched.
    """
    if identity not in _CALIBRATION:
        raise ValueError(f"no calibration defined for identity {identity!r}")
    axes, fails = _CALIBRATION[identity]
    caps = overrides or {}
    searched = tuple(
        (name, (lo, min(hi, caps.get(name, hi)))) for name, (lo, hi) in axes
    )

    box = dict(searched)
    for name, (lo, hi) in searched:
        bound = _passes_up_to(fails, box, name)
        if bound >= hi:  # no failure left in the box
            break
        if bound >= lo:
            box[name] = (lo, bound)

    # The profile scans every other axis over its declared range, so an
    # override on, say, s does not hide the failures at larger s.
    (p_name, (plo, phi)), (q_name, (qlo, qhi)) = searched[:2]
    profile = []
    for p in range(plo, phi + 1):
        row = {**dict(axes), p_name: (p, p), q_name: (qlo, qhi)}
        profile.append((p, _passes_up_to(fails, row, q_name)))

    return CalibrationResult(
        identity=identity,
        searched=searched,
        axis_box=tuple(box.items()),
        profile=tuple(profile),
    )
