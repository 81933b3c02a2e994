import hashlib
import sys

import pytest

from tablepaths import dp, formulas, verify
from tablepaths.cli import CAP_AXES, _render_verify_json
from tablepaths.core import CountMatrix, TableDims
from tablepaths.verify import (
    IDENTITY_IDS,
    IdentitySpec,
    calibrate_domain,
    default_spec,
    default_suite,
    run_identity,
    run_suite,
)

EXPECTED_PASS = {
    "A-CLOSED",
    "D1-VIA-A",
    "D1-CLOSED",
    "H-SQUARE",
    "D1-SPLIT",
    "D-BOUNDARY",
    "INNER-PRODUCT",
    "S-FREE",
    "S2",
    "MOTZKIN-EDGE",
    "CATALAN-EDGE",
    "FLIP-SYMMETRY",
    "REVERSAL",
}
EXPECTED_DOCUMENTED = {"D-BOUNDARY-PRINTED", "S-FREE-PRINTED"}


def test_registry_covers_every_identity():
    assert set(IDENTITY_IDS) == EXPECTED_PASS | EXPECTED_DOCUMENTED


def test_cap_axes_are_the_default_domain_axes():
    # The CLI adds one --max-<axis> option per entry, so each must cap
    # some identity and every capped axis must have an option.
    domains = {axis for spec in default_suite() for axis, _ in spec.domain}
    assert set(CAP_AXES) == domains and len(CAP_AXES) == len(domains)


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        default_spec("NOPE")


def _json_digest(reports, all_ok) -> str:
    # sha256 of `verify --format json` stdout.
    return hashlib.sha256(_render_verify_json(reports, all_ok).encode()).hexdigest()


def test_default_suite_partition():
    reports, all_ok = run_suite(default_suite())
    assert all_ok
    assert _json_digest(reports, all_ok) == (
        "81dcfc3ee5bb4752d103a93d4b366aea2e1c4f1683b4cceaa706ea55071e71b6"
    )
    by_id = {r.spec.identity: r for r in reports}
    for identity in EXPECTED_PASS:
        rep = by_id[identity]
        assert rep.verdict == "PASS" and rep.failures == 0, identity
        assert rep.cases_checked > 0
        assert rep.first_counterexample is None
    for identity in EXPECTED_DOCUMENTED:
        rep = by_id[identity]
        assert rep.verdict == "DOCUMENTED-FAILURE-CONFIRMED", identity
        assert rep.failures > 0
        assert rep.first_counterexample is not None
    assert {i: by_id[i].failures for i in EXPECTED_DOCUMENTED} == {
        "D-BOUNDARY-PRINTED": 1246,
        "S-FREE-PRINTED": 116,
    }


def test_first_counterexamples_are_frozen_grid_minima():
    rep = run_identity(default_spec("D-BOUNDARY-PRINTED"))
    ce = rep.first_counterexample
    assert dict(ce.params) == {"m": 1, "n": 2, "s": 2, "t": 1}
    assert (ce.lhs, ce.rhs) == (1, 3)

    rep = run_identity(default_spec("S-FREE-PRINTED"))
    ce = rep.first_counterexample
    assert dict(ce.params) == {"y": 0, "x": 0}
    assert (ce.lhs, ce.rhs) == (1, 0)


def test_first_counterexample_is_first_in_its_line(monkeypatch):
    # Two wrong values in one line (s = 3, t = 2 and 3): both count, and
    # the first in grid order is reported.  The patched module attribute
    # takes effect because formulas are looked up by name when they run.
    real = formulas.d1_via_a
    monkeypatch.setattr(
        formulas, "d1_via_a", lambda s, t: real(s, t) + (s == 3 and t >= 2)
    )
    rep = run_identity(default_spec("D1-VIA-A", {"s": 4}))
    assert rep.failures == 2
    ce = rep.first_counterexample
    assert dict(ce.params) == {"s": 3, "t": 2}
    assert ce.rhs == ce.lhs + 1 == real(3, 2) + 1


def _first_in_axis_order(grid, lhs, rhs):
    """(params, lhs, rhs) of the first failing point of ``grid``, a list
    of axis-value dicts in axis order, found by a plain loop."""
    for point in grid:
        if lhs(point) != rhs(point):
            return tuple(point.items()), lhs(point), rhs(point)


def test_box_failures_unravel_in_grid_order(monkeypatch):
    # Two wrong D-BOUNDARY values in one (s, t) box: the later one has the
    # larger s but the smaller t, so an unravel in the wrong axis order
    # would report it first.
    real = formulas.d_boundary
    bad = {(4, 7, 5, 3), (4, 7, 6, 2)}
    monkeypatch.setattr(formulas, "d_boundary", lambda dims, s, t: real(dims, s, t)
                        + ((dims.rows, dims.cols, s, t) in bad))
    rep = run_identity(default_spec("D-BOUNDARY"))
    assert rep.failures == 2 and rep.cases_checked == 1638
    grid = [{"m": m, "n": n, "s": s, "t": t} for m in range(1, 7)
            for n in range(1, 13) for s in range(1, n + 1) for t in range(1, m + 1)]
    expected = _first_in_axis_order(
        grid,
        lambda p: dp.cached("d_table", p["m"], 12).get(p["s"], p["t"]),
        lambda p: formulas.d_boundary(TableDims(p["m"], p["n"]), p["s"], p["t"]),
    )
    assert tuple(rep.first_counterexample) == expected
    assert dict(expected[0]) == {"m": 4, "n": 7, "s": 5, "t": 3}

    # One wrong engine entry, D^2(7, 3) at m = 4, in the last column, so
    # only n = 7 reads it: once as D^2(s, t) and once flipped, as the
    # other side of D^3(7, 2).
    monkeypatch.undo()
    real_cached = dp.cached

    def planted(family, *args):
        table = real_cached(family, *args)
        if (family, *args) != ("di_table", 4, 7, 2):
            return table
        cols = [list(table.column(s)) for s in range(1, 8)]
        cols[6][2] += 1
        return CountMatrix(table.dims, cols)

    _clear_memos()
    monkeypatch.setattr(dp, "cached", planted)
    rep = run_identity(default_spec("FLIP-SYMMETRY", {"m": 5, "n": 7}))
    monkeypatch.undo()
    _clear_memos()
    assert rep.failures == 2 and rep.verdict == "FAIL"
    grid = [{"m": m, "i": i, "n": n, "s": s, "t": t} for m in range(1, 6)
            for i in range(1, m + 1) for n in range(1, 8)
            for s in range(1, n + 1) for t in range(1, m + 1)]
    expected = _first_in_axis_order(
        grid,
        lambda p: planted("di_table", p["m"], 7, p["i"]).get(p["s"], p["t"]),
        lambda p: planted("di_table", p["m"], 7, p["m"] + 1 - p["i"]).get(
            p["s"], p["m"] + 1 - p["t"]),
    )
    assert tuple(rep.first_counterexample) == expected
    assert dict(expected[0]) == {"m": 4, "i": 2, "n": 7, "s": 7, "t": 3}


def test_restricting_printed_identity_to_passing_box_deviates():
    # On a box where the late-start variant happens to agree, the
    # documented failure cannot be confirmed, so the verdict is FAIL.
    rep = run_identity(default_spec("D-BOUNDARY-PRINTED", {"n": 1}))
    assert rep.failures == 0
    assert rep.verdict == "FAIL"


def test_domain_overrides_shrink_grid():
    full = run_identity(default_spec("D1-VIA-A"))
    small = run_identity(default_spec("D1-VIA-A", {"s": 3}))
    assert small.cases_checked == 6 < full.cases_checked
    # Unknown axes are ignored rather than rejected.
    same = run_identity(default_spec("D1-VIA-A", {"y": 1}))
    assert same.cases_checked == full.cases_checked


@pytest.mark.parametrize(
    "identity, axis, value",
    [
        ("S2", "m", 0),
        ("S2", "m", -1),
        ("FLIP-SYMMETRY", "n", 0),
        ("S-FREE", "y", -1),
        ("A-CLOSED", "s", 0),
        ("CATALAN-EDGE", "k", -1),
    ],
)
def test_override_below_axis_bound_rejected(identity, axis, value):
    with pytest.raises(ValueError, match="must be at least"):
        default_spec(identity, {axis: value})


def test_axis_lower_bounds_leave_a_case_everywhere():
    lowest = {"m": 1, "n": 1, "s": 1, "y": 0, "k": 0}
    for identity in IDENTITY_IDS:
        assert run_identity(default_spec(identity, lowest)).cases_checked >= 1
    assert run_identity(default_spec("S-FREE", {"y": 0})).cases_checked == 1
    assert run_identity(default_spec("CATALAN-EDGE", {"k": 0})).cases_checked == 1
    # The one-row, one-column grid: every (s, t) and (r0, r1) box holds one
    # point, and S2 at m = 1 checks its three spans.
    edge = {}
    for identity in IDENTITY_IDS:
        rep = run_identity(default_spec(identity, {"m": 1, "n": 1}))
        edge[identity] = (rep.cases_checked, rep.failures, rep.verdict)
    assert edge == {
        **{i: (78, 0, "PASS") for i in ("A-CLOSED", "D1-VIA-A", "D1-CLOSED")},
        **{i: (1, 0, "PASS") for i in (
            "H-SQUARE", "D1-SPLIT", "D-BOUNDARY", "INNER-PRODUCT",
            "FLIP-SYMMETRY", "REVERSAL")},
        "D-BOUNDARY-PRINTED": (1, 0, "FAIL"),
        "S-FREE": (121, 0, "PASS"),
        "S-FREE-PRINTED": (121, 116, "DOCUMENTED-FAILURE-CONFIRMED"),
        "S2": (3, 0, "PASS"),
        "MOTZKIN-EDGE": (8, 0, "PASS"),
        "CATALAN-EDGE": (6, 0, "PASS"),
    }


@pytest.mark.parametrize(
    "spec",
    [
        IdentitySpec("S2", (("m", 0),), "PASS"),
        IdentitySpec("S-FREE", (("y", -1),), "PASS"),
        IdentitySpec("S-FREE-PRINTED", (("y", -1),), "DOCUMENTED-FAILURE"),
    ],
)
def test_zero_case_run_is_never_pass(spec):
    rep = run_identity(spec)
    assert rep.cases_checked == 0
    assert rep.verdict == "FAIL"


def _count_engine_builds(monkeypatch) -> list:
    """Record (function name, args) of every dp table build and march."""
    calls = []
    for name in ("di_table", "d_table", "bounded_pair_count", "h_table", "imn"):
        real = getattr(dp, name)

        def counted(*args, _name=name, _real=real):
            calls.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(dp, name, counted)
    return calls


def _clear_memos():
    """Empty the table memo and every memo in formulas and verify, so a
    build count starts from nothing built."""
    dp.cached.cache_clear()
    for value in (*vars(formulas).values(), *vars(verify).values()):
        if hasattr(value, "cache_info"):
            value.cache_clear()


def test_formula_sides_that_read_the_engine(monkeypatch):
    # The identities whose formula side reads an engine table, with the
    # table family each reads; closed forms that never read one would
    # leave this set empty.
    reads, current = set(), []
    real = dp.cached

    def spy(*args):
        if sys._getframe(1).f_globals["__name__"] == "tablepaths.formulas":
            reads.add((current[-1], args[0]))
        return real(*args)

    spy.cache_clear = real.cache_clear
    monkeypatch.setattr(dp, "cached", spy)
    for identity in IDENTITY_IDS:
        _clear_memos()
        current.append(identity)
        run_identity(default_spec(identity))
    _clear_memos()
    # H-SQUARE reads only its D^1 factors: its D(n, n) is a closed form.
    assert reads == {
        *((identity, "di_table") for identity in (
            "D1-SPLIT", "D-BOUNDARY", "D-BOUNDARY-PRINTED", "H-SQUARE", "S2")),
        ("INNER-PRODUCT", "d_table"),
    }


def test_engine_tables_built_once_per_shape(monkeypatch):
    calls = _count_engine_builds(monkeypatch)

    _clear_memos()
    run_identity(default_spec("D-BOUNDARY"))
    start_row_1 = [a for name, a in calls if name == "di_table" and a[1] == 1]
    # The formula reads each height's table at the power of two at or
    # above s - 1: widths 1, 2, 4, 8 and 16 at each of 6 heights.  One
    # per distinct (m, s - 1) would make 66, one per grid point 1,386.
    assert len(start_row_1) <= 30
    assert set(start_row_1) == {
        (TableDims(m, w), 1) for m in range(1, 7) for w in (1, 2, 4, 8, 16)
    }
    # Engine side: one start-anywhere table per m at the widest column.
    assert [a for name, a in calls if name == "d_table"] == [
        (TableDims(m, 12),) for m in range(1, 7)
    ]

    _clear_memos()
    calls.clear()
    run_identity(default_spec("S2"))
    assert not [a for name, a in calls if name == "bounded_pair_count"]
    # Engine side: one width-(m + 2) table per (m, r0).
    engine = [a for name, a in calls if a[0].cols == a[0].rows + 2]
    assert engine == [
        (TableDims(m, m + 2), r0) for m in range(1, 6) for r0 in range(1, m + 1)
    ]

    _clear_memos()
    calls.clear()
    run_identity(default_spec("FLIP-SYMMETRY"))
    # Each line reads start rows i and m + 1 - i, so the order differs.
    assert sorted(calls, key=lambda c: (c[1][0].rows, c[1][1])) == [
        ("di_table", (TableDims(m, 12), i))
        for m in range(1, 7)
        for i in range(1, m + 1)
    ]

    # D1-SPLIT and INNER-PRODUCT read the same power-of-two widths on
    # their formula side, and width 12 on their engine side.
    widths = (1, 2, 4, 8, 16, 12)
    for identity, family, start in (("D1-SPLIT", "di_table", (1,)),
                                    ("INNER-PRODUCT", "d_table", ())):
        _clear_memos()
        calls.clear()
        run_identity(default_spec(identity))
        assert len(calls) <= 36
        assert set(calls) == {
            (family, (TableDims(m, w), *start)) for m in range(1, 7) for w in widths
        }

    # H(n, m) and I_m(n) are column sums of tables built once per m, not
    # a prefix-sum table or a march per (m, n).
    _clear_memos()
    calls.clear()
    run_identity(default_spec("H-SQUARE", DOUBLED_GRID))
    assert [name for name, _ in calls].count("h_table") == 0
    _clear_memos()
    calls.clear()
    run_identity(default_spec("INNER-PRODUCT", DOUBLED_GRID))
    assert [name for name, _ in calls].count("imn") == 0

    # S2 holds on every span, so it has no window to probe past.
    with pytest.raises(ValueError, match="no calibration defined for identity 'S2'"):
        calibrate_domain("S2")


def test_flip_symmetry_builds_do_not_grow_with_n(monkeypatch):
    # At m = 130 one height needs more start-row tables than the memo's
    # 128; walking (m, i) outermost reads the same two tables over every
    # n, so a wider grid rebuilds nothing.
    calls = _count_engine_builds(monkeypatch)
    builds = []
    for n in (1, 2):
        _clear_memos()
        calls.clear()
        report = run_identity(default_spec("FLIP-SYMMETRY", {"m": 130, "n": n}))
        assert report.verdict == "PASS"
        builds.append(len(calls))
    _clear_memos()
    assert builds[0] == builds[1]


DOUBLED_GRID = {"m": 12, "n": 24, "s": 24, "y": 20, "k": 10}
DOUBLED_CASES = {
    "A-CLOSED": 300,
    "D1-VIA-A": 300,
    "D1-CLOSED": 300,
    "H-SQUARE": 90,
    "D1-SPLIT": 3600,
    "D-BOUNDARY": 23400,
    "D-BOUNDARY-PRINTED": 23400,
    "INNER-PRODUCT": 3600,
    "S-FREE": 441,
    "S-FREE-PRINTED": 441,
    "S2": 7384,
    "MOTZKIN-EDGE": 24,
    "CATALAN-EDGE": 11,
    "FLIP-SYMMETRY": 195000,
    "REVERSAL": 24,
}


def test_doubled_grid_suite():
    reports, all_ok = run_suite(default_suite(DOUBLED_GRID))
    assert all_ok
    assert {r.spec.identity: r.cases_checked for r in reports} == DOUBLED_CASES
    assert {r.spec.identity: r.failures for r in reports if r.failures} == {
        "D-BOUNDARY-PRINTED": 18773,
        "S-FREE-PRINTED": 436,
    }
    assert _json_digest(reports, all_ok) == (
        "4f324ff307ae7eace21acaddfa474788f481cb58bac8066f122b87567a5b5fba"
    )


def test_doubled_grid_computes_each_value_once():
    # 23,400 D-BOUNDARY points hold 1,872 distinct (m, s, t): the table's
    # width only bounds the cell check, so it is not part of the key.
    _clear_memos()
    run_identity(default_spec("D-BOUNDARY", DOUBLED_GRID))
    info = formulas._d_boundary_value.cache_info()
    assert info.misses <= 1872 == sum(24 * m for m in range(1, 13))
    assert info.currsize == info.misses
    # S2 reads 2 * span + 1 free counts per point; each (|x|, y, pinned)
    # is summed once, and none is evicted and summed again.
    _clear_memos()
    run_identity(default_spec("S2", DOUBLED_GRID))
    info = formulas._s_free_sum.cache_info()
    assert info.misses == info.currsize < info.hits


def test_reports_serialize_deterministically():
    specs = [default_spec("S-FREE", {"y": 6}), default_spec("S-FREE-PRINTED", {"y": 6})]
    first = _render_verify_json(*run_suite(specs))
    second = _render_verify_json(*run_suite(specs))
    assert first == second
    assert '"lhs": "1"' in first  # counts serialized as decimal strings


def test_calibrate_h_square_profile():
    result = calibrate_domain("H-SQUARE")
    profile = dict(result.profile)
    # The declared window n <= 2m passes everywhere; the probe finds one
    # extra column of slack beyond it.
    for m in range(1, 6):
        assert profile[m] >= 2 * m
    assert profile == {1: 3, 2: 5, 3: 7, 4: 9, 5: 11}
    assert dict(result.axis_box)["n"] == (1, 3)


def test_calibrate_d_boundary_full_box():
    result = calibrate_domain("D-BOUNDARY")
    assert result.axis_box == result.searched
    assert dict(result.profile) == {m: 12 for m in range(1, 7)}


def test_calibrate_d_boundary_printed_collapses():
    result = calibrate_domain("D-BOUNDARY-PRINTED")
    assert dict(result.axis_box)["n"] == (1, 1)
    assert dict(result.profile) == {m: 1 for m in range(1, 7)}


def test_calibrate_unknown_identity_rejected():
    with pytest.raises(ValueError):
        calibrate_domain("A-CLOSED")


def test_calibrate_respects_overrides():
    result = calibrate_domain("H-SQUARE", {"m": 3, "n": 6})
    assert dict(result.profile) == {1: 3, 2: 5, 3: 6}
    # An empty n range passes up to n = 0, however far below 1 the cap is.
    for cap in (0, -3):
        result = calibrate_domain("H-SQUARE", {"m": 2, "n": cap})
        assert dict(result.profile) == {1: 0, 2: 0}
        assert dict(result.axis_box)["n"] == (1, cap)
    # The profile scans the axes outside it (s, t) over their declared
    # ranges, so a cap on s does not hide the failures at larger s.
    small = {"m": 3, "n": 5, "s": 4}
    for identity, overrides, n_box, profile in [
        ("D-BOUNDARY-PRINTED", {"s": 1}, (1, 12), {m: 1 for m in range(1, 7)}),
        ("D-BOUNDARY-PRINTED", small, (1, 1), {1: 1, 2: 1, 3: 1}),
        ("D-BOUNDARY", {"s": 1}, (1, 12), {m: 12 for m in range(1, 7)}),
        ("D-BOUNDARY", small, (1, 5), {1: 5, 2: 5, 3: 5}),
        # An empty t range leaves the searched box empty; the failures
        # are still found over the declared box.
        ("D-BOUNDARY", {"t": 0}, (1, 12), {m: 12 for m in range(1, 7)}),
        ("D-BOUNDARY-PRINTED", {"t": 0}, (1, 12), {m: 1 for m in range(1, 7)}),
    ]:
        result = calibrate_domain(identity, overrides)
        assert dict(result.axis_box)["n"] == n_box, (identity, overrides)
        assert dict(result.profile) == profile, (identity, overrides)
