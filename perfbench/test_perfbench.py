"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import ExitStack

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

from tablepaths import oracle  # noqa: E402
from tablepaths.core import Cell, TableDims  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_requests(name):
    workload = workloads.WORKLOADS[name]
    assert workload.requests(7) == workload.requests(7)
    lists = {tuple(workload.requests(seed)) for seed in range(10)}
    assert len(lists) > 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_gives_the_same_work_and_checkable_requests(name):
    workload = workloads.WORKLOADS[name]
    digests = checks.load_digests()
    universe = set(workload.universe())
    sizes, works = set(), set()
    for seed in range(20):
        reqs = workload.requests(seed)
        assert set(reqs) <= universe
        assert len(reqs) >= run.TAIL_BEYOND + 1
        sizes.add(len(reqs))
        works.add(sum(checks.request_work(r, digests) for r in reqs))
    assert len(sizes) == 1
    assert len(works) == 1


def test_metric_names_and_benchmark_json_match_the_code():
    e2e = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert e2e == list(run.END_TO_END_UNITS.items())
    assert layers == tracing.per_layer_metrics()
    names = [n for n, _ in e2e + layers]
    assert len(names) == len(set(names))
    for n in names + [w["name"] for w in BENCHMARK["workloads"]]:
        assert NAME.fullmatch(n), n
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_powering_and_recurrence_agree_with_the_oracle():
    for m in range(1, 6):
        for span in range(0, 9):
            for r0 in range(1, m + 1):
                row = checks.band_power_row(m, r0 - 1, span)
                for r1 in range(1, m + 1):
                    assert row[r1 - 1] == oracle.brute_pair_count(
                        TableDims(m, span + 1), Cell(1, r0), Cell(span + 1, r1))
        imn = checks.sequence_values("imn-fixed-m", m, 9)
        bottom = checks.sequence_values("d1-bottom-row", m, 9)
        for n in range(1, 10):
            assert imn[n - 1] == oracle.brute_imn(TableDims(m, n))
            assert bottom[n - 1] == oracle.brute_pair_count(
                TableDims(m, n), Cell(1, 1), Cell(n, 1))


def _corrupt(text: str) -> str:
    # Change the last digit in the output.
    i = max(i for i, c in enumerate(text) if c.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("argv, check", [
    (("verify", "--identity", "S-FREE-PRINTED"), workloads.VERDICTS),
    (("verify", "--identity", "S2", "--format", "json"), workloads.VERDICTS),
    (("table", "--kind", "a", "-m", "7", "-n", "7", "--format", "markdown"),
     workloads.ORACLE_TABLE),
    (("table", "--kind", "h", "-m", "6", "-n", "8", "--format", "json"),
     workloads.ORACLE_TABLE),
    (("count", "-m", "14", "-n", "3000", "--from-col", "1", "--from-row", "3",
      "--to-col", "3000", "--to-row", "9"), workloads.COUNT),
    (("sequence", "--target", "imn-fixed-m", "-m", "12", "--max-n", "300",
      "--format", "csv"), workloads.SEQUENCE),
    (("words", "--length", "7", "--floor", "2", "--ceiling", "5",
      "--format", "json"), workloads.DIGEST),
])
def test_checker_accepts_the_output_and_rejects_a_corrupted_one(argv, check):
    req = workloads.Request(argv, check)
    digests = {req.key: _record(req)} if check in (
        workloads.DIGEST, workloads.VERDICTS) else None
    exp = checks.build_expectations([req], digests)[req.key]
    out = run.run_in_process(argv, True)
    assert run.classify(out, exp, sys.int_info.default_max_str_digits) == "ok"
    for bad in (_corrupt(out.text), "garbage\n"):
        out.text, out.sha256 = bad, checks.sha256_text(bad)
        assert run.classify(out, exp, sys.int_info.default_max_str_digits) == "wrong"


def _record(req):
    # A digest record as record_digests.py would write it.
    out = run.run_in_process(req.argv, True)
    if req.check == workloads.VERDICTS:
        return {"work": 1, "verdicts": checks.verdict_digest(
            out.text, checks.request_format(req))}
    return {"work": 1, "sha256": out.sha256}


def _count_request(m, span):
    return workloads.Request(
        ("count", "-m", str(m), "-n", str(span + 1), "--from-col", "1",
         "--from-row", "1", "--to-col", str(span + 1), "--to-row", "2"),
        workloads.COUNT)


def test_answer_over_the_digit_limit_is_refused_not_wrong():
    limit = sys.int_info.default_max_str_digits
    req = _count_request(4, 20000)
    exp = checks.build_expectations([req])[req.key]
    assert exp.digits > limit
    out = run.run_in_process(req.argv, True)
    assert run.classify(out, exp, limit) == "refused"
    # Without a limit in the child, the same clean error is a failure.
    assert run.classify(out, exp, 0) == "wrong"


def test_clean_error_on_an_answer_under_the_digit_limit_is_wrong():
    limit = sys.int_info.default_max_str_digits
    req = _count_request(4, 2000)
    exp = checks.build_expectations([req])[req.key]
    assert 0 < exp.digits < limit
    out = run.Outcome(0.1, None, 10.0, 1, checks.sha256_text(""), 0, "",
                      "error: work budget exceeded\n")
    assert run.classify(out, exp, limit) == "wrong"


def test_self_times_and_unattributed_time_add_up_to_the_traced_wall():
    from tablepaths import cli

    renderer = cli.render_table_csv
    requests = [
        workloads.Request(("verify", "--identity", "D1-SPLIT"), workloads.VERDICTS),
        workloads.Request(("verify", "--identity", "H-SQUARE"), workloads.VERDICTS),
        workloads.Request(("table", "--kind", "h", "-m", "6", "-n", "8",
                           "--format", "csv"), workloads.ORACLE_TABLE),
        workloads.Request(("words", "--length", "7", "-m", "4"), workloads.DIGEST),
    ]
    tracer = tracing.Tracer()
    with ExitStack() as patches:
        tracer.instrument(patches)
        for i, req in enumerate(requests):
            tracer.request = i
            assert run.run_in_process(req.argv, False, tracer).exit_code == 0
    assert cli.render_table_csv is renderer
    self_times = tracer.self_times()
    assert min(self_times) > -1e-9
    top = sum(e - s for _, s, e, parent, _, _ in tracer.spans if parent < 0)
    assert sum(self_times) == pytest.approx(top, rel=1e-9)
    m = tracer.metrics()
    layer_self = (m["dp.march_s"] + m["core.matrix_s"] + m["verify.driver_s"]
                  + m["oracle.dfs_s"] + m["cli.render_s"] + m["cli.self_s"]
                  + sum(m[f"formulas.{fn}.s"] for fn in tracing.FORMULAS))
    assert layer_self == pytest.approx(top, rel=1e-9)
    assert m["verify.D1-SPLIT.cases"] == 6 * sum(range(1, 13))
    assert m["oracle.words"] > 0 and m["formulas.dp_builds"] > 0
    assert m["core.matrix_cells"] >= 48
