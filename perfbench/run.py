"""End-to-end and per-layer benchmark of the tablepaths command line.

Run from the repository root:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every request runs the real CLI (``python -m
tablepaths ...``) as a fresh process, process start included.  One
client sends the requests in a closed loop, one at a time; the requests
run on one CPU and the client, which reads and checks their output, on
the others (see ``Spawner``).  Every output is
checked (see checks.py); a request fails on a wrong output, an
unexpected exit code or a timeout.  The end-to-end metrics are:

* ``setup_s``: median wall time of ``python -m tablepaths --help``
  (interpreter start, package import, parser build), which every
  request pays, sampled before every second request;
* ``wall_s``: wall time of one pass over the workload's requests,
  summing each request's median over the run's passes;
* ``latency_p50_s`` and ``latency_tail_s``: the median and the highest
  percentile with at least ten samples beyond it, over all requests of
  the run (the percentile and sample count go to the info line);
* ``work_rate``: work completed by successful requests in one pass,
  per second of ``wall_s``, in the workload's unit;
* ``peak_rss_mb``: the largest peak RSS of any request process;
* ``ok_rate``: successful requests over attempted requests.

Every time above is scaled to a machine of fixed speed (see
``scaled_s``); the unscaled pass times and set-up median go to the info
line.

With ``--trace 1`` the same requests run through ``cli.main`` in this
process, in an untraced pass, a pass with every layer wrapped (see
tracing.py) and another untraced pass, and the per-layer metrics are
reported instead.

The second-to-last line of stdout is an info object (Python version,
core count, int->str digit limit, commit, seed, sample counts); the
last line is the result object.  Its ``correct`` is false when a request
printed a wrong answer, exited with an unexpected code, crashed or timed
out.  A request whose answer has more digits than the interpreter's
int->str limit (4,300 by default) and that the CLI refuses with its
documented one-line error and exit 1, as at the seed commit, counts in
``failed`` only.  Exit status is 0 when the run completed, whether or
not requests failed, and 2 when the benchmark itself cannot run (for
example when ``src/tablepaths`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import selectors
import socket
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REQUEST_TIMEOUT_S = 60.0
# A pass over any workload takes 4-7 s on a 2-vCPU x86 VM at the seed
# commit.  A run makes round(seconds / PASS_SECONDS) passes, so the
# number of samples, and with it the tail percentile, is fixed by
# --seconds and does not depend on the machine's speed.
PASS_SECONDS = 5.0
SETUP_EVERY = 2  # one `--help` sample before every second request
REFERENCE_NOMINAL_S = 0.020  # see scaled_s
TAIL_BEYOND = 10  # samples required beyond the tail percentile
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "latency_p50_s": "s",
    "latency_tail_s": "s", "work_rate": "items/s", "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


# Settings that change how the interpreter runs.  The CLI runs with the
# defaults, as a user would: the 4,300-digit int->str limit, cached
# bytecode and buffered stdout.
NON_DEFAULT_ENV = ("PYTHONINTMAXSTRDIGITS", "PYTHONDONTWRITEBYTECODE",
                   "PYTHONUNBUFFERED")


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in NON_DEFAULT_ENV:
        env.pop(name, None)
    return env


@dataclass
class Outcome:
    latency_s: float
    reference_s: Optional[float]  # see spawner.py; None in-process
    rss_mb: float
    exit_code: Optional[int]  # None on timeout or crash
    sha256: str
    nbytes: int
    text: Optional[str]
    stderr: str


class Spawner:
    """Runs ``python -m tablepaths`` requests through spawner.py, which
    is started before this process grows (see spawner.py for why)."""

    def __init__(self):
        self.sock, theirs = socket.socketpair(socket.AF_UNIX,
                                              socket.SOCK_SEQPACKET)
        # With two or more CPUs, the requests (and the helper's reference
        # loop) get one CPU and this process, which reads and checks
        # their output, the others; so the reference loop runs where the
        # requests run and the client never competes with them.
        cpus = sorted(os.sched_getaffinity(0))
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("spawner.py")),
                 str(theirs.fileno())],
                env=child_env(), pass_fds=[theirs.fileno()],
                stdin=subprocess.DEVNULL,
            )
        if len(cpus) > 1:
            os.sched_setaffinity(self.proc.pid, cpus[-1:])
            os.sched_setaffinity(0, cpus[:-1])

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.sock.close()
        self.proc.wait(timeout=REQUEST_TIMEOUT_S)

    def run(self, argv, keep_text: bool) -> Outcome:
        """Run one request to completion.

        Stdout is streamed into a digest and byte counter (and kept only
        when ``keep_text``); wall time and peak RSS are the helper's
        ``os.wait4`` figures for this child alone.
        """
        digest, nbytes, chunks, err = hashlib.sha256(), 0, [], []
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        msg = {"argv": [sys.executable, "-m", "tablepaths", *argv],
               "timeout": REQUEST_TIMEOUT_S}
        try:
            socket.send_fds(self.sock, [json.dumps(msg).encode()],
                            [out_w, err_w])
        finally:
            os.close(out_w)
            os.close(err_w)
        with selectors.DefaultSelector() as sel:
            sel.register(out_r, selectors.EVENT_READ)
            sel.register(err_r, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(REQUEST_TIMEOUT_S + 30)
                if not ready:
                    raise BenchmarkError(f"request never finished: {argv}")
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 20)
                    if not data:
                        sel.unregister(key.fd)
                        os.close(key.fd)
                    elif key.fd == out_r:
                        digest.update(data)
                        nbytes += len(data)
                        if keep_text:
                            chunks.append(data)
                    else:
                        err.append(data)
        reply = self.sock.recv(1 << 16)
        if not reply:
            raise BenchmarkError("the request helper stopped")
        res = json.loads(reply)
        return Outcome(
            res["latency_s"], res["reference_s"], res["maxrss_kb"] / 1024,
            res["exit_code"],
            digest.hexdigest(), nbytes,
            b"".join(chunks).decode() if keep_text else None,
            b"".join(err).decode(errors="replace"),
        )


class _Sink(io.TextIOBase):
    """Stdout for in-process requests: a digest and a byte counter."""

    def __init__(self, keep_text: bool):
        self.digest, self.nbytes = hashlib.sha256(), 0
        self.parts = [] if keep_text else None

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        data = s.encode()
        self.digest.update(data)
        self.nbytes += len(data)
        if self.parts is not None:
            self.parts.append(s)
        return len(s)


def run_in_process(argv, keep_text: bool, tracer=None) -> Outcome:
    """Run ``cli.main(argv)`` here, optionally inside a tracer span."""
    from tablepaths import cli

    sink, err = _Sink(keep_text), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(sink), redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code = tracer.call("cli.main", cli.main, (list(argv),), {})
        except Exception as exc:  # a crash is a failed request, not a stop
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    latency = time.perf_counter() - start
    return Outcome(
        latency, None, 0.0, code, sink.digest.hexdigest(), sink.nbytes,
        "".join(sink.parts) if keep_text else None, err.getvalue(),
    )


def classify(out: Outcome, expected: checks.Expected, digit_limit: int) -> str:
    """``ok``; ``refused`` when the answer has more decimal digits than
    the child's int->str limit (0 means none) and the CLI gives its
    documented clean error (exit 1, no stdout, one ``error:`` line);
    ``wrong`` for anything else."""
    if out.exit_code == 0 and expected.matches(out.sha256, out.text):
        return "ok"
    lines = out.stderr.splitlines()
    if (0 < digit_limit < expected.digits and out.exit_code == 1
            and out.nbytes == 0 and len(lines) == 1
            and lines[0].startswith("error: ")):
        return "refused"
    return "wrong"


# ---------------------------------------------------------------------------
# Run environment
# ---------------------------------------------------------------------------


def check_checkout() -> None:
    if not (SRC / "tablepaths" / "__init__.py").is_file():
        raise BenchmarkError(f"no tablepaths package under {SRC}")


def environment(args) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import sys; print(sys.get_int_max_str_digits())"],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "tablepaths").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": int(probe.stdout),
        "commit": commit, "src_sha256": src_digest.hexdigest(),
    }


def measure_setup(spawner: Spawner) -> Outcome:
    out = spawner.run(["--help"], True)
    if out.exit_code != 0 or "usage: tablepaths" not in out.text:
        raise BenchmarkError(f"`tablepaths --help` failed: {out.stderr.strip()}")
    return out


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def scaled_s(out: Outcome) -> float:
    """A request's wall time scaled to a machine of fixed speed.

    On a shared machine other tenants slow every process down by up to
    2x, in phases of tens of seconds, which is longer than a run.  The
    helper times a fixed reference loop around each request, on the CPU
    the request ran on (see spawner.py).  The wall time is multiplied by
    REFERENCE_NOMINAL_S over that reference time: the result is the time
    the request would take on a machine where the loop takes
    REFERENCE_NOMINAL_S, which cancels most of the slowdown while keeping
    the figure in seconds.
    """
    return out.latency_s * REFERENCE_NOMINAL_S / out.reference_s


def end_to_end(spawner: Spawner, workload: workloads.Workload, requests,
               expected, args, info: dict) -> tuple[dict, dict]:
    passes = max(1, round(args.seconds / PASS_SECONDS))
    digit_limit = info["int_max_str_digits"]
    counts = {"ok": 0, "refused": 0, "wrong": 0}
    setup_times, raw_setup, work_done, peak_rss = [], [], 0, 0.0
    per_request = [[] for _ in requests]  # scaled latencies of request i
    raw_walls, references = [], []
    started = time.perf_counter()
    for p in range(passes):
        raw_walls.append(0.0)
        for i, req in enumerate(requests):
            # Set-up samples interleaved with the requests, so that they
            # spread over the whole run.
            if (p * len(requests) + i) % SETUP_EVERY == 0:
                out = measure_setup(spawner)
                raw_setup.append(out.latency_s)
                setup_times.append(scaled_s(out))
                references.append(out.reference_s)
            exp = expected[req.key]
            out = spawner.run(req.argv, exp.keep_text)
            verdict = classify(out, exp, digit_limit)
            counts[verdict] += 1
            if verdict == "ok":
                work_done += exp.work
            elif verdict == "wrong":
                print(f"wrong: {req.key}: exit={out.exit_code} "
                      f"{out.stderr.strip()[:200]}", file=sys.stderr)
            per_request[i].append(scaled_s(out))
            raw_walls[-1] += out.latency_s
            references.append(out.reference_s)
            peak_rss = max(peak_rss, out.rss_mb)
        # Stay well inside the 180 s a run may take if the program slows.
        if time.perf_counter() - started > 2 * args.seconds + 30:
            break
    done = len(raw_walls)
    latencies = [t for times in per_request for t in times]
    wall = sum(statistics.median(times) for times in per_request)
    tail_s, tail_pct = tail(latencies)
    info.update(passes=done, requests_per_pass=len(requests),
                samples=len(latencies), tail_percentile=round(tail_pct, 2),
                setup_samples=len(setup_times), outcomes=counts,
                work_unit=workload.work_unit,
                raw_pass_walls_s=[round(w, 4) for w in raw_walls],
                raw_setup_s=statistics.median(raw_setup),
                reference_s=statistics.median(references))
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "work_rate": work_done / done / wall,
        "peak_rss_mb": peak_rss,
        "ok_rate": counts["ok"] / len(latencies),
    }
    metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return metrics, counts


def _in_process_pass(requests, expected, counts, tracer=None) -> tuple[float, int]:
    """Wall time and stdout bytes of one in-process pass."""
    start, nbytes = time.perf_counter(), 0
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        exp = expected[req.key]
        out = run_in_process(req.argv, exp.keep_text, tracer)
        counts[classify(out, exp, sys.int_info.default_max_str_digits)] += 1
        nbytes += out.nbytes
    return time.perf_counter() - start, nbytes


def traced(requests, expected, info: dict) -> tuple[dict, dict]:
    counts = {"ok": 0, "refused": 0, "wrong": 0}
    tracer = tracing.Tracer()
    with ExitStack() as stack:
        stack.callback(sys.set_int_max_str_digits, sys.get_int_max_str_digits())
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        # Untraced passes before and after the traced one; the faster one
        # counts, because the first pass in a process also pays for
        # growing the heap.
        before, _ = _in_process_pass(requests, expected, counts)
        with ExitStack() as patches:
            tracer.instrument(patches)
            wall, bytes_out = _in_process_pass(requests, expected, counts, tracer)
        after, _ = _in_process_pass(requests, expected, counts)
    untraced_wall = min(before, after)
    metrics = tracer.metrics()
    top = sum(end - start for _, start, end, parent, _, _ in tracer.spans
              if parent < 0)
    metrics.update({
        "cli.bytes_out": bytes_out,
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - top,
        "trace.overhead_s": wall - untraced_wall,
    })
    info.update(outcomes=counts, spans=len(tracer.spans),
                untraced_wall_s=untraced_wall)
    units = dict(tracing.per_layer_metrics())
    return {name: _metric(v, units[name]) for name, v in metrics.items()}, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        info = environment(args)  # before Spawner() pins this process
        # The helper starts first, while this process is still small.
        with Spawner() as spawner:
            workload = workloads.WORKLOADS[args.workload]
            requests = workload.requests(args.seed)
            sys.path.insert(0, str(SRC))  # the oracle, for small-table checks
            expected = checks.build_expectations(requests)
            over = [r for r in requests
                    if expected[r.key].digits > info["int_max_str_digits"]]
            info["answers_over_digit_limit"] = len(over) / len(requests)
            if args.trace:
                metrics, counts = traced(requests, expected, info)
            else:
                metrics, counts = end_to_end(spawner, workload, requests,
                                             expected, args, info)
    except (BenchmarkError, checks.MissingDigest,
            subprocess.CalledProcessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    attempted = sum(counts.values())
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": attempted,
        "failed": attempted - counts["ok"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
