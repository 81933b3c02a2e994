"""Start benchmark requests from a small process and report their cost.

A child's ``ru_maxrss`` starts at the peak RSS of the process it was
forked from, so children started straight from run.py, which holds the
expected answers, would all report at least run.py's own peak.  run.py
starts this helper before it grows; the helper runs one request per
message and stays small, because the request's stdout and stderr go
straight to pipes that run.py passes along with the message.

The helper also times a fixed reference loop after each request, on
the CPU where the requests run (run.py pins the helper, and with it
every request, to one CPU); run.py uses it to correct for the machine's
speed.

Protocol over the SOCK_SEQPACKET socket whose descriptor is argv[1]:
run.py sends ``{"argv": [...], "timeout": s}`` with two descriptors
(stdout and stderr); the helper answers ``{"latency_s", "maxrss_kb",
"exit_code", "reference_s"}``, where ``exit_code`` is null when the
request was killed at its timeout and ``reference_s`` is the mean of the
reference times just before and just after the request.  An empty
message or a closed socket ends the helper.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time


_REFERENCE_INT = 7 ** 6000


def reference_s() -> float:
    """Wall time of a fixed loop of dict updates, big-int products and
    int formatting, the operations the CLI spends its time on.  16-40 ms
    on a 2-vCPU x86 VM, depending on other tenants' load."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(30000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    x = _REFERENCE_INT
    for _ in range(40):
        x = (x * _REFERENCE_INT) >> 16000
    ",".join([str(i) for i in range(20000)])
    return time.perf_counter() - start


def serve(sock: socket.socket) -> None:
    last_reference = reference_s()
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not msg:
            return
        req = json.loads(msg)
        out_w, err_w = fds
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL,
                                    stdout=out_w, stderr=err_w)
        finally:
            os.close(out_w)
            os.close(err_w)
        killed = []
        timer = threading.Timer(req["timeout"],
                                lambda: killed.append(proc.kill()))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reference = reference_s()
        sock.send(json.dumps({
            "latency_s": latency,
            "maxrss_kb": usage.ru_maxrss,
            "exit_code": None if killed else proc.returncode,
            "reference_s": (last_reference + reference) / 2,
        }).encode())
        last_reference = reference


if __name__ == "__main__":
    with socket.socket(fileno=int(sys.argv[1])) as conn:
        serve(conn)
