"""Record the expected outputs that checks.py compares against digests.

Run from the repository root at the commit whose outputs are trusted:

    python3 perfbench/record_digests.py

For every request a workload can draw that is checked by digest, this
runs the CLI once and writes ``perfbench/digests.json``: the stdout
digest, or for ``verify`` the digest of its verdict rows, and the
request's work in its workload's unit.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def work(req: workloads.Request, text: str) -> int:
    if req.argv[0] == "table":
        return int(req.argv[req.argv.index("-m") + 1]) * int(
            req.argv[req.argv.index("-n") + 1])
    fmt = checks.request_format(req, "plain")
    if req.argv[0] == "verify":
        return sum(int(row[2]) for row in checks.verdict_rows(text, fmt))
    if fmt == "json":
        return len(json.loads(text)["words"])
    return len(text.splitlines()) - (fmt == "csv")


def main() -> int:
    records = {}
    with run.Spawner() as spawner:
        for workload in workloads.WORKLOADS.values():
            for req in workload.universe():
                if req.check not in (workloads.DIGEST, workloads.VERDICTS):
                    continue
                out = spawner.run(req.argv, req.argv[0] != "table")
                if out.exit_code != 0:
                    print(f"{req.key}: exit {out.exit_code}: {out.stderr}",
                          file=sys.stderr)
                    return 1
                rec = {"work": work(req, out.text)}
                if req.check == workloads.VERDICTS:
                    rec["verdicts"] = checks.verdict_digest(
                        out.text, checks.request_format(req))
                else:
                    rec["sha256"] = out.sha256
                records[req.key] = rec
                print(f"{out.latency_s:7.3f}s {rec['work']:>9} {req.key}")
    checks.DIGESTS_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
