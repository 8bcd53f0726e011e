#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny scale (a few seconds per run).

    python3 perfbench/smoke_test.py

Checks that every workload runs clean with and without tracing and prints
exactly the metrics BENCHMARK.json declares, that every invariant check
fires when its fault is planted (a throw, a one-byte output change, a lost
record, a collector timeout, a ListenOverflows move, uncovered trace time),
and that the benchmark refuses to report from a tree without the sources.
Exits 0 when all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench", "smoke")
WORKLOADS = ["csv-analyze", "binlog-slices", "store-windows", "tcp-fanin"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, inject="none", seconds="0.5"):
    """Run one tiny workload; return (result dict or None, results record, stderr)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", seconds, "--trace", str(trace), "--scale", "tiny",
           "--inject", inject, "--work-dir", WORK]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    record_path = os.path.join(WORK, "results", "%s-seed3-trace%d.json" % (workload, trace))
    record = None
    if os.path.exists(record_path):
        with open(record_path) as f:
            record = json.load(f)
    return result, record, proc.stderr


def clean_run(workload, trace):
    result, _, stderr = run(workload, trace)
    what = "%s --trace %d" % (workload, trace)
    if result is None:
        check(False, what + " printed no result: " + stderr[-300:])
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], what + " result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          what + " correct with no failures")
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    check([m["name"] for m in declared] == list(result["metrics"]),
          what + " prints exactly the declared metrics")
    check(all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared
              if m["name"] in result["metrics"]), what + " units match BENCHMARK.json")
    if trace:
        check(result["metrics"]["trace.coverage"]["value"] >= 0.9, what + " trace.coverage >= 0.9")
    else:
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              what + " end-to-end metrics are nonzero")


def planted(workload, trace, inject, expect):
    result, record, stderr = run(workload, trace, inject)
    what = "%s --inject %s" % (workload, inject)
    if result is None:
        check(False, what + " printed no result: " + stderr[-300:])
        return
    check(not result["correct"], what + " marks the run incorrect")
    if expect is None:  # a run-level check, not an iteration failure
        check("trace.coverage" in stderr, what + " reports low trace.coverage")
        return
    check(result["failed"] >= 1, what + " counts a failed iteration")
    messages = record["failures"] if record else []
    check(any(expect in m for m in messages), what + " fails for '%s'" % expect)


def refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a tree holding only the benchmark exits nonzero without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    for workload in WORKLOADS:
        for trace in (0, 1):
            clean_run(workload, trace)
        planted(workload, 0, "throw", "threw")
        planted(workload, 0, "mismatch", "differs from the oracle")
    planted("tcp-fanin", 0, "lost", "delivered")
    planted("tcp-fanin", 0, "timeout", "timed out")
    planted("tcp-fanin", 0, "overflow", "ListenOverflows")
    planted("csv-analyze", 1, "uncovered", None)
    refuses_without_sources()
    shutil.rmtree(WORK, ignore_errors=True)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
