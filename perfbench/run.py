#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload csv-analyze --seed 1 --seconds 10 --trace 0

Every flag is passed through to the perfbench binary (see main.cpp). The build
goes to .perfbench/build (Release); inputs, stores and result records go to
.perfbench/work unless --work-dir names another directory. Nothing is written
outside the checkout. The last line of stdout is the result JSON.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(STATE, "build")
WORK = os.path.join(STATE, "work")


def build():
    """Configure once, then build incrementally; the log stays on failure."""
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(STATE, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    # At most 8 compilers at once keeps the build's memory modest on big hosts.
    jobs = min(os.cpu_count() or 1, 8)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", str(jobs)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT, env=env) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    if binary is None:
        return 1
    env = dict(os.environ, TMPDIR=os.path.join(STATE, "tmp"))
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", WORK]
    return subprocess.call([binary] + args, env=env)


if __name__ == "__main__":
    sys.exit(main())
