#!/usr/bin/env python3
"""Build and run simbench, the in-process simulator speed benchmark.

Usage (from the repository root):

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark and the library it links from source into
.bench_build/simbench (a no-op when up to date; build output goes to
stderr), then runs one measurement.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is non-zero when the build fails or an output check fails.

Extra flags are passed through to the binary: --threads T, --short and
--spans-out FILE (see README.md).  The GECKO_* variables that change
what is simulated or how fast are removed from the binary's environment,
so a caller's shell cannot skew a run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "simbench")
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "simbench-scratch")
BINARY = os.path.join(BUILD, "simbench")

PINNED_ENV = (
    "GECKO_COALESCE", "GECKO_EXEC", "GECKO_THREADS", "GECKO_SEED",
    "GECKO_WATCHDOG", "GECKO_TRACE_OUT", "GECKO_TRACE_BLOCKS",
    "GECKO_DUMP_BLOCKS",
)


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("simbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    os.makedirs(SCRATCH, exist_ok=True)
    cmd = [BINARY] + argv + ["--scratch", SCRATCH]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
