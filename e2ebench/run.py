#!/usr/bin/env python3
"""Builds and runs the end-to-end engine benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload ingest_bulk --seed 1 --seconds 10 --trace 0

The first run configures and compiles the repository's libraries plus the
e2e_engine program into .bench_build/ (later runs only relink what changed).
The program's output is passed through; its last line is one JSON object
with the keys correct, attempted, failed and metrics. Exits non-zero,
without printing a result, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("ingest_bulk", "serve_warm", "stream_mixed")
RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", src_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_engine",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(stdout[-4000:])
            sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build")
    if not build(src_dir, build_dir):
        return 1

    cmd = [os.path.join(build_dir, "e2e_engine"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    # Own process group: e2e_engine forks one child per deployment, and a
    # timeout must stop those too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("e2ebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        sys.stderr.write("e2ebench: e2e_engine exited with %d\n" % proc.returncode)
        return 1
    try:
        result = json.loads(stdout.rstrip("\n").split("\n")[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(stdout)
        sys.stderr.write("e2ebench: e2e_engine printed no result line\n")
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
