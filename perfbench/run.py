#!/usr/bin/env python3
"""Build and run the stratify end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-tracker --seed 1 --seconds 50 --trace 0

The script builds perfbench/perfbench.exe from source with dune (release
profile, build directory .bench_build at the repository root), runs it
with the same arguments and relays its output.  The last line of standard
output is the benchmark's JSON result.  The exit code is 0 only when the
build succeeded, every correctness check passed and a result was printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
WORKLOADS = ("serve-tracker", "match-1m", "matrix-full")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build():
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH")
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        return fail("no dune-project at the repository root: the program's sources are missing")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release", TARGET]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        return fail("build failed (exit %d)" % proc.returncode)
    return 0


def run(args):
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(out)
        return fail("no result line (exit %d)" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        return fail("correctness check failed (exit %d)" % proc.returncode)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    return build() or run(args)


if __name__ == "__main__":
    sys.exit(main())
