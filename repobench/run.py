#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run it from the repository root. It configures and builds the repobench
executable (and the library under src/, with the repository's Release
flags) into .bench_build/repobench, runs one workload, and relays the
executable's output. The last line of standard output is the result:

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes a Chrome trace to .bench_build/traces/ (readable by
tools/trace_report). Build output and diagnostics go to standard error.
The exit code is non-zero, and no result is printed, when the sources are
missing, the build fails, or the run fails or overruns.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "repobench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"repobench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "repobench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "repobench")


def source_digest():
    """sha256 over src/ (paths and contents): identifies the measured code
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--small", action="store_true",
                        help="shrunken shapes, for the self-test")
    args = parser.parse_args()

    binary = build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--trace-out",
               os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json"),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.small:
        command.append("--small")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}", code=3)
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        fail("the last output line is not a result object", code=3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
