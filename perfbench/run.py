#!/usr/bin/env python3
"""Builds and runs the partitioner's end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload pretrain|bert_search|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run configures and
builds ../src plus the benchmark into .bench_build/perfbench (Release), runs
the benchmark's logic tests, then runs one workload.  The last line of
standard output is the workload's JSON result.  Exits non-zero, without a
result line, when the build, the logic tests or the run fail, and non-zero
after the result line when an output check failed (correct=false).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout_s):
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=timeout_s)
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("command failed: " + " ".join(cmd))


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"), 300)
    run_logged(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                "--target", "perfbench", "perfbench_logic_test"],
               os.path.join(BUILD, "build.log"), 800)
    run_logged([os.path.join(BUILD, "perfbench_logic_test")],
               os.path.join(BUILD, "logic_test.log"), 60)


def revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["pretrain", "bert_search", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from a full source checkout")
    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--revision", revision()]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if result is None or sorted(result) != ["attempted", "correct", "failed",
                                            "metrics"]:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail("run produced no result (exit code %d)" % proc.returncode)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
