#!/usr/bin/env python3
"""Build and run the Inversion benchmark.

    python3 perfbench/run.py --workload paper|hot|churn|fleet --seed N \
        --seconds S --trace 0|1 [--out results.jsonl]

Run from the repository root. The first run configures and builds
perfbench/ (Release) into .bench_build/perfbench/; later runs only
rebuild what changed. The benchmark binary prints a host line, a
failed-ops line and, last, one JSON object with the keys correct,
attempted, failed and metrics; this script checks that shape, records
the commit, and passes the lines through. With --out it also appends
one record per run to a JSON-lines file that compare.py reads.

Exit codes: 0 every op and check passed; 1 a check failed (the result
is still printed); 2 the sources or the toolchain are missing, or the
build failed; 3 the build is not one that may report numbers.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper", "hot", "churn", "fleet")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def commit_id():
    """HEAD's commit when the checkout is a git repository, else "unknown".

    Reads .git directly: running git outside a repository would search the
    parent directories, outside the checkout.
    """
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_group(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group and wait for it. On a timeout the
    whole group (a build's compilers too) is killed and reaped before the
    TimeoutExpired propagates."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Inversion sources next to perfbench/ (expected %s/src)" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        try:
            rc, _ = run_group(cmd, 850, stdout=sys.stderr, stderr=sys.stderr)
        except subprocess.TimeoutExpired:
            rc = -1
        if rc != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-read", type=int, default=0,
                        help="test hook: corrupt the Nth checked read")
    parser.add_argument("--out", help="append a record to this JSON-lines file")
    args = parser.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-dir", TRACES]
    if args.corrupt_read:
        cmd += ["--corrupt-read", str(args.corrupt_read)]
    try:
        returncode, stdout = run_group(cmd, 170, stdout=subprocess.PIPE,
                                       stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        log("the benchmark did not finish within 170 s")
        return 1
    lines = stdout.splitlines()
    if returncode in (2, 3) or not lines:
        log("the benchmark refused to run (exit %d)" % returncode)
        return returncode or 1

    try:
        header = json.loads(lines[0])
        result = json.loads(lines[-1])
    except ValueError:
        log("malformed output (exit %d)" % returncode)
        return 1
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("malformed result line: " + lines[-1])
        return 1
    header["commit"] = commit_id()
    print(json.dumps(header))
    for line in lines[1:-1]:
        print(line)
    print(json.dumps(result), flush=True)

    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "run": header, "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    ok = returncode == 0 and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
