#!/usr/bin/env python3
"""Build and run the tilecomp repository benchmark.

    python3 perfbench/run.py --workload ssb_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library from
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr. The benchmark's
own standard output is passed through unchanged; its last line is the JSON
result. Per-run reports and, with --trace 1, host span logs are written to
<build dir>/runs.

--self-test feeds each workload a deliberately wrong answer and checks that
the correctness check trips, then checks that the same quick run passes
without the corruption.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ssb_cold", "serve_open", "ingest_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j", "4",
                      "--target", "perfbench"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                # A failed configure must not leave a cache behind that
                # skips configuring next time.
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                return None
    return bdir / "perfbench"


def run(binary, workload, seed, seconds, trace, extra=()):
    """Run one benchmark invocation; return (exit code, stdout)."""
    out_dir = build_dir() / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3, ""
    return proc.returncode, proc.stdout


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        for corrupt in (1, 0):
            code, stdout = run(binary, workload, 7, 0.1, 0,
                               ["--quick", "1", "--corrupt", str(corrupt)])
            result = parse_result(stdout)
            if corrupt:
                passed = (code != 0 and result is not None and
                          not result["correct"] and result["failed"] >= 1)
                what = "wrong answer is caught"
            else:
                passed = code == 0 and result is not None and result["correct"]
                what = "clean run passes"
            print(f"{'PASS' if passed else 'FAIL'} {workload}: {what}")
            ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(binary)

    code, stdout = run(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    if parse_result(stdout) is None:
        print("perfbench: no result line", file=sys.stderr)
        return code or 4
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
