#!/usr/bin/env python3
"""Builds the SPI libraries and the benchmark program from source, then runs
one closed-loop TCP workload.

    python3 perfbench/run.py --workload pack16_async --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build lives in .bench_build (or in the
directory named by CARGO_TARGET_DIR, relative to the root). Standard
output ends with one JSON object: {"correct", "attempted", "failed",
"metrics"}; the line before it is the run's environment record. Build logs
and diagnostics go to standard error. The exit code is non-zero, with no
result printed, when the build fails, a server or the proxy does not start,
or no exchange completes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir,
                       "perfbench_tests" if args.selftest else "spi_perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary], stdout=sys.stderr).returncode

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.csv")]
    # The program may lengthen its window by up to 30 s to time p99.
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"run.py: benchmark exited with {child.returncode}",
              file=sys.stderr)
        return child.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
