#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload cold-m2|wire-m3 \
        --seed N --seconds S --trace 0|1

Run from the repository root. Every call configures and builds the
libraries and the driver (Release) under .bench_build/perfbench; only the
first call compiles everything. Every call runs the benchmark's own
statistics tests before measuring.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}; with --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones. When a check fails, or the driver
dies, nothing is printed as a result: stderr names the failed check (or
the phase the driver died in) with the metrics gathered so far, and the
exit code is nonzero.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CMAKE_DIR = BUILD / "cmake"
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(CMAKE_DIR), "-j", jobs],
        [str(CMAKE_DIR / "perfbench_stats_test")],
    ]
    driver = CMAKE_DIR / "perfbench_driver"
    before = driver.stat().st_mtime_ns if driver.exists() else None
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail(f"cannot run {cmd[0]}: {err}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    if driver.stat().st_mtime_ns != before:
        # A fresh build leaves its objects to be written back; flush them
        # now rather than during the first measurement.
        os.sync()


def run_driver(args):
    cmd = [str(CMAKE_DIR / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(BUILD / "work")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        timed_out = True

    phase, partial, result = "start", "{}", None
    for line in out.splitlines():
        if line.startswith("#phase "):
            phase = line[len("#phase "):]
        elif line.startswith("#partial "):
            partial = line[len("#partial "):]
        elif line.startswith('{"correct"'):
            result = line
        else:
            print(line)
    if timed_out:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S}s in phase '{phase}'; "
             f"metrics so far: {partial}")
    if proc.returncode != 0:
        how = (f"signal {-proc.returncode}" if proc.returncode < 0
               else f"exit code {proc.returncode}")
        fail(f"driver failed ({how}) in phase '{phase}'; "
             f"metrics at the start of that phase: {partial}")
    if result is None:
        fail("driver printed no result")
    parsed = json.loads(result)
    if parsed.get("correct") is not True:
        fail(f"outputs incorrect: {result}")
    print(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-m2", "wire-m3"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    build()
    run_driver(args)


if __name__ == "__main__":
    main()
