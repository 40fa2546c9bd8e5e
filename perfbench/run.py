#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <mc_reliability|saturated_vc|paper_verify> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark crate (perfbench/Cargo.toml) is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build in the current directory), then run
in a process of its own, so peak memory and CPU time belong to this workload
alone. Build output goes to stderr; the last stdout line is the result JSON.
Traced runs (--trace 1) write their spans under <target dir>/perfbench-trace.
"""

import os
import subprocess
import sys

BENCH_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed (is this a full checkout of the repository?)",
              file=sys.stderr)
        return 2

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    print(f"perfbench host: nproc={os.cpu_count()} {rustc.stdout.strip()}", flush=True)
    command = [
        os.path.join(target, "release", "perfbench"), *sys.argv[1:],
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
        "--trace-dir", os.path.join(target, "perfbench-trace"),
    ]
    try:
        return subprocess.run(command, timeout=BENCH_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {BENCH_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
